"""The simulator's commit-only-written-registers kernel is invisible.

``Simulator.step`` commits only the registers written since the last
edge.  :class:`CommitAllSimulator` is the reference kernel: its step
commits every register on every edge.  Each scenario runs the same
seeded traffic on both kernels and must see, cycle by cycle, the same
value in every register of ``simulator.registers`` and on every output
pin, and at the end the same results and the same ``HwCounters``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Sequence, Tuple

import pytest

from repro.ip import buswrap, multikey, precomputed, testbench
from repro.ip.control import Variant
from repro.ip.core import DIR_DECRYPT, DIR_ENCRYPT
from repro.rtl.signal import Signal
from repro.rtl.simulator import Simulator


class CommitAllSimulator(Simulator):
    """Reference kernel: every edge commits every register."""

    def step(self, cycles: int = 1) -> None:
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        for _ in range(cycles):
            for process in self._clocked:
                process()
            for reg in self._registers:
                reg.commit()
            self._pending.clear()
            self._run_comb()
            self.cycle += 1
            for hook in self._trace_hooks:
                hook(self.cycle)


def _record(simulator: Simulator, pins: Sequence[Signal]) -> List[Tuple]:
    """Sample every register and output pin now and after each edge."""
    probes = simulator.registers + list(pins)
    rows = [("names",) + tuple(p.name for p in probes)]

    def sample(cycle: int) -> None:
        rows.append((cycle,) + tuple(p.value for p in probes))

    sample(simulator.cycle)
    simulator.add_trace_hook(sample)
    return rows


def _on_both_kernels(monkeypatch, module,
                     scenario: Callable[[], Any]) -> None:
    """Run ``scenario`` with ``module.Simulator`` as each kernel and
    assert that the two runs are indistinguishable."""
    runs = []
    for kernel in (CommitAllSimulator, Simulator):
        monkeypatch.setattr(module, "Simulator", kernel)
        runs.append(scenario())
    reference, fast = runs
    assert fast["kernel"] is Simulator
    assert reference["kernel"] is CommitAllSimulator
    del reference["kernel"], fast["kernel"]
    # Per-cycle rows first, so a divergence names its cycle.
    want_rows, got_rows = reference.pop("rows"), fast.pop("rows")
    assert len(got_rows) == len(want_rows)
    for want, got in zip(want_rows, got_rows):
        assert got == want
    assert fast == reference


def _core_outputs(bench, rows, results) -> dict:
    core = bench.core
    return {
        "kernel": type(bench.simulator),
        "rows": rows,
        "results": results,
        "cycles": bench.simulator.cycle,
        "counters": core.counters.snapshot(),
        "blocks": core.blocks_processed,
        "overruns": core.bus_overruns,
        "protocol_errors": core.protocol_errors,
    }


def _directions(variant: Variant) -> List[int]:
    return ([DIR_ENCRYPT] if variant.can_encrypt else []) + \
        ([DIR_DECRYPT] if variant.can_decrypt else [])


@pytest.mark.parametrize("sync_rom", [False, True],
                         ids=["async_rom", "sync_rom"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.name)
def test_testbench_traffic(monkeypatch, variant, sync_rom):
    def scenario():
        rng = random.Random(2003)
        bench = testbench.Testbench(variant, sync_rom=sync_rom)
        core = bench.core
        rows = _record(bench.simulator, [core.dout, core.data_ok])
        directions = _directions(variant)
        blocks = [rng.randbytes(16) for _ in range(3)]
        results: List[Any] = [bench.load_key(rng.randbytes(16))]
        for direction in directions:
            results.append(bench.stream_blocks(blocks, direction))
            results.append(bench.process_block(blocks[0], direction))
        bench.simulator.step(7)  # idle: every register holds
        # Back to back: the second lands in the buffer, the third is
        # dropped as an overrun.
        for index, block in enumerate(blocks):
            bench.write_block(block, directions[index % len(directions)])
        results.append(bench.wait_result())
        bench.simulator.step()
        results.append(bench.wait_result())
        # A wr_data pulse inside the setup period is a protocol error.
        core.setup.value = core.wr_data.value = 1
        bench.simulator.step()
        core.setup.value = core.wr_data.value = 0
        # Rekey, then traffic under the new key.
        results.append(bench.load_key(rng.randbytes(16)))
        results.append(bench.process_block(blocks[1], directions[-1]))
        return _core_outputs(bench, rows, results)

    _on_both_kernels(monkeypatch, testbench, scenario)


def test_hardened_core_with_mid_block_upsets(monkeypatch):
    def scenario():
        rng = random.Random(14)
        bench = testbench.Testbench(Variant.BOTH, hardened=True)
        core = bench.core
        rows = _record(bench.simulator,
                       [core.dout, core.data_ok, core.error_detected])
        blocks = [rng.randbytes(16) for _ in range(2)]
        results: List[Any] = [bench.load_key(rng.randbytes(16))]
        core.clear_error()
        # A datapath upset the parity plane flags ...
        bench.write_block(blocks[0], DIR_ENCRYPT)
        bench.simulator.step(17)
        core.state[1].deposit(core.state[1].value ^ (1 << 9))
        results.append(bench.wait_result())
        results.append((core.error_detected.value, core.errors_flagged))
        core.clear_error()
        # ... and a control upset one TMR copy out-votes.
        bench.write_block(blocks[1], DIR_DECRYPT)
        bench.simulator.step(23)
        copy = core.round.copies[1]
        copy.deposit(copy.value ^ 0b0100)
        results.append(bench.wait_result())
        results.append((core.error_detected.value, core.errors_flagged))
        results.append(bench.stream_blocks(blocks, DIR_DECRYPT))
        return _core_outputs(bench, rows, results)

    _on_both_kernels(monkeypatch, testbench, scenario)


@pytest.mark.parametrize("width", [8, 32])
def test_narrow_bus_host(monkeypatch, width):
    def scenario():
        rng = random.Random(width)
        host = buswrap.NarrowBusHost(width, variant=Variant.BOTH)
        bus = host.bus
        rows = _record(host.simulator, [bus.h_dout, bus.h_out_valid,
                                        host.core.dout])
        blocks = [rng.randbytes(16) for _ in range(3)]
        host.load_key(rng.randbytes(16))
        results = [host.stream(blocks, DIR_ENCRYPT),
                   host.process_block(blocks[2], DIR_DECRYPT)]
        return _core_outputs(host, rows, results)

    _on_both_kernels(monkeypatch, buswrap, scenario)


@pytest.mark.parametrize("key_bits", [128, 192, 256])
def test_multikey_testbench(monkeypatch, key_bits):
    def scenario():
        rng = random.Random(key_bits)
        bench = multikey.MultiKeyTestbench(key_bits)
        core = bench.core
        rows = _record(bench.simulator, [core.dout, core.data_ok])
        blocks = [rng.randbytes(16) for _ in range(3)]
        results = [bench.load_key(rng.randbytes(key_bits // 8)),
                   bench.stream_blocks(blocks), bench.encrypt(blocks[0])]
        return {"kernel": type(bench.simulator), "rows": rows,
                "results": results, "blocks": core.blocks_processed,
                "overruns": core.bus_overruns}

    _on_both_kernels(monkeypatch, testbench, scenario)


@pytest.mark.parametrize("key_bits", [128, 256])
def test_precomputed_testbench(monkeypatch, key_bits):
    def scenario():
        rng = random.Random(key_bits + 1)
        bench = precomputed.PrecomputedTestbench(key_bits)
        core = bench.core
        rows = _record(bench.simulator, [core.dout, core.data_ok])
        blocks = [rng.randbytes(16) for _ in range(2)]
        results: List[Any] = [
            bench.load_key(rng.randbytes(key_bits // 8))
        ]
        for block in blocks:
            ciphertext, latency = bench.encrypt(block)
            results.append((ciphertext, latency,
                            bench.decrypt(ciphertext)))
        return {"kernel": type(bench.simulator), "rows": rows,
                "results": results}

    _on_both_kernels(monkeypatch, testbench, scenario)
