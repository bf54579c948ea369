"""Tests for the cycle-based simulator."""

import pytest

from repro.rtl.signal import Register, Signal, SignalError
from repro.rtl.simulator import Simulator


class CountingRegister(Register):
    """A register that counts the commits the simulator makes."""

    __slots__ = ("commits",)

    def __init__(self, name: str, width: int, reset: int = 0):
        super().__init__(name, width, reset)
        self.commits = 0

    def commit(self) -> bool:
        self.commits += 1
        return super().commit()


def make_counter(sim: Simulator, width: int = 8):
    count = sim.register("count", width)
    sim.add_clocked(lambda: setattr(count, "next",
                                    (count.value + 1) % (1 << width)))
    return count


class TestStepping:
    def test_single_step(self):
        sim = Simulator()
        count = make_counter(sim)
        sim.step()
        assert count.value == 1
        assert sim.cycle == 1

    def test_multi_step(self):
        sim = Simulator()
        count = make_counter(sim)
        sim.step(10)
        assert count.value == 10

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            Simulator().step(-1)

    def test_register_to_register_transfer_is_synchronous(self):
        # Classic shift-register check: both stages observe pre-edge
        # values, so the pipeline delays by exactly one per stage.
        sim = Simulator()
        a = sim.register("a", 8)
        b = sim.register("b", 8)
        inp = Signal("in", 8)

        def stage():
            a.next = inp.value
            b.next = a.value

        sim.add_clocked(stage)
        inp.value = 0x11
        sim.step()
        assert (a.value, b.value) == (0x11, 0x00)
        sim.step()
        assert b.value == 0x11

    def test_process_order_does_not_matter(self):
        # Same shift register with processes registered in both orders.
        for order in (False, True):
            sim = Simulator()
            a = sim.register("a", 8)
            b = sim.register("b", 8)
            inp = Signal("in", 8, reset=5)
            procs = [
                lambda: setattr(a, "next", inp.value),
                lambda: setattr(b, "next", a.value),
            ]
            if order:
                procs.reverse()
            for proc in procs:
                sim.add_clocked(proc)
            sim.step(2)
            assert b.value == 5


class TestWrittenRegistersCommit:
    """The edge commits only the registers written since the last."""

    def test_unwritten_register_holds_without_a_commit(self):
        sim = Simulator()
        held = CountingRegister("held", 8, reset=3)
        sim.adopt([held])
        count = make_counter(sim)
        sim.step(4)
        assert (held.value, count.value) == (3, 4)
        assert held.commits == 0

    def test_register_written_before_adopt_latches(self):
        sim = Simulator()
        reg = Register("r", 8)
        reg.next = 0x5A
        sim.adopt([reg])
        assert reg.value == 0
        sim.step()
        assert reg.value == 0x5A

    def test_two_writes_in_one_cycle_commit_once(self):
        sim = Simulator()
        reg = CountingRegister("r", 8)
        sim.adopt([reg])

        def twice():
            reg.next = 1
            reg.next = 2

        sim.add_clocked(twice)
        sim.step()
        assert (reg.value, reg.commits) == (2, 1)

    def test_register_reset_between_write_and_edge(self):
        sim = Simulator()
        reg = sim.register("r", 8, reset=7)
        reg.next = 1
        reg.reset()
        sim.step()
        assert reg.value == 7
        # A write after the reset still latches at the edge.
        reg.next = 1
        reg.reset()
        reg.next = 9
        sim.step()
        assert reg.value == 9

    def test_simulator_reset_between_write_and_edge(self):
        sim = Simulator()
        reg = sim.register("r", 8, reset=7)
        reg.next = 1
        sim.reset()
        sim.step()
        assert reg.value == 7

    def test_manual_commit_before_the_edge(self):
        sim = Simulator()
        reg = sim.register("r", 8)
        reg.next = 5
        assert reg.commit() is True
        sim.step()
        assert reg.value == 5
        # Written again after the manual commit: the edge latches it.
        reg.next = 6
        reg.commit()
        reg.next = 7
        sim.step()
        assert reg.value == 7

    def test_deposit_holds_across_edges(self):
        sim = Simulator()
        reg = sim.register("r", 8)
        make_counter(sim)
        reg.deposit(0x42)
        sim.step(3)
        assert reg.value == 0x42


class TestCombinational:
    def test_comb_runs_after_commit(self):
        sim = Simulator()
        count = make_counter(sim)
        doubled = Signal("doubled", 16)
        sim.add_comb(lambda: setattr(doubled, "value", count.value * 2))
        sim.step(3)
        assert doubled.value == 6

    def test_unwatched_comb_runs_once_per_edge(self):
        sim = Simulator()
        make_counter(sim)
        calls = []
        sim.add_comb(lambda: calls.append(sim.cycle))
        sim.step(3)
        assert calls == [0, 1, 2]

    def test_comb_chain_settles(self):
        sim = Simulator()
        count = make_counter(sim)
        a = Signal("a", 16)
        b = Signal("b", 16)
        # Registered in dependency-reversed order on purpose.
        sim.add_comb(lambda: setattr(b, "value", a.value + 1))
        sim.add_comb(lambda: setattr(a, "value", count.value + 1))
        sim.watch(a, b)
        sim.step()
        assert (a.value, b.value) == (2, 3)

    def test_settle_without_step(self):
        sim = Simulator()
        inp = Signal("in", 8)
        out = Signal("out", 8)
        sim.add_comb(lambda: setattr(out, "value", inp.value ^ 0xFF))
        inp.value = 0x0F
        sim.settle()
        assert out.value == 0xF0
        assert sim.cycle == 0

    def test_combinational_loop_detected(self):
        sim = Simulator()
        a = Signal("a", 8)
        sim.add_comb(lambda: setattr(a, "value", (a.value + 1) & 0xFF))
        sim.watch(a)
        with pytest.raises(SignalError):
            sim.step()


class TestRunUntil:
    def test_runs_to_condition(self):
        sim = Simulator()
        count = make_counter(sim)
        consumed = sim.run_until(lambda: count.value == 7)
        assert consumed == 7
        assert count.value == 7

    def test_timeout(self):
        sim = Simulator()
        make_counter(sim)
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=5)

    def test_immediate_condition_consumes_nothing(self):
        sim = Simulator()
        assert sim.run_until(lambda: True) == 0


class TestReset:
    def test_reset_restores_registers(self):
        sim = Simulator()
        count = make_counter(sim)
        sim.step(5)
        sim.reset()
        assert count.value == 0

    def test_adopt_deduplicates(self):
        sim = Simulator()
        reg = sim.register("r", 4)
        sim.adopt([reg, reg])
        assert sim.registers.count(reg) == 1

    def test_trace_hook_called_per_cycle(self):
        sim = Simulator()
        make_counter(sim)
        seen = []
        sim.add_trace_hook(seen.append)
        sim.step(3)
        assert seen == [1, 2, 3]
