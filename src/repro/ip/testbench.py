"""Bus-protocol testbench for the IP core (the ModelSim bench substitute).

Drives the pin protocol the way a host system would:

- :meth:`Testbench.load_key` — raise ``setup``, pulse ``wr_key`` with
  the key on ``din`` (one top-aligned 16-byte beat per 128 key bits),
  then wait out the key-setup phase (decrypt-capable variants derive
  the last round key during this window);
- :meth:`Testbench.process_block` — pulse ``wr_data`` with a block on
  ``din`` and collect the result at the ``data_ok`` strobe, returning
  the output block and the measured capture-to-result latency;
- :meth:`Testbench.stream_blocks` — back-to-back streaming that
  exploits the Data_In register: the next block is written while the
  current one is processing, so the steady-state period equals the
  block latency exactly (zero bus gap) — the property that makes
  throughput = 128 bits / latency in the paper's Table 2.

The protocol is the same for every :class:`~repro.ip.core.BusCore`;
the ablation benches of :mod:`repro.ip.precomputed` and
:mod:`repro.ip.multikey` differ only in the core they build.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.ip.control import Phase, Variant
from repro.ip.core import DIR_DECRYPT, DIR_ENCRYPT, BusCore, RijndaelCore
from repro.rtl.simulator import Simulator


class Testbench:
    """Owns a simulator + core and speaks the Table 1 protocol."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, variant: Variant = Variant.BOTH,
                 sync_rom: bool = False, hardened: bool = False):
        core_class: Callable[..., BusCore] = RijndaelCore
        if hardened:
            from repro.ip.hardened import HardenedRijndaelCore

            core_class = HardenedRijndaelCore
        self._build(core_class, variant=variant, sync_rom=sync_rom)

    def _build(self, core_class: Callable[..., BusCore],
               **options: Any) -> None:
        """Build the core on a fresh simulator and idle its pins."""
        self.simulator = Simulator()
        self.core = core_class(self.simulator, **options)
        self._idle_pins()

    # ------------------------------------------------------------ plumbing
    def _idle_pins(self) -> None:
        core = self.core
        core.setup.value = 0
        core.wr_data.value = 0
        core.wr_key.value = 0
        core.din.value = 0
        core.encdec.value = 0

    @staticmethod
    def _block_to_int(block: bytes) -> int:
        block = bytes(block)
        if len(block) != 16:
            raise ValueError(f"bus blocks are 16 bytes, got {len(block)}")
        return int.from_bytes(block, "big")

    # ------------------------------------------------------------ protocol
    def load_key(self, key: bytes, wait: bool = True) -> int:
        """Drive the configuration period: latch a key via ``wr_key``.

        A key takes one ``wr_key`` beat per 128 bits, a short last beat
        top-aligned on ``din``.  Returns the number of cycles consumed.
        With ``wait=True`` (default) the bench then holds until the
        core leaves its key-setup phase — the 40-cycle setup pass on
        decrypt-capable variants (50 on sync-ROM builds), the
        precomputed core's expansion; other cores are ready at once.
        """
        core = self.core
        key = bytes(key)
        if len(key) * 8 != core.key_bits:
            raise ValueError(
                f"expected a {core.key_bits}-bit key, "
                f"got {len(key)} bytes"
            )
        consumed = 0
        for offset in range(0, len(key), 16):
            core.setup.value = 1
            core.wr_key.value = 1
            core.din.value = self._block_to_int(
                key[offset:offset + 16].ljust(16, b"\0")
            )
            self.simulator.step()  # the wr_key edge
            self._idle_pins()
            consumed += 1
        if wait:
            consumed += self.simulator.run_until(
                lambda: core.phase is not Phase.KEY_SETUP,
                max_cycles=4 * core.latency_cycles,
            )
        return consumed

    def write_block(self, block: bytes,
                    direction: Optional[int] = None) -> None:
        """One ``wr_data`` pulse (does not wait for the result)."""
        core = self.core
        core.setup.value = 0
        core.wr_data.value = 1
        core.din.value = self._block_to_int(block)
        if direction is not None:
            core.encdec.value = direction
        self.simulator.step()
        self._idle_pins()

    def wait_result(self, max_cycles: int = 200) -> bytes:
        """Step until the ``data_ok`` strobe; returns the output block."""
        core = self.core
        self.simulator.run_until(
            lambda: core.data_ok.value == 1, max_cycles=max_cycles
        )
        return core.out_block()

    def process_block(
        self, block: bytes, direction: Optional[int] = None
    ) -> Tuple[bytes, int]:
        """Write one block and collect (result, capture-to-result latency).

        Latency is counted in clock cycles from the ``wr_data`` edge
        that captured the block to the edge that raised ``data_ok`` —
        the quantity the paper multiplies by the clock period to get
        its 700/750/850 ns figures.
        """
        self.write_block(block, direction)
        start = self.simulator.cycle  # the capture edge has just passed
        result = self.wait_result(max_cycles=4 * self.core.latency_cycles)
        return result, self.simulator.cycle - start

    def encrypt(self, block: bytes) -> Tuple[bytes, int]:
        """Encrypt one block (convenience around :meth:`process_block`).

        Raises ``ValueError`` on a device without the encrypt datapath:
        its hardwired direction would ignore the request.
        """
        if not self.core.variant.can_encrypt:
            raise ValueError(
                f"the {self.core.variant.name} device cannot encrypt")
        return self.process_block(block, direction=DIR_ENCRYPT)

    def decrypt(self, block: bytes) -> Tuple[bytes, int]:
        """Decrypt one block; ``ValueError`` where the device cannot."""
        if not self.core.variant.can_decrypt:
            raise ValueError(
                f"the {self.core.variant.name} device cannot decrypt")
        return self.process_block(block, direction=DIR_DECRYPT)

    def stream_blocks(
        self,
        blocks: Sequence[bytes],
        direction: Optional[int] = None,
    ) -> Tuple[List[bytes], List[int]]:
        """Stream blocks back-to-back using the input buffer.

        Writes block *n+1* as soon as the core has popped block *n*
        into the engine, then collects results at each ``data_ok``
        strobe.  Returns (results, result-edge cycle numbers); tests
        assert that steady-state result spacing equals the block
        latency — the zero-overhead streaming the Data_In/Out
        registers exist for.
        """
        core = self.core
        results: List[bytes] = []
        stamps: List[int] = []
        pending = list(blocks)
        if not pending:
            return results, stamps
        self.write_block(pending.pop(0), direction)
        budget = (len(blocks) + 2) * 4 * core.latency_cycles
        while len(results) < len(blocks):
            if pending and core.can_accept:
                self.write_block(pending.pop(0), direction)
            else:
                self.simulator.step()
            if core.data_ok.value == 1:
                results.append(core.out_block())
                stamps.append(self.simulator.cycle)
            budget -= 1
            if budget <= 0:
                raise TimeoutError("streaming did not complete in budget")
        return results, stamps
