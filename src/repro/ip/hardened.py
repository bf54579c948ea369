"""Radiation-hardened variant of the IP (the paper's §6 pointer).

"There is, also, another effort to produce a VHDL IP version hardened
against radiation [16]."  This module is that effort's architecture on
our model, with the two standard low-cost mitigations:

- **TMR on the control plane** — every FSM/counter/handshake register
  becomes a :class:`TmrRegister`: three flip-flops, bitwise majority
  vote on read.  A single-event upset in any one copy is out-voted
  the next cycle, so control can no longer be derailed by one hit.
  The datapath stays un-triplicated (triplicating 128-bit banks would
  triple the device; the companion work hardens control first).
- **Parity on the state datapath** — each 32-bit state word carries a
  parity flip-flop written on the same edge as the word; a
  combinational checker raises the ``error_detected`` pin whenever
  stored parity disagrees with the word.  An upset in the in-flight
  block is thereby *detected* (the host can retry the block) even
  though it is not corrected.

The SEU campaign in :mod:`repro.analysis.seu` runs against this core
via ``hardened=True`` and classifies detected-but-wrong outputs
separately — reproducing the companion paper's methodology.
"""

from __future__ import annotations

from typing import List

from repro.ip.control import Variant
from repro.ip.core import RijndaelCore
from repro.rtl.signal import Register, Signal, SignalError
from repro.rtl.simulator import Simulator


class TmrRegister:
    """Three flip-flops with bitwise majority-vote read.

    Implements the same ``value`` / ``next`` / ``deposit`` surface as
    :class:`~repro.rtl.signal.Register` so core logic is oblivious.
    The three copies register with the simulator individually, so
    fault injection (which targets physical flip-flops) naturally hits
    one copy at a time — exactly how a real SEU behaves.
    """

    __slots__ = ("name", "width", "copies")

    def __init__(self, simulator: Simulator, name: str, width: int,
                 reset: int = 0):
        self.name = name
        self.width = width
        self.copies: List[Register] = [
            simulator.register(f"{name}_tmr{i}", width, reset)
            for i in range(3)
        ]

    @property
    def value(self) -> int:
        """Bitwise 2-of-3 majority of the copies."""
        first, second, third = self.copies
        a, b, c = first.value, second.value, third.value
        return (a & b) | (a & c) | (b & c)

    @value.setter
    def value(self, _new: int) -> None:
        raise SignalError(
            f"register {self.name!r}: assign .next, not .value"
        )

    @property
    def next(self) -> int:
        return self.copies[0].next

    @next.setter
    def next(self, new: int) -> None:
        for copy in self.copies:
            copy.next = new

    def deposit(self, new: int) -> None:
        """Force all three copies (a *common-mode* fault; single-event
        campaigns hit one copy via its own register instead)."""
        for copy in self.copies:
            copy.deposit(new)

    def reset(self) -> None:
        for copy in self.copies:
            copy.reset()

    def __repr__(self) -> str:
        return (f"TmrRegister({self.name!r}, width={self.width}, "
                f"value={self.value:#x})")


def parity_of(value: int) -> int:
    """Even-parity bit of an integer."""
    return bin(value).count("1") & 1


class HardenedRijndaelCore(RijndaelCore):
    """The IP with TMR control and parity-checked state."""

    def __init__(self, simulator: Simulator,
                 variant: Variant = Variant.BOTH,
                 sync_rom: bool = False, name: str = "aes"):
        self._tmr_registers: List[TmrRegister] = []
        super().__init__(simulator, variant=variant, sync_rom=sync_rom,
                         name=name)
        # Parity plane: one bit per state word, written by snooping
        # the pending (D-input) value of each word every edge.
        self.state_parity = [
            simulator.register(f"{name}_parity_{i}", 1)
            for i in range(4)
        ]
        #: Sticky error latch: set on any parity mismatch, held until
        #: the host acknowledges via :meth:`clear_error`.
        self.error_latch = simulator.register(f"{name}_error_latch", 1)
        #: Raised whenever a mismatch is live or latched — the
        #: host-visible detection pin.
        self.error_detected = Signal(f"{name}_error_detected", 1)
        #: Count of edges on which a mismatch was observed.
        self.errors_flagged = 0
        simulator.add_clocked(self._update_parity)
        simulator.add_comb(self._check_parity)

    def _control_reg(self, name: str, width: int, reset: int = 0):
        tmr = TmrRegister(self.simulator, name, width, reset)
        self._tmr_registers.append(tmr)
        return tmr

    @property
    def tmr_register_names(self) -> List[str]:
        """The logical names of the triplicated control registers."""
        return [tmr.name for tmr in self._tmr_registers]

    # ------------------------------------------------------------ parity
    def _live_mismatch(self) -> bool:
        return any(
            parity_of(word.value) != parity.value
            for word, parity in zip(self.state, self.state_parity)
        )

    def _update_parity(self) -> None:
        # Runs in the same clocked phase as the core tick (after it,
        # by registration order).  First sample the *pre-edge* state
        # against its stored parity — an upset that landed during this
        # cycle is caught here and latched — then schedule parity for
        # the post-edge values (Register.next reflects what each word
        # will hold after this edge).
        if self._live_mismatch():
            self.error_latch.next = 1
            self.errors_flagged += 1
        for word, parity in zip(self.state, self.state_parity):
            parity.next = parity_of(word.next)

    def _check_parity(self) -> None:
        live = self._live_mismatch()
        latched = bool(self.error_latch.value)
        self.error_detected.value = 1 if (live or latched) else 0

    def clear_error(self) -> None:
        """Host acknowledgement: drop the sticky error latch."""
        self.error_latch.deposit(0)
        self.simulator.settle()


def hardening_overhead(variant: Variant = Variant.BOTH) -> dict:
    """Resource cost of the mitigations, through the area model.

    TMR doubles every control flip-flop (two extra copies) and adds a
    majority voter (one LUT per bit); parity adds one flip-flop and a
    32-input XOR tree (11 LUTs) per state word, plus the compare OR.
    Returns the extra LEs on the paper's Acex1K part.
    """
    from repro.fpga.calibration import LOGIC_FIT
    from repro.fpga.primitives import xor_tree_luts

    control_bits = 1 + 1 + 2 + 4 + 3 + 1 + 1 + 4 + 3  # the ctl regs
    extra_ff = 2 * control_bits  # two extra TMR copies
    voter_luts = control_bits  # 3-input majority per bit
    parity_ff = 4
    parity_luts = 4 * (xor_tree_luts(32) + 1) + 2  # trees + compare
    extra_luts = voter_luts + parity_luts
    extra_les = round(extra_ff + LOGIC_FIT * extra_luts)
    return {
        "control_bits": control_bits,
        "extra_flipflops": extra_ff + parity_ff,
        "extra_luts": extra_luts,
        "extra_les": extra_les,
    }
