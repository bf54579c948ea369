"""Cycle-accurate AES-192/256 encrypt core — the §3 versions, built.

The paper fixes its device to AES-128 and notes that AES also defines
192- and 256-bit keys.  This module extends the mixed 32/128
architecture to all three key sizes, keeping every headline property:
4 ByteSub cycles + 1 wide cycle per round, on-the-fly keys at one
32-bit word per clock, latency = Nr x 5 cycles (50 / 60 / 70).

The only real design problem is the key schedule: for Nk > 4 the
schedule's natural Nk-word groups no longer align with the 4-word
round keys.  The solution here (and in real multi-key-size IPs) is a
**sliding window**: Nk registers holding the most recent Nk schedule
words w[i-Nk .. i-1].  Each ByteSub cycle produces w[i] from the
window's newest and oldest words (KStran when i mod Nk == 0, the
extra SubWord when Nk == 8 and i mod Nk == 4) and shifts it in.  At
round r's wide cycle the round key w[4r .. 4r+3] sits at window
offset ``4r - i + Nk`` — 0 in steady state, up to Nk - 4 in the final
round once generation has run off the end of the schedule.  That
offset is a small mux in hardware; the invariant is asserted in the
model.

Decryption for Nk > 4 is intentionally out of scope for the on-the-fly
unit (the reverse window walks the schedule backwards through
misaligned KStran boundaries; deployed designs precompute instead) —
the behavioral model covers functional decryption for all sizes.

Key loading uses one ``wr_key`` beat per 128 din bits: 1 beat for
AES-128, 2 beats for AES-192 (words 4..5 in the top half of the
second beat) and AES-256.

The round engine is :class:`~repro.ip.core.BusCore`'s, the one the
paper's device runs; this core supplies only the key source above:
each ByteSub cycle's window shift and the wide stage's window read.
"""

from __future__ import annotations

from repro.ip.control import Variant
from repro.ip.core import BusCore, Word4
from repro.ip.keysched_unit import schedule_word
from repro.ip.sbox_unit import SubWordUnit
from repro.ip.testbench import Testbench
from repro.rtl.signal import Register
from repro.rtl.simulator import Simulator


class MultiKeyEncryptCore(BusCore):
    """Encrypt-only AES-128/192/256 device (mixed 32/128 datapath)."""

    # No setup phase, and no hold on a ``wr_key`` edge: a block in
    # flight runs on under the key its window was loaded from.
    key_load_holds = False
    key_beat: Register

    def __init__(self, simulator: Simulator, key_bits: int = 128,
                 name: str = "mk"):
        # An encrypt device: ``encdec``, ``buf_dir`` and ``direction``
        # always read 0.
        super().__init__(simulator, Variant.ENCRYPT, name, key_bits)

        reg = simulator.register
        # Raw key latch: Nk words, filled over 1-2 wr_key beats.
        self.key = [reg(f"{name}_key_{i}", 32) for i in range(self.nk)]
        self.key_beat = reg(f"{name}_key_beat", 1)
        # The sliding schedule window w[i-Nk .. i-1].
        self.window = [
            reg(f"{name}_win_{i}", 32) for i in range(self.nk)
        ]
        self.sched_pos = reg(f"{name}_sched_pos", 6)  # the index i

        self.sbox_f = SubWordUnit(f"{name}_sbox_f")
        self.kstran_sbox = SubWordUnit(f"{name}_kstran")

    # ------------------------------------------------------------- queries
    @property
    def rom_bits(self) -> int:
        """Same memory as the AES-128 device: Nk never adds S-boxes."""
        assert self.sbox_f is not None
        return self.sbox_f.rom_bits + self.kstran_sbox.rom_bits

    # ------------------------------------------------------- clocked logic
    def _load_key_beat(self, words) -> None:
        if self.nk == 4:
            for regi, word in zip(self.key, words):
                regi.next = word
            return
        if self.key_beat.value == 0:
            for regi, word in zip(self.key[0:4], words):
                regi.next = word
            self.key_beat.next = 1
            return
        for regi, word in zip(self.key[4:self.nk], words):
            regi.next = word
        self.key_beat.next = 0

    def _can_start(self, direction: int) -> bool:
        return True

    # ------------------------------------- key source: the sliding window
    def _start_keys(self, direction: int) -> None:
        # The window resets to the raw key: w[0 .. Nk-1].
        for regi, key in zip(self.window, self.key):
            regi.next = key.value
        self.sched_pos.next = self.nk

    def _first_key(self) -> Word4:
        k0, k1, k2, k3 = self.key[0:4]
        return (k0.value, k1.value, k2.value, k3.value)

    def _key_forward(self, s: int, r: int) -> None:
        """Make w[i] from the window's newest and oldest words and
        shift it in; none once generation has run off the schedule's
        end (the final round, for Nk > 4)."""
        i = self.sched_pos.value
        if i >= self.total_words:
            return
        word = schedule_word(self.kstran_sbox, i, self.nk,
                             self.window[self.nk - 1].value,
                             self.window[0].value)
        for index in range(self.nk - 1):
            self.window[index].next = self.window[index + 1].value
        self.window[self.nk - 1].next = word
        self.sched_pos.next = i + 1
        self.counters.key_word()

    def _round_key(self, r: int) -> Word4:
        """The round key w[4r .. 4r+3], read at its window offset."""
        i = self.sched_pos.value
        offset = 4 * r - i + self.nk
        assert 0 <= offset <= self.nk - 4, (
            f"round-key window invariant broken: offset {offset} "
            f"(round {r}, i {i}, Nk {self.nk})"
        )
        return tuple(
            self.window[offset + j].value for j in range(4)
        )


class MultiKeyTestbench(Testbench):
    """The :class:`~repro.ip.testbench.Testbench` protocol on the
    multi-key-size encrypt core."""

    def __init__(self, key_bits: int = 128):
        self._build(MultiKeyEncryptCore, key_bits=key_bits)
