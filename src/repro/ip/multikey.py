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
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ip.control import Variant
from repro.ip.core import _RUN, BusCore
from repro.ip.datapath import encrypt_mix_stage
from repro.ip.keysched_unit import schedule_word
from repro.ip.sbox_unit import SubWordUnit
from repro.ip.testbench import Testbench
from repro.rtl.simulator import Simulator


class MultiKeyEncryptCore(BusCore):
    """Encrypt-only AES-128/192/256 device (mixed 32/128 datapath)."""

    def __init__(self, simulator: Simulator, key_bits: int = 128,
                 name: str = "mk"):
        if key_bits not in (128, 192, 256):
            raise ValueError("key_bits must be 128, 192 or 256")
        # An encrypt device: ``encdec``, ``buf_dir`` and ``direction``
        # always read 0.
        super().__init__(simulator, Variant.ENCRYPT, name)
        self.key_bits = key_bits
        self.nk = key_bits // 32
        self.rounds = self.nk + 6
        self.total_words = 4 * (self.rounds + 1)

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
    def latency_cycles(self) -> int:
        return self.rounds * 5

    @property
    def rom_bits(self) -> int:
        """Same memory as the AES-128 device: Nk never adds S-boxes."""
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

    def _service_engine(self) -> bool:
        if self.top.value != _RUN:
            return True
        return self._tick_round()

    def _can_start(self, direction: int) -> bool:
        return True

    def _load_block(self, words, direction: int) -> None:
        key_words = [r.value for r in self.key]
        # Initial Add Key folds into the load edge (w0..w3).
        for regi, word, kw in zip(self.state, words, key_words[0:4]):
            regi.next = word ^ kw
        # Window resets to the raw key: w[0 .. Nk-1].
        for regi, word in zip(self.window, key_words):
            regi.next = word
        self.sched_pos.next = self.nk
        self.round.next = 1

    # -------------------------------------------------------- round engine
    def _next_schedule_word(self) -> Optional[int]:
        """Combinationally compute w[i] from the current window."""
        i = self.sched_pos.value
        if i >= self.total_words:
            return None
        return schedule_word(self.kstran_sbox, i, self.nk,
                             self.window[self.nk - 1].value,
                             self.window[0].value)

    def _shift_window(self, new_word: int) -> None:
        for index in range(self.nk - 1):
            self.window[index].next = self.window[index + 1].value
        self.window[self.nk - 1].next = new_word
        self.sched_pos.next = self.sched_pos.value + 1

    def _round_key(self) -> Tuple[int, int, int, int]:
        """The round key w[4r .. 4r+3], read at its window offset."""
        r = self.round.value
        i = self.sched_pos.value
        offset = 4 * r - i + self.nk
        assert 0 <= offset <= self.nk - 4, (
            f"round-key window invariant broken: offset {offset} "
            f"(round {r}, i {i}, Nk {self.nk})"
        )
        return tuple(
            self.window[offset + j].value for j in range(4)
        )

    def _tick_round(self) -> bool:
        s = self.step.value
        r = self.round.value
        if s <= 3:
            self.state[s].next = self.sbox_f.lookup(
                self.state[s].value
            )
            word = self._next_schedule_word()
            if word is not None:
                self._shift_window(word)
            self.step.next = s + 1
            return False
        result = encrypt_mix_stage(
            tuple(st.value for st in self.state),
            self._round_key(),
            last_round=(r == self.rounds),
        )
        if r == self.rounds:
            return self._finish(result)
        for regi, word in zip(self.state, result):
            regi.next = word
        self.round.next = r + 1
        self.step.next = 0
        return False


class MultiKeyTestbench(Testbench):
    """The :class:`~repro.ip.testbench.Testbench` protocol on the
    multi-key-size encrypt core."""

    def __init__(self, key_bits: int = 128):
        self._build(MultiKeyEncryptCore, key_bits=key_bits)
