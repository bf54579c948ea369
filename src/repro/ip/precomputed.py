"""Precomputed-key-schedule core: the paper's design choice, inverted.

The paper's IP generates round keys on the fly to avoid storing them.
This module builds the alternative the ablation study needs: a core
that expands the key **once per key load** into a round-key store and
reads it back during rounds.  Consequences, all measurable here:

- encryption pays a key-change cost it didn't have (the expansion
  pass), decryption pays the same cost it already paid;
- the store itself costs memory: 4·(Nr+1) words held in four 32-bit
  banks (word j lives in bank j mod 4, so a round's four words read
  in parallel from distinct banks — one read port each);
- in exchange, **decryption works for any key size** (the on-the-fly
  reverse walk is AES-128-only; see :mod:`repro.ip.multikey`), and a
  wider datapath would no longer be key-schedule-bound (§6).

The round engine is :class:`~repro.ip.core.BusCore`'s, the one the
paper's device runs: 4 (I)ByteSub cycles + 1 wide cycle, Nr × 5
cycles per block.  This core supplies only the key source: the wide
stage reads its round key from the store, and the ByteSub cycles do
no key work.
"""

from __future__ import annotations

from repro.ip.control import Variant
from repro.ip.core import _IDLE, _KEY_SETUP, BusCore, Word4
from repro.ip.keysched_unit import schedule_word
from repro.ip.sbox_unit import SubWordUnit
from repro.ip.testbench import Testbench
from repro.rtl.signal import Register
from repro.rtl.simulator import Simulator


class PrecomputedKeyCore(BusCore):
    """AES-128/192/256 encrypt/decrypt core with a round-key store."""

    key_beat: Register

    def __init__(self, simulator: Simulator, key_bits: int = 128,
                 variant: Variant = Variant.BOTH, name: str = "pk"):
        super().__init__(simulator, variant, name, key_bits)

        reg = simulator.register
        self.key_beat = reg(f"{name}_key_beat", 1)
        # The round-key store: total_words registers standing in for
        # four RAM banks (word j in bank j mod 4).
        self.keyram = [
            reg(f"{name}_keyram_{i}", 32)
            for i in range(self.total_words)
        ]
        self.expand_pos = reg(f"{name}_expand_pos", 6)
        self.key_ready = reg(f"{name}_key_ready", 1)

        if variant.can_encrypt:
            self.sbox_f = SubWordUnit(f"{name}_sbox_f")
        if variant.can_decrypt:
            self.sbox_i = SubWordUnit(f"{name}_sbox_i", inverse=True)
        # The expansion shares KStran-style S-boxes.
        self.kstran_sbox = SubWordUnit(f"{name}_kstran")

    # ------------------------------------------------------------- queries
    @property
    def expansion_cycles(self) -> int:
        """Cycles of the per-key expansion pass."""
        return self.total_words - self.nk

    @property
    def key_store_bits(self) -> int:
        """Round-key storage this design pays for."""
        return self.total_words * 32

    # ------------------------------------------------------- clocked logic
    def _load_key_beat(self, words) -> None:
        if self.nk == 4 or self.key_beat.value == 0:
            for index, word in enumerate(words[:min(4, self.nk)]):
                self.keyram[index].next = word
            if self.nk == 4:
                self._begin_expansion()
            else:
                self.key_beat.next = 1
            return
        for offset, word in enumerate(words[: self.nk - 4]):
            self.keyram[4 + offset].next = word
        self.key_beat.next = 0
        self._begin_expansion()

    def _begin_expansion(self) -> None:
        self.expand_pos.next = self.nk
        self.key_ready.next = 0
        self.top.next = _KEY_SETUP

    def _tick_key_setup(self) -> bool:
        """One word of the expansion pass into the store."""
        i = self.expand_pos.value
        self.keyram[i].next = schedule_word(
            self.kstran_sbox, i, self.nk, self.keyram[i - 1].value,
            self.keyram[i - self.nk].value,
        )
        self.counters.key_word()
        if i + 1 < self.total_words:
            self.expand_pos.next = i + 1
            return False
        self.key_ready.next = 1
        self.top.next = _IDLE
        self.counters.setup_pass_end()
        return True

    def _can_start(self, direction: int) -> bool:
        return bool(self.key_ready.value)

    # ------------------------------------------- key source: the store
    def _first_key(self) -> Word4:
        return self._round_key(0)

    def _round_key(self, r: int) -> Word4:
        if r > self.rounds:
            raise ValueError(
                f"round {r} is past the {self.rounds}-round key store")
        base = 4 * r
        return tuple(self.keyram[base + j].value for j in range(4))


class PrecomputedTestbench(Testbench):
    """The :class:`~repro.ip.testbench.Testbench` protocol on the
    precomputed-key core."""

    def __init__(self, key_bits: int = 128,
                 variant: Variant = Variant.BOTH):
        self._build(PrecomputedKeyCore, key_bits=key_bits,
                    variant=variant)
