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

The round engine is the same mixed 32/128 structure: 4 (I)ByteSub
cycles + 1 wide cycle, Nr × 5 cycles per block.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ip.control import Variant
from repro.ip.core import _IDLE, _KEY_SETUP, _RUN, DIR_ENCRYPT, BusCore
from repro.ip.datapath import (
    add_key_128,
    decrypt_mix_stage,
    encrypt_mix_stage,
)
from repro.ip.keysched_unit import schedule_word
from repro.ip.sbox_unit import SubWordUnit
from repro.ip.testbench import Testbench
from repro.rtl.simulator import Simulator


class PrecomputedKeyCore(BusCore):
    """AES-128/192/256 encrypt/decrypt core with a round-key store."""

    def __init__(self, simulator: Simulator, key_bits: int = 128,
                 variant: Variant = Variant.BOTH, name: str = "pk"):
        if key_bits not in (128, 192, 256):
            raise ValueError("key_bits must be 128, 192 or 256")
        super().__init__(simulator, variant, name)
        self.key_bits = key_bits
        self.nk = key_bits // 32
        self.rounds = self.nk + 6
        self.total_words = 4 * (self.rounds + 1)

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

        self.sbox_f: Optional[SubWordUnit] = (
            SubWordUnit(f"{name}_sbox_f")
            if variant.can_encrypt else None
        )
        self.sbox_i: Optional[SubWordUnit] = (
            SubWordUnit(f"{name}_sbox_i", inverse=True)
            if variant.can_decrypt else None
        )
        # The expansion shares KStran-style S-boxes.
        self.kstran_sbox = SubWordUnit(f"{name}_kstran")

    # ------------------------------------------------------------- queries
    @property
    def latency_cycles(self) -> int:
        return self.rounds * 5

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

    def _service_engine(self) -> bool:
        if self.wr_key.value and self.setup.value:
            return False
        top = self.top.value
        if top == _KEY_SETUP:
            return self._tick_expand()
        if top == _RUN:
            return self._tick_round()
        return True

    def _tick_expand(self) -> bool:
        i = self.expand_pos.value
        self.keyram[i].next = schedule_word(
            self.kstran_sbox, i, self.nk, self.keyram[i - 1].value,
            self.keyram[i - self.nk].value,
        )
        if i + 1 < self.total_words:
            self.expand_pos.next = i + 1
            return False
        self.key_ready.next = 1
        self.top.next = _IDLE
        return True

    # --------------------------------------------------------- data port
    def _can_start(self, direction: int) -> bool:
        return bool(self.key_ready.value)

    def _round_key(self, rnd: int) -> Tuple[int, int, int, int]:
        base = 4 * rnd
        return tuple(self.keyram[base + j].value for j in range(4))

    def _load_block(self, words, direction: int) -> None:
        if direction == DIR_ENCRYPT:
            key0 = self._round_key(0)
            for regi, word, kw in zip(self.state, words, key0):
                regi.next = word ^ kw
            self.round.next = 1
        else:
            for regi, word in zip(self.state, words):
                regi.next = word
            self.round.next = self.rounds

    # -------------------------------------------------------- round engine
    def _tick_round(self) -> bool:
        if self._active_direction() == DIR_ENCRYPT:
            return self._tick_encrypt()
        return self._tick_decrypt()

    def _tick_encrypt(self) -> bool:
        s, r = self.step.value, self.round.value
        assert self.sbox_f is not None
        if s <= 3:
            self.state[s].next = self.sbox_f.lookup(
                self.state[s].value
            )
            self.step.next = s + 1
            return False
        result = encrypt_mix_stage(
            tuple(st.value for st in self.state),
            self._round_key(r),
            last_round=(r == self.rounds),
        )
        if r == self.rounds:
            return self._finish(result)
        for regi, word in zip(self.state, result):
            regi.next = word
        self.round.next = r + 1
        self.step.next = 0
        return False

    def _tick_decrypt(self) -> bool:
        s, r = self.step.value, self.round.value
        assert self.sbox_i is not None
        if s == 0:
            result = decrypt_mix_stage(
                tuple(st.value for st in self.state),
                self._round_key(r),
                first_round=(r == self.rounds),
            )
            for regi, word in zip(self.state, result):
                regi.next = word
            self.step.next = 1
            return False
        slot = s - 1
        substituted = self.sbox_i.lookup(self.state[slot].value)
        if slot < 3:
            self.state[slot].next = substituted
            self.step.next = s + 1
            return False
        if r > 1:
            self.state[3].next = substituted
            self.round.next = r - 1
            self.step.next = 0
            return False
        full = (
            self.state[0].value,
            self.state[1].value,
            self.state[2].value,
            substituted,
        )
        return self._finish(add_key_128(full, self._round_key(0)))


class PrecomputedTestbench(Testbench):
    """The :class:`~repro.ip.testbench.Testbench` protocol on the
    precomputed-key core."""

    def __init__(self, key_bits: int = 128,
                 variant: Variant = Variant.BOTH):
        self._build(PrecomputedKeyCore, key_bits=key_bits,
                    variant=variant)
