"""On-the-fly round-key generator — the paper's Round Key Function unit.

The unit owns:

- the **cipher-key latch** (K0, loaded by ``wr_key``),
- the **last-round-key latch** (K10, filled by the setup pass so
  decryption can start immediately at any later block),
- a **working register** holding the round key currently in use, and
- a **build register** accumulating the next round key one 32-bit
  word per clock — in lock-step with the ByteSub cycles, so key
  generation costs no extra time ("the key generation is slower than
  the cipher part" is the paper's §6 scaling argument: at 32 bits per
  clock the schedule exactly keeps up; a wider datapath would outrun
  it).
- its own 4-S-box :class:`~repro.ip.sbox_unit.SubWordUnit` for KStran
  (always the *forward* table, even when deciphering).

Forward stepping produces K_r from K_{r-1} in word order 0, 1, 2, 3;
reverse stepping produces K_{r-1} from K_r in word order 3, 2, 1, 0
(word 0 last because it needs KStran of the *recovered* word 3).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.aes.constants import RCON
from repro.ip.sbox_unit import SubWordUnit
from repro.rtl.signal import Register

Word4 = Tuple[int, int, int, int]

_MASK32 = 0xFFFFFFFF


def rot_word_hw(word: int) -> int:
    """Byte-rotate left — pure wiring in hardware (no logic cost)."""
    return ((word << 8) | (word >> 24)) & _MASK32


def schedule_word(sbox: SubWordUnit, i: int, nk: int, previous: int,
                  back: int) -> int:
    """FIPS-197 §5.2 expansion word w[i] from w[i-1] and w[i-Nk].

    RotWord, SubWord and Rcon when ``i mod Nk == 0``; SubWord alone
    when ``Nk == 8`` and ``i mod Nk == 4``; the result XORed with
    w[i-Nk].  SubWord reads the caller's KStran S-boxes ``sbox``.
    """
    if i % nk == 0:
        temp = sbox.lookup(rot_word_hw(previous)) ^ (RCON[i // nk] << 24)
    elif nk == 8 and i % nk == 4:
        temp = sbox.lookup(previous)
    else:
        temp = previous
    return back ^ temp


def _words(regs: List[Register]) -> Word4:
    """The values of a 4-word register bank."""
    r0, r1, r2, r3 = regs
    return (r0.value, r1.value, r2.value, r3.value)


class KeyScheduleUnit:
    """Registers + KStran S-boxes for on-the-fly round keys."""

    def __init__(self, name: str = "ksu", sync_rom: bool = False):
        self.name = name
        self.sbox = SubWordUnit(f"{name}_kstran", inverse=False,
                                sync_rom=sync_rom)
        self.key0 = [Register(f"{name}_key0_{i}", 32) for i in range(4)]
        self.key_last = [
            Register(f"{name}_keylast_{i}", 32) for i in range(4)
        ]
        self.work = [Register(f"{name}_work_{i}", 32) for i in range(4)]
        self.build = [Register(f"{name}_build_{i}", 32) for i in range(4)]

    @property
    def registers(self) -> Tuple[Register, ...]:
        """All registers this unit owns (for simulator adoption)."""
        return tuple(
            self.key0 + self.key_last + self.work + self.build
        ) + self.sbox.registers

    @property
    def rom_bits(self) -> int:
        """ROM bits in the KStran S-boxes (8192)."""
        return self.sbox.rom_bits

    # ----------------------------------------------------------- key loading
    def load_key(self, words: Word4) -> None:
        """Latch a new cipher key (the ``wr_key`` edge)."""
        for reg, word in zip(self.key0, words):
            reg.next = word

    def key0_words(self) -> Word4:
        """The latched cipher key K0."""
        return _words(self.key0)

    def key_last_words(self) -> Word4:
        """The latched last round key (valid after the setup pass)."""
        return _words(self.key_last)

    def work_words(self) -> Word4:
        """The working round key currently feeding the datapath."""
        return _words(self.work)

    def load_work(self, words: Word4) -> None:
        """Point the working register at a round key (block start)."""
        for reg, word in zip(self.work, words):
            reg.next = word

    def latch_last(self, words: Word4) -> None:
        """Store the final round key (end of the setup pass)."""
        for reg, word in zip(self.key_last, words):
            reg.next = word

    # ------------------------------------------------------ kstran (shared)
    def kstran_now(self, word: int, round_index: int) -> int:
        """Combinational KStran (paper Fig. 3): rotate, SubWord, Rcon.

        Only legal with asynchronous S-boxes; the sync-ROM variant
        splits this across :meth:`kstran_issue` / :meth:`kstran_data`.
        """
        return self.sbox.lookup(rot_word_hw(word)) ^ (
            RCON[round_index] << 24
        )

    def kstran_issue(self, word: int) -> None:
        """Present the rotated word to synchronous KStran S-boxes."""
        self.sbox.clock_read(rot_word_hw(word))

    def kstran_data(self, round_index: int) -> int:
        """Collect last cycle's synchronous KStran read, Rcon applied."""
        return self.sbox.registered_output ^ (RCON[round_index] << 24)

    # ------------------------------------------------- forward word stepping
    def forward_word(self, index: int, round_index: int,
                     kstran_value: "int | None" = None) -> int:
        """Compute word ``index`` of the next round key (combinational).

        Word 0 consumes KStran of the working key's word 3 — passed in
        explicitly when the S-box is synchronous, computed on the spot
        otherwise.  Words 1..3 XOR the previous *build* word with the
        working key word, so they must be evaluated on consecutive
        cycles after their predecessor committed.
        """
        work = self.work
        if index == 0:
            if kstran_value is None:
                kstran_value = self.kstran_now(work[3].value, round_index)
            return work[0].value ^ kstran_value
        return work[index].value ^ self.build[index - 1].value

    def step_forward(self, index: int, round_index: int,
                     kstran_value: "int | None" = None) -> int:
        """Clocked forward step: schedule build[index]; returns the value.

        On the final word (index 3) the caller typically also commits
        the completed key into the working register via
        :meth:`commit_build` so the round key is ready next cycle.
        """
        value = self.forward_word(index, round_index, kstran_value)
        self.build[index].next = value
        return value

    # ------------------------------------------------- reverse word stepping
    def reverse_word(self, slot: int, round_index: int,
                     kstran_value: "int | None" = None) -> Tuple[int, int]:
        """Compute one word of the *previous* round key.

        ``slot`` is the cycle index 0..3 within the round; the words
        come out in order 3, 2, 1, 0.  Returns ``(word_index, value)``.
        """
        work = self.work
        if slot == 0:
            return 3, work[3].value ^ work[2].value
        if slot == 1:
            return 2, work[2].value ^ work[1].value
        if slot == 2:
            return 1, work[1].value ^ work[0].value
        if slot == 3:
            recovered_w3 = self.build[3].value
            if kstran_value is None:
                kstran_value = self.kstran_now(recovered_w3, round_index)
            return 0, work[0].value ^ kstran_value
        raise ValueError(f"slot out of range: {slot}")

    def step_reverse(self, slot: int, round_index: int,
                     kstran_value: "int | None" = None) -> Tuple[int, int]:
        """Clocked reverse step: schedule the build word; returns it."""
        index, value = self.reverse_word(slot, round_index, kstran_value)
        self.build[index].next = value
        return index, value

    # ------------------------------------------------------------ committing
    def commit_build(self, final_value: int, final_index: int) -> Word4:
        """Move the completed build into the working register.

        Called on the same edge that writes the last build word, so the
        committed key combines the three latched words with the final
        combinational one.  Returns the full new round key.
        """
        words = [reg.value for reg in self.build]
        words[final_index] = final_value
        for reg, word in zip(self.work, words):
            reg.next = word
        return tuple(words)
