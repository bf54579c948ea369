"""The 4-S-box substitution unit — the paper's central area trade.

One S-box is a 256-entry x 8-bit ROM (2048 bits).  Substituting a full
128-bit state in one clock needs 16 of them (32768 bits); the paper
instead builds a **32-bit unit with 4 S-boxes (8192 bits)** and feeds
the state through it one word per clock.  The key schedule's KStran
owns a second 4-S-box bank, bringing the encrypt device to 16384
memory bits — the figure in Table 2.

Two read disciplines are modeled:

- ``async`` — combinational read, as the Acex1K EABs provide.  This is
  what the paper shipped.
- ``sync`` — registered read (one-cycle latency), the only mode
  Cyclone block RAM supports.  The paper left "several modifications"
  for future work; :class:`~repro.ip.core.RijndaelCore` implements
  them when built with a sync unit (the round stretches to 6 cycles).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.aes.constants import INV_SBOX, SBOX, SBOX_ROM_BITS
from repro.rtl.signal import Register

#: Number of S-box ROMs in one unit (one per byte lane of a word).
LANES = 4

#: ROM bits in one 4-S-box unit.
UNIT_ROM_BITS = LANES * SBOX_ROM_BITS


class SboxRom:
    """A single 256 x 8 ROM holding one substitution table."""

    __slots__ = ("_table", "inverse")

    def __init__(self, inverse: bool = False):
        self.inverse = inverse
        self._table: Sequence[int] = INV_SBOX if inverse else SBOX

    @property
    def bits(self) -> int:
        """ROM capacity in bits (2048)."""
        return SBOX_ROM_BITS

    def read(self, address: int) -> int:
        """Asynchronous read: data is a pure function of the address."""
        if not 0 <= address <= 0xFF:
            raise ValueError(f"ROM address out of range: {address!r}")
        return self._table[address]


class SubWordUnit:
    """Four parallel S-box ROMs substituting one 32-bit word per clock.

    With ``sync_rom=False`` (Acex1K-style asynchronous EABs) the lookup
    is combinational: :meth:`lookup` returns the substituted word the
    same cycle.  With ``sync_rom=True`` the unit owns an output
    register: callers drive :meth:`clock_read` during the clocked
    phase and consume :attr:`registered_output` one cycle later.
    """

    def __init__(self, name: str, inverse: bool = False,
                 sync_rom: bool = False):
        self.name = name
        self.inverse = inverse
        self.sync_rom = sync_rom
        self._roms: Tuple[SboxRom, ...] = tuple(
            SboxRom(inverse) for _ in range(LANES)
        )
        #: Each lane's ROM read out once, its data pre-shifted into the
        #: lane's byte of the word (lane 0 = MSB): a substitution is
        #: four table reads ORed together.
        self._lanes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(rom.read(address) << 8 * (LANES - 1 - lane)
                  for address in range(256))
            for lane, rom in enumerate(self._roms)
        )
        self._out_reg = (
            Register(f"{name}_q", 32) if sync_rom else None
        )

    @property
    def rom_bits(self) -> int:
        """Total ROM bits in this unit (8192)."""
        return sum(rom.bits for rom in self._roms)

    @property
    def registers(self) -> Tuple[Register, ...]:
        """Registers this unit owns (empty for the async flavour)."""
        if self._out_reg is None:
            return ()
        return (self._out_reg,)

    def lookup(self, word: int) -> int:
        """Combinational 32-bit substitution (async ROM only)."""
        if self.sync_rom:
            raise RuntimeError(
                f"{self.name}: synchronous ROM has no combinational read; "
                "use clock_read/registered_output"
            )
        return self._substitute(word)

    def clock_read(self, word: int) -> None:
        """Present an address word to a synchronous ROM (clocked phase)."""
        if self._out_reg is None:
            raise RuntimeError(
                f"{self.name}: asynchronous ROM has no clocked read; "
                "use lookup"
            )
        self._out_reg.next = self._substitute(word)

    @property
    def registered_output(self) -> int:
        """Last clocked read's data (sync ROM only, valid next cycle)."""
        if self._out_reg is None:
            raise RuntimeError(
                f"{self.name}: asynchronous ROM has no registered output"
            )
        return self._out_reg.value

    def _substitute(self, word: int) -> int:
        if not 0 <= word <= 0xFFFFFFFF:
            raise ValueError(f"word out of range: {word!r}")
        lane0, lane1, lane2, lane3 = self._lanes
        return (lane0[word >> 24] | lane1[(word >> 16) & 0xFF]
                | lane2[(word >> 8) & 0xFF] | lane3[word & 0xFF])
