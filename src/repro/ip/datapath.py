"""The 128-bit combinational stage: (I)Shift Row, (I)Mix Column, Add Key.

These are the paper's full-width functions — executed in a single
clock to bring the round down from 12 cycles (an all-32-bit design) to
5.  They are implemented here at the word/bit level, independently of
the behavioral model in :mod:`repro.aes.transforms`, so that the
cycle-accurate core's agreement with the golden model is a genuine
cross-check rather than a tautology.  The (I)Mix Column constant
multipliers are 256-entry tables built at import from this module's
own xtime (:func:`_xt`), never from :mod:`repro.aes`, so they stay
independent of the golden model too.

State packing convention (shared with the bus interface): the 128-bit
block is 4 words; word *c* is State column *c*; byte 0 of the block is
the **most significant** byte of word 0 and sits at State row 0,
column 0.  Round-key words use the same packing (FIPS-197 agrees).
"""

from __future__ import annotations

from typing import Tuple

Word4 = Tuple[int, int, int, int]

_MASK32 = 0xFFFFFFFF

#: AES (Nb = 4) Shift Row offsets per row (paper Fig. 6).
SHIFT_OFFSETS = (0, 1, 2, 3)


def _check_words(words: Word4) -> Word4:
    if len(words) != 4:
        raise ValueError("the 128-bit stage takes exactly 4 words")
    for w in words:
        if not 0 <= w <= _MASK32:
            raise ValueError(f"word out of range: {w!r}")
    return tuple(words)


#: Byte lanes of State rows 0..3 within a column word (row 0 = MSB).
_ROW0, _ROW1, _ROW2, _ROW3 = 0xFF000000, 0xFF0000, 0xFF00, 0xFF


def shift_rows_128(words: Word4) -> Word4:
    """Shift Row over the whole state in one level of pure wiring.

    new(row, col) = old(row, col + offset[row] mod 4), with the
    offsets 0, 1, 2, 3 of :data:`SHIFT_OFFSETS` applied as row masks.
    Costs no logic cells at all — the mapper models it as routing only.
    """
    w0, w1, w2, w3 = _check_words(words)
    return (
        (w0 & _ROW0) | (w1 & _ROW1) | (w2 & _ROW2) | (w3 & _ROW3),
        (w1 & _ROW0) | (w2 & _ROW1) | (w3 & _ROW2) | (w0 & _ROW3),
        (w2 & _ROW0) | (w3 & _ROW1) | (w0 & _ROW2) | (w1 & _ROW3),
        (w3 & _ROW0) | (w0 & _ROW1) | (w1 & _ROW2) | (w2 & _ROW3),
    )


def inv_shift_rows_128(words: Word4) -> Word4:
    """IShift Row: new(row, col) = old(row, col - offset[row] mod 4)."""
    w0, w1, w2, w3 = _check_words(words)
    return (
        (w0 & _ROW0) | (w3 & _ROW1) | (w2 & _ROW2) | (w1 & _ROW3),
        (w1 & _ROW0) | (w0 & _ROW1) | (w3 & _ROW2) | (w2 & _ROW3),
        (w2 & _ROW0) | (w1 & _ROW1) | (w0 & _ROW2) | (w3 & _ROW3),
        (w3 & _ROW0) | (w2 & _ROW1) | (w1 & _ROW2) | (w0 & _ROW3),
    )


def _xt(b: int) -> int:
    """xtime: one conditional-XOR logic level in hardware."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


# The constant multipliers as 256-entry product tables, built by
# shift-and-add over the xtime above (×4 = xt², ×8 = xt³).
_MUL2 = tuple(_xt(b) for b in range(256))
_MUL4 = tuple(_MUL2[b] for b in _MUL2)
_MUL8 = tuple(_MUL2[b] for b in _MUL4)
_MUL3 = tuple(b ^ _MUL2[b] for b in range(256))
_MUL9 = tuple(b ^ _MUL8[b] for b in range(256))
_MULB = tuple(b ^ _MUL2[b] ^ _MUL8[b] for b in range(256))
_MULD = tuple(b ^ _MUL4[b] ^ _MUL8[b] for b in range(256))
_MULE = tuple(_MUL2[b] ^ _MUL4[b] ^ _MUL8[b] for b in range(256))


def mix_column_word(word: int) -> int:
    """Mix Column on one column word: multiply by 03·x^3+01·x^2+01·x+02.

    In hardware each output byte is 1 xtime level plus a 4-input XOR
    (2 levels); the model looks each ×2/×3 product up in its table.
    Rows 0..3 are the word's bytes from the MSB down.
    """
    b0, b1, b2, b3 = ((word >> 24) & 0xFF, (word >> 16) & 0xFF,
                      (word >> 8) & 0xFF, word & 0xFF)
    return ((_MUL2[b0] ^ _MUL3[b1] ^ b2 ^ b3) << 24
            | (b0 ^ _MUL2[b1] ^ _MUL3[b2] ^ b3) << 16
            | (b0 ^ b1 ^ _MUL2[b2] ^ _MUL3[b3]) << 8
            | (_MUL3[b0] ^ b1 ^ b2 ^ _MUL2[b3]))


def inv_mix_column_word(word: int) -> int:
    """IMix Column on one column word: multiply by 0B,0D,09,0E.

    In hardware the xtime chains run three deep (×8 = xt³), which is
    why the decrypt datapath is the slower one — Table 2 shows 15 ns
    vs 14 ns on Acex1K — and the timing model charges it accordingly;
    the model looks each product up in its table.
    """
    b0, b1, b2, b3 = ((word >> 24) & 0xFF, (word >> 16) & 0xFF,
                      (word >> 8) & 0xFF, word & 0xFF)
    return ((_MULE[b0] ^ _MULB[b1] ^ _MULD[b2] ^ _MUL9[b3]) << 24
            | (_MUL9[b0] ^ _MULE[b1] ^ _MULB[b2] ^ _MULD[b3]) << 16
            | (_MULD[b0] ^ _MUL9[b1] ^ _MULE[b2] ^ _MULB[b3]) << 8
            | (_MULB[b0] ^ _MULD[b1] ^ _MUL9[b2] ^ _MULE[b3]))


def mix_columns_128(words: Word4) -> Word4:
    """Mix Column over all four columns (columns are independent)."""
    w0, w1, w2, w3 = _check_words(words)
    return (mix_column_word(w0), mix_column_word(w1),
            mix_column_word(w2), mix_column_word(w3))


def inv_mix_columns_128(words: Word4) -> Word4:
    """IMix Column over all four columns."""
    w0, w1, w2, w3 = _check_words(words)
    return (inv_mix_column_word(w0), inv_mix_column_word(w1),
            inv_mix_column_word(w2), inv_mix_column_word(w3))


def add_key_128(words: Word4, key_words: Word4) -> Word4:
    """Add Key: 128 parallel 2-input XORs (one logic level)."""
    w0, w1, w2, w3 = _check_words(words)
    k0, k1, k2, k3 = _check_words(key_words)
    return (w0 ^ k0, w1 ^ k1, w2 ^ k2, w3 ^ k3)


def encrypt_mix_stage(
    words: Word4, key_words: Word4, last_round: bool
) -> Word4:
    """The encrypt M-cycle network: AddKey(MixColumn(ShiftRow(state))).

    ``last_round`` bypasses Mix Column (paper §3: the last encryption
    round does not execute Mix Column); in hardware this is a 2:1 mux
    per bit, which the BOTH variant's timing pays for.
    """
    shifted = shift_rows_128(words)
    mixed = shifted if last_round else mix_columns_128(shifted)
    return add_key_128(mixed, key_words)


def decrypt_mix_stage(
    words: Word4, key_words: Word4, first_round: bool
) -> Word4:
    """The decrypt M-cycle network: IShiftRow(IMixColumn(AddKey(state))).

    ``first_round`` (round Nr, the first executed when deciphering)
    bypasses IMix Column.
    """
    keyed = add_key_128(words, key_words)
    mixed = keyed if first_round else inv_mix_columns_128(keyed)
    return inv_shift_rows_128(mixed)


def block_to_words(block: bytes) -> Word4:
    """Split a 16-byte bus block into 4 column words (byte 0 = MSB w0)."""
    block = bytes(block)
    if len(block) != 16:
        raise ValueError(f"block must be 16 bytes, got {len(block)}")
    return tuple(
        int.from_bytes(block[4 * i : 4 * i + 4], "big") for i in range(4)
    )


def words_to_block(words: Word4) -> bytes:
    """Pack 4 column words back into the 16-byte bus block."""
    words = _check_words(words)
    return b"".join(w.to_bytes(4, "big") for w in words)


def words_to_int(words: Word4) -> int:
    """Pack 4 words into one 128-bit integer (word 0 most significant).

    This is the value carried by the 128-bit ``din``/``dout`` signals.
    """
    words = _check_words(words)
    return (words[0] << 96) | (words[1] << 64) | (words[2] << 32) | words[3]


def int_to_words(value: int) -> Word4:
    """Split a 128-bit bus integer into 4 column words."""
    if not 0 <= value < (1 << 128):
        raise ValueError(f"bus value out of range: {value!r}")
    return (
        (value >> 96) & _MASK32,
        (value >> 64) & _MASK32,
        (value >> 32) & _MASK32,
        value & _MASK32,
    )
