"""Tests for the 128-bit combinational stage.

These cross-check the hardware datapath functions against the
*independent* behavioral implementation in repro.aes.transforms — the
two were written against the spec separately, so agreement here is a
real check, not a tautology.
"""

import random

import pytest

from repro.aes.state import State
from repro.aes.transforms import (
    inv_mix_columns,
    inv_shift_rows,
    mix_columns,
    shift_rows,
)
from repro.ip import datapath
from repro.ip.datapath import (
    _xt,
    add_key_128,
    block_to_words,
    decrypt_mix_stage,
    encrypt_mix_stage,
    int_to_words,
    inv_mix_column_word,
    inv_mix_columns_128,
    inv_shift_rows_128,
    mix_column_word,
    mix_columns_128,
    shift_rows_128,
    words_to_block,
    words_to_int,
)


def behavioral(fn, block: bytes) -> bytes:
    return fn(State(block)).to_bytes()


BLOCKS = [
    bytes(range(16)),
    bytes.fromhex("d4bf5d30e0b452aeb84111f11e2798e5"),
    bytes.fromhex("00112233445566778899aabbccddeeff"),
    bytes(16),
    bytes([0xFF] * 16),
]


class TestPacking:
    def test_block_words_round_trip(self):
        block = bytes(range(16))
        assert words_to_block(block_to_words(block)) == block

    def test_word_zero_is_first_column(self):
        words = block_to_words(bytes(range(16)))
        assert words[0] == 0x00010203

    def test_int_packing_round_trip(self):
        words = (0xDEADBEEF, 0x00C0FFEE, 0x12345678, 0x9ABCDEF0)
        assert int_to_words(words_to_int(words)) == words

    def test_int_matches_big_endian_bytes(self):
        block = bytes(range(16))
        assert words_to_int(block_to_words(block)) == \
            int.from_bytes(block, "big")

    def test_block_length_checked(self):
        with pytest.raises(ValueError):
            block_to_words(bytes(15))

    def test_int_range_checked(self):
        with pytest.raises(ValueError):
            int_to_words(1 << 128)

    def test_word_range_checked(self):
        with pytest.raises(ValueError):
            words_to_block((1 << 32, 0, 0, 0))


class TestAgainstBehavioralModel:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_shift_rows(self, block):
        hw = words_to_block(shift_rows_128(block_to_words(block)))
        assert hw == behavioral(shift_rows, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_inv_shift_rows(self, block):
        hw = words_to_block(inv_shift_rows_128(block_to_words(block)))
        assert hw == behavioral(inv_shift_rows, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_mix_columns(self, block):
        hw = words_to_block(mix_columns_128(block_to_words(block)))
        assert hw == behavioral(mix_columns, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_inv_mix_columns(self, block):
        hw = words_to_block(inv_mix_columns_128(block_to_words(block)))
        assert hw == behavioral(inv_mix_columns, block)


class TestInvariants:
    def test_shift_rows_inverse(self):
        words = block_to_words(bytes(range(16)))
        assert inv_shift_rows_128(shift_rows_128(words)) == words

    def test_mix_columns_inverse(self):
        words = block_to_words(bytes(range(16)))
        assert inv_mix_columns_128(mix_columns_128(words)) == words

    def test_add_key_involution(self):
        words = block_to_words(bytes(range(16)))
        key = block_to_words(bytes(reversed(range(16))))
        assert add_key_128(add_key_128(words, key), key) == words

    def test_mix_column_word_fips(self):
        assert mix_column_word(0xDB135345) == 0x8E4DA1BC

    def test_word_count_checked(self):
        with pytest.raises(ValueError):
            mix_columns_128((1, 2, 3))


class TestMixStages:
    def test_encrypt_stage_composition(self, fips_key):
        words = block_to_words(bytes(range(16)))
        key = block_to_words(fips_key)
        expected = add_key_128(
            mix_columns_128(shift_rows_128(words)), key
        )
        assert encrypt_mix_stage(words, key, last_round=False) == expected

    def test_encrypt_stage_last_round_skips_mix(self, fips_key):
        words = block_to_words(bytes(range(16)))
        key = block_to_words(fips_key)
        expected = add_key_128(shift_rows_128(words), key)
        assert encrypt_mix_stage(words, key, last_round=True) == expected

    def test_decrypt_stage_inverts_encrypt_stage(self, fips_key):
        words = block_to_words(bytes(range(16)))
        key = block_to_words(fips_key)
        for last in (False, True):
            forward = encrypt_mix_stage(words, key, last_round=last)
            # The decrypt stage applies AK, IMC, ISR — the inverse of
            # (SR, MC, AK) is (AK, IMC, ISR) followed by IByteSub-less
            # undo of SR... verify the exact algebra instead:
            undone = decrypt_mix_stage(forward, key, first_round=last)
            # decrypt_mix_stage(AK(MC(SR(x)))) = ISR(IMC(MC(SR(x)))) =
            # ISR(SR(x)) = x.
            assert undone == words


def shift_and_add(b: int, c: int) -> int:
    """b·c in GF(2^8), one xtime per bit of ``c``."""
    out = 0
    while c:
        if c & 1:
            out ^= b
        b = _xt(b)
        c >>= 1
    return out


def xtime_column(word: int, row0: tuple) -> int:
    """One column times the circulant matrix whose first row is
    ``row0``, by shift-and-add products."""
    column = [(word >> (8 * (3 - row))) & 0xFF for row in range(4)]
    out = 0
    for row in range(4):
        byte = 0
        for col in range(4):
            byte ^= shift_and_add(column[col], row0[(col - row) % 4])
        out = (out << 8) | byte
    return out


class TestProductTables:
    """The (I)Mix Column lookup tables against xtime arithmetic."""

    @pytest.mark.parametrize("name, constant", [
        ("_MUL2", 0x02), ("_MUL3", 0x03), ("_MUL4", 0x04),
        ("_MUL8", 0x08), ("_MUL9", 0x09), ("_MULB", 0x0B),
        ("_MULD", 0x0D), ("_MULE", 0x0E),
    ])
    def test_every_byte(self, name, constant):
        table = getattr(datapath, name)
        assert list(table) == [
            shift_and_add(b, constant) for b in range(256)
        ]

    @staticmethod
    def column_words() -> list:
        """The 32 unit vectors plus a seeded sample."""
        rng = random.Random(14)
        return [1 << j for j in range(32)] + [
            rng.getrandbits(32) for _ in range(256)
        ]

    def test_mix_column_word_matches_xtime_chains(self):
        for word in self.column_words():
            assert mix_column_word(word) == \
                xtime_column(word, (0x02, 0x03, 0x01, 0x01))

    def test_inv_mix_column_word_matches_xtime_chains(self):
        for word in self.column_words():
            assert inv_mix_column_word(word) == \
                xtime_column(word, (0x0E, 0x0B, 0x0D, 0x09))
