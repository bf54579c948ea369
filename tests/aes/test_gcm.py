"""Tests for AES-GCM against the NIST SP 800-38D test cases."""

import pytest

from repro.aes.gcm import (
    _GCM_AUTH_FAILURES,
    MAX_AAD_BYTES,
    MAX_IV_BYTES,
    MAX_PLAINTEXT_BYTES,
    AuthenticationError,
    _check_lengths,
    _inc32,
    gcm_decrypt,
    gcm_encrypt,
    gf128_mul,
)
from repro.perf.engine import default_engine

# The canonical GCM validation vectors (McGrew-Viega / NIST).
K96 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV96 = bytes.fromhex("cafebabefacedbaddecaf888")
P60 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b39"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestNistVectors:
    def test_case_1_empty(self):
        ct, tag = gcm_encrypt(bytes(16), bytes(12), b"")
        assert ct == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_zero_block(self):
        ct, tag = gcm_encrypt(bytes(16), bytes(12), bytes(16))
        assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_4_with_aad(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"
        assert len(ct) == len(P60)

    def test_case_4_decrypts(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        assert gcm_decrypt(K96, IV96, ct, tag, AAD) == P60


class TestAuthentication:
    def test_tampered_ciphertext_rejected(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            gcm_decrypt(K96, IV96, bad, tag, AAD)

    def test_tampered_tag_rejected(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        bad = bytes([tag[15] ^ 0x80]) + tag[1:]
        with pytest.raises(AuthenticationError):
            gcm_decrypt(K96, IV96, ct, bytes([tag[0] ^ 1]) + tag[1:],
                        AAD)

    def test_tampered_aad_rejected(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        with pytest.raises(AuthenticationError):
            gcm_decrypt(K96, IV96, ct, tag, AAD + b"x")

    def test_wrong_key_rejected(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        with pytest.raises(AuthenticationError):
            gcm_decrypt(bytes(16), IV96, ct, tag, AAD)

    def test_empty_iv_rejected(self):
        with pytest.raises(ValueError):
            gcm_encrypt(K96, b"", P60)

    def test_short_tag_counts_one_failure(self):
        ct, tag = gcm_encrypt(K96, IV96, P60, AAD)
        before = _GCM_AUTH_FAILURES.value
        with pytest.raises(AuthenticationError):
            gcm_decrypt(K96, IV96, ct, tag[:15], AAD)
        assert _GCM_AUTH_FAILURES.value == before + 1


@pytest.mark.usefixtures("no_evp")
class TestAuthenticationComposed(TestAuthentication):
    """The same rejections on the golden composition, the only GCM
    path where no libcrypto passes its known-answer tests."""

    def test_runs_the_composition(self):
        assert not default_engine().backend.native_modes


class _Sized:
    """Length-only stand-in: huge operands without the memory."""

    def __init__(self, length):
        self._length = length

    def __len__(self):
        return self._length


class TestLengthLimits:
    """SP 800-38D operand bounds, enforced before any processing."""

    def test_constants_match_spec_bits(self):
        assert MAX_PLAINTEXT_BYTES * 8 == (1 << 39) - 256
        assert MAX_AAD_BYTES == ((1 << 64) - 1) // 8
        assert MAX_IV_BYTES == MAX_AAD_BYTES

    def test_limits_accepted_exactly(self):
        _check_lengths(MAX_PLAINTEXT_BYTES, MAX_AAD_BYTES,
                       MAX_IV_BYTES)

    @pytest.mark.parametrize("plaintext,aad,iv,match", [
        (MAX_PLAINTEXT_BYTES + 1, 0, 12, "plaintext"),
        (0, MAX_AAD_BYTES + 1, 12, "AAD"),
        (0, 0, MAX_IV_BYTES + 1, "IV"),
    ])
    def test_over_limit_rejected(self, plaintext, aad, iv, match):
        with pytest.raises(ValueError, match=match):
            _check_lengths(plaintext, aad, iv)

    def test_encrypt_rejects_oversized_before_processing(self):
        # A length-only object proves the check reads len() alone —
        # an implementation that touched the payload would TypeError.
        with pytest.raises(ValueError, match="plaintext"):
            gcm_encrypt(K96, IV96, _Sized(MAX_PLAINTEXT_BYTES + 1))

    def test_decrypt_rejects_oversized_aad(self):
        with pytest.raises(ValueError, match="AAD"):
            gcm_decrypt(K96, IV96, b"", bytes(16),
                        _Sized(MAX_AAD_BYTES + 1))

    def test_inc32_wraps_modulo_2_32(self):
        # The spec-defined wrap the length limits make unreachable.
        block = bytes(range(12)) + b"\xff\xff\xff\xff"
        assert _inc32(block) == bytes(range(12)) + bytes(4)
        assert _inc32(bytes(16)) == bytes(15) + b"\x01"


class TestNon96BitIv:
    def test_long_iv_round_trip(self):
        iv = bytes(range(60))
        ct, tag = gcm_encrypt(K96, iv, P60, AAD)
        assert gcm_decrypt(K96, iv, ct, tag, AAD) == P60

    def test_short_iv_round_trip(self):
        iv = b"\x01\x02\x03"
        ct, tag = gcm_encrypt(K96, iv, b"hello world")
        assert gcm_decrypt(K96, iv, ct, tag) == b"hello world"

    def test_iv_length_matters(self):
        a = gcm_encrypt(K96, bytes(12), P60)[0]
        b = gcm_encrypt(K96, bytes(13), P60)[0]
        assert a != b


@pytest.mark.usefixtures("no_evp")
class TestNon96BitIvComposed(TestNon96BitIv):
    """The same IVs through the composition's GHASH-derived J0."""


class TestGf128:
    def test_identity_element(self):
        # GCM bit order: the identity is x^0 = MSB-first 1000...0.
        one = 1 << 127
        for value in (1, 0xDEADBEEF, (1 << 128) - 1):
            assert gf128_mul(value, one) == value

    def test_commutative(self):
        a, b = 0x123456789ABCDEF0 << 60, 0x0FEDCBA987654321
        assert gf128_mul(a, b) == gf128_mul(b, a)

    def test_zero_annihilates(self):
        assert gf128_mul(0, 0xABC) == 0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            gf128_mul(1 << 128, 1)


class TestRoundTrips:
    def test_various_lengths(self, rng):
        key = bytes(rng.randrange(256) for _ in range(16))
        iv = bytes(rng.randrange(256) for _ in range(12))
        for length in (0, 1, 15, 16, 17, 33, 64):
            plaintext = bytes(rng.randrange(256)
                              for _ in range(length))
            ct, tag = gcm_encrypt(key, iv, plaintext)
            assert len(ct) == length
            assert gcm_decrypt(key, iv, ct, tag) == plaintext

    def test_aad_only_message(self, rng):
        key = bytes(rng.randrange(256) for _ in range(16))
        iv = bytes(rng.randrange(256) for _ in range(12))
        ct, tag = gcm_encrypt(key, iv, b"", aad=b"header only")
        assert ct == b""
        assert gcm_decrypt(key, iv, b"", tag, aad=b"header only") == b""
