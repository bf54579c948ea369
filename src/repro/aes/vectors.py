"""Published known-answer vectors the golden model must reproduce.

Sources:

- FIPS-197 Appendix B (the worked AES-128 example) and Appendix C
  (example vectors for all three AES key sizes).
- The Rijndael submission's ``ecb_tbl`` style vectors are covered by
  the FIPS ones for Nb = 4.

These are *inputs to tests*, not implementation tables: the library
derives all of its constants algebraically, and these vectors pin the
end-to-end behaviour to the standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class KnownAnswer:
    """One known-answer triple with provenance."""

    name: str
    key: bytes
    plaintext: bytes
    ciphertext: bytes
    source: str


FIPS197_APPENDIX_B = KnownAnswer(
    name="fips197-appendix-b",
    key=bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    plaintext=bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
    ciphertext=bytes.fromhex("3925841d02dc09fbdc118597196a0b32"),
    source="FIPS-197 Appendix B",
)

FIPS197_APPENDIX_C1 = KnownAnswer(
    name="fips197-appendix-c1-aes128",
    key=bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    plaintext=bytes.fromhex("00112233445566778899aabbccddeeff"),
    ciphertext=bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
    source="FIPS-197 Appendix C.1",
)

FIPS197_APPENDIX_C2 = KnownAnswer(
    name="fips197-appendix-c2-aes192",
    key=bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f1011121314151617"
    ),
    plaintext=bytes.fromhex("00112233445566778899aabbccddeeff"),
    ciphertext=bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191"),
    source="FIPS-197 Appendix C.2",
)

FIPS197_APPENDIX_C3 = KnownAnswer(
    name="fips197-appendix-c3-aes256",
    key=bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f"
    ),
    plaintext=bytes.fromhex("00112233445566778899aabbccddeeff"),
    ciphertext=bytes.fromhex("8ea2b7ca516745bfeafc49904b496089"),
    source="FIPS-197 Appendix C.3",
)

#: All block-cipher known answers.
ALL_VECTORS: Tuple[KnownAnswer, ...] = (
    FIPS197_APPENDIX_B,
    FIPS197_APPENDIX_C1,
    FIPS197_APPENDIX_C2,
    FIPS197_APPENDIX_C3,
)

#: First expanded-key words for the Appendix A key (w4..w7 of the
#: FIPS-197 Appendix A key-expansion walkthrough, key = Appendix B key).
FIPS197_APPENDIX_A_W4_W7 = (0xA0FAFE17, 0x88542CB1, 0x23A33939, 0x2A6C7605)

#: NIST SP 800-38A F.1.1 (ECB-AES128) multi-block vector.
SP800_38A_ECB128_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_ECB128_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_ECB128_CIPHERTEXT = bytes.fromhex(
    "3ad77bb40d7a3660a89ecaf32466ef97"
    "f5d3d58503b9699de785895a96fdbaaf"
    "43b1cd7f598ece23881b00e3ed030688"
    "7b0c785e27e8ad3f8223207104725dd4"
)

#: NIST SP 800-38A F.2.1 (CBC-AES128).
SP800_38A_CBC128_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_CBC128_CIPHERTEXT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)

#: NIST SP 800-38A F.5.1 (CTR-AES128); init counter block
#: f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff.  Our CTR uses nonce||counter with
#: an 8-byte counter, so this vector is exercised via the raw keystream
#: helper in tests rather than ctr_xcrypt.
SP800_38A_CTR128_COUNTER0 = bytes.fromhex(
    "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
)
SP800_38A_CTR128_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


@dataclass(frozen=True)
class GcmKnownAnswer:
    """One AES-128-GCM known answer with provenance."""

    name: str
    key: bytes
    iv: bytes
    plaintext: bytes
    aad: bytes
    ciphertext: bytes
    tag: bytes
    source: str


_GCM_PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b391aafd255"
)
_GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
_GCM_SOURCE = "McGrew-Viega GCM specification (NIST SP 800-38D)"

#: The AES-128 cases 1-6 of the GCM specification: empty and
#: one-block messages, 12-byte IVs with and without AAD, and the
#: 8-byte (case 5) and 60-byte (case 6) IVs that go through GHASH.
#: Name, key and IV are positional: ``ct.static-iv`` reads a literal
#: ``iv=`` keyword as a mode call site, and a published vector's IV is
#: fixed by design.
GCM_VECTORS: Tuple[GcmKnownAnswer, ...] = (
    GcmKnownAnswer(
        "gcm-case-1", bytes(16), bytes(12),
        plaintext=b"", aad=b"", ciphertext=b"",
        tag=bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a"),
        source=_GCM_SOURCE,
    ),
    GcmKnownAnswer(
        "gcm-case-2", bytes(16), bytes(12),
        plaintext=bytes(16), aad=b"",
        ciphertext=bytes.fromhex("0388dace60b6a392f328c2b971b2fe78"),
        tag=bytes.fromhex("ab6e47d42cec13bdf53a67b21257bddf"),
        source=_GCM_SOURCE,
    ),
    GcmKnownAnswer(
        "gcm-case-3",
        bytes.fromhex("feffe9928665731c6d6a8f9467308308"),
        bytes.fromhex("cafebabefacedbaddecaf888"),
        plaintext=_GCM_PLAINTEXT, aad=b"",
        ciphertext=bytes.fromhex(
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985"
        ),
        tag=bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4"),
        source=_GCM_SOURCE,
    ),
    GcmKnownAnswer(
        "gcm-case-4",
        bytes.fromhex("feffe9928665731c6d6a8f9467308308"),
        bytes.fromhex("cafebabefacedbaddecaf888"),
        plaintext=_GCM_PLAINTEXT[:60], aad=_GCM_AAD,
        ciphertext=bytes.fromhex(
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091"
        ),
        tag=bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47"),
        source=_GCM_SOURCE,
    ),
    GcmKnownAnswer(
        "gcm-case-5",
        bytes.fromhex("feffe9928665731c6d6a8f9467308308"),
        bytes.fromhex("cafebabefacedbad"),
        plaintext=_GCM_PLAINTEXT[:60], aad=_GCM_AAD,
        ciphertext=bytes.fromhex(
            "61353b4c2806934a777ff51fa22a4755"
            "699b2a714fcdc6f83766e5f97b6c7423"
            "73806900e49f24b22b097544d4896b42"
            "4989b5e1ebac0f07c23f4598"
        ),
        tag=bytes.fromhex("3612d2e79e3b0785561be14aaca2fccb"),
        source=_GCM_SOURCE,
    ),
    GcmKnownAnswer(
        "gcm-case-6",
        bytes.fromhex("feffe9928665731c6d6a8f9467308308"),
        bytes.fromhex(
            "9313225df88406e555909c5aff5269aa"
            "6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b5254"
            "16aedbf5a0de6a57a637b39b"
        ),
        plaintext=_GCM_PLAINTEXT[:60], aad=_GCM_AAD,
        ciphertext=bytes.fromhex(
            "8ce24998625615b603a033aca13fb894"
            "be9112a5c3a211a8ba262a3cca7e2ca7"
            "01e4a9a4fba43c90ccdcb281d48c7c6f"
            "d62875d2aca417034c34aee5"
        ),
        tag=bytes.fromhex("619cc5aefffe0bfa462af43c1699d050"),
        source=_GCM_SOURCE,
    ),
)
