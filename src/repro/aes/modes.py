"""Block-cipher modes of operation over the AES-128 core.

The paper's IP is a raw block engine; any real deployment (the
"Internet Banking and other telecommunications operations" of §2) wraps
it in a mode.  These implementations exist so the example applications
exercise realistic traffic, and so the throughput benches can model a
streaming channel.  CBC/CFB feedback chains serialize blocks — exactly
the scenario where the paper's 50-cycle latency is the whole story —
while ECB/CTR allow the device's I/O overlap to hide load time.

The bulk paths of the parallelizable modes (ECB, the CTR keystream)
route through the batch engine
(:func:`repro.perf.engine.default_engine`), whose one backend, chosen
from what the host offers, agrees bit-for-bit with :class:`AES128`.

Padding: PKCS#7 helpers are provided for the byte-stream modes.
"""

from __future__ import annotations

import hmac as _hmac
from typing import TYPE_CHECKING, Iterator

from repro.aes.cipher import AES128
from repro.obs.metrics import global_registry

if TYPE_CHECKING:
    from repro.perf.backends import Buffer

BLOCK = 16

#: Mode-layer op counter: one increment per API call (not per block),
#: so the observability cost is negligible even on the chained modes.
_MODE_OPS = global_registry().counter(
    "repro_aes_mode_ops_total",
    "Mode-layer operations by mode and direction",
    labels=("mode", "op"),
)
#: Each entry point's series, bound once; it shows from the first call.
_OPS = {(mode, op): _MODE_OPS.bind(mode=mode, op=op)
        for mode, op in (("ecb", "encrypt"), ("ecb", "decrypt"),
                         ("cbc", "encrypt"), ("cbc", "decrypt"),
                         ("ctr", "keystream"), ("ctr", "xcrypt"),
                         ("cfb", "encrypt"), ("cfb", "decrypt"),
                         ("ofb", "xcrypt"))}


def pkcs7_pad(data: bytes, block: int = BLOCK) -> bytes:
    """PKCS#7 pad to a multiple of ``block`` (always adds 1..block bytes)."""
    if not 1 <= block <= 255:
        raise ValueError("block size must be 1..255")
    pad = block - (len(data) % block)
    return bytes(data) + bytes([pad]) * pad


def _ct_lt(a: int, b: int) -> int:
    """1 if ``a < b`` else 0, branch-free (operands in 0..511)."""
    return ((a - b) >> 9) & 1


def pkcs7_unpad(data: bytes, block: int = BLOCK) -> bytes:
    """Strip PKCS#7 padding, validating every pad byte.

    Constant-time in the same masked-arithmetic style as
    :func:`repro.aes.auth._double`: ``data`` is decrypted plaintext —
    secret — so the validation walks a fixed ``block`` bytes, folds
    every check (pad in 1..block, every covered byte equals the pad
    value) into one accumulator with branch-free masks, and renders a
    single verdict through ``hmac.compare_digest``.  Which byte was
    wrong, and whether the failure was range or content, is never
    separable by timing — the classic CBC padding-oracle lever.
    """
    data = bytes(data)
    if not 1 <= block <= 255:
        raise ValueError("block size must be 1..255")
    if len(data) == 0 or len(data) % block:
        raise ValueError("padded data length must be a positive multiple "
                         "of the block size")
    tail = data[len(data) - block:]
    pad = tail[block - 1]
    bad = _ct_lt(pad, 1) | _ct_lt(block, pad)
    for offset in range(block):
        byte = tail[block - 1 - offset]
        bad |= _ct_lt(offset, pad) * (byte ^ pad)
    if not _hmac.compare_digest(bytes([bad]), b"\x00"):
        raise ValueError("invalid PKCS#7 padding")
    return data[: len(data) - pad]


def _blocks(data: bytes) -> Iterator[bytes]:
    for i in range(0, len(data), BLOCK):
        yield data[i : i + BLOCK]


def _require_aligned(data: bytes, what: str) -> bytes:
    data = bytes(data)
    if len(data) % BLOCK:
        raise ValueError(f"{what} must be a multiple of {BLOCK} bytes")
    return data


def _require_iv(iv: bytes) -> bytes:
    iv = bytes(iv)
    if len(iv) != BLOCK:
        raise ValueError(f"IV must be {BLOCK} bytes")
    return iv


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _bulk_engine():
    """The process-wide batch engine (imported lazily: the perf
    package depends on this module's siblings, not vice versa)."""
    from repro.perf.engine import default_engine
    return default_engine()


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """ECB — each block independently (parallel-friendly, leaks patterns).

    Bulk path: runs on the batch engine, whose backends are verified
    bit-for-bit against :class:`AES128`.
    """
    plaintext = _require_aligned(plaintext, "plaintext")
    _OPS["ecb", "encrypt"].inc()
    return _bulk_engine().encrypt_blocks(key, plaintext)


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """ECB decryption.

    One native call where the batch engine's backend has native modes
    (libcrypto passed its known-answer tests, the inverse cipher's
    included); elsewhere the golden inverse cipher block by block,
    since every other backend is encrypt-only.
    """
    ciphertext = _require_aligned(ciphertext, "ciphertext")
    _OPS["ecb", "decrypt"].inc()
    backend = _bulk_engine().backend
    if backend.native_modes:
        return backend.decrypt_blocks(key, ciphertext)
    aes = AES128(key)
    return b"".join(aes.decrypt_block(b) for b in _blocks(ciphertext))


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CBC — chained: C_i = E(P_i xor C_{i-1}), C_0 = IV."""
    plaintext = _require_aligned(plaintext, "plaintext")
    _OPS["cbc", "encrypt"].inc()
    feedback = _require_iv(iv)
    aes = AES128(key)
    out = bytearray()
    for block in _blocks(plaintext):
        feedback = aes.encrypt_block(_xor(block, feedback))
        out.extend(feedback)
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC decryption: P_i = D(C_i) xor C_{i-1}."""
    ciphertext = _require_aligned(ciphertext, "ciphertext")
    _OPS["cbc", "decrypt"].inc()
    feedback = _require_iv(iv)
    aes = AES128(key)
    out = bytearray()
    for block in _blocks(ciphertext):
        out.extend(_xor(aes.decrypt_block(block), feedback))
        feedback = block
    return bytes(out)


def ctr_keystream(key: bytes, nonce: bytes, blocks: int) -> bytes:
    """CTR keystream: E(nonce || counter) for counter = 0..blocks-1.

    ``nonce`` is 8 bytes; the counter fills the low 8 bytes big-endian.
    """
    _OPS["ctr", "keystream"].inc()
    return _bulk_engine().keystream(key, nonce, blocks)


def ctr_xcrypt(key: bytes, nonce: bytes, data: Buffer) -> bytes:
    """CTR encrypt/decrypt (symmetric): data xor keystream.

    Works on any length — CTR is a stream mode, and notably only ever
    uses the *encrypt* direction, which is why encrypt-only devices
    (the paper's smallest variant) suffice for CTR links.  Keystream
    generation and the XOR both run on the batch engine.
    """
    _OPS["ctr", "xcrypt"].inc()
    return _bulk_engine().xcrypt_ctr(key, nonce, data)


def cfb_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """Full-block CFB: C_i = P_i xor E(C_{i-1}).  Encrypt-only core."""
    plaintext = _require_aligned(plaintext, "plaintext")
    _OPS["cfb", "encrypt"].inc()
    feedback = _require_iv(iv)
    aes = AES128(key)
    out = bytearray()
    for block in _blocks(plaintext):
        feedback = _xor(block, aes.encrypt_block(feedback))
        out.extend(feedback)
    return bytes(out)


def cfb_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Full-block CFB decryption (still uses the encrypt direction)."""
    ciphertext = _require_aligned(ciphertext, "ciphertext")
    _OPS["cfb", "decrypt"].inc()
    feedback = _require_iv(iv)
    aes = AES128(key)
    out = bytearray()
    for block in _blocks(ciphertext):
        out.extend(_xor(block, aes.encrypt_block(feedback)))
        feedback = block
    return bytes(out)


def ofb_xcrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """OFB encrypt/decrypt (symmetric): feedback = E(feedback)."""
    data = bytes(data)
    _OPS["ofb", "xcrypt"].inc()
    feedback = _require_iv(iv)
    aes = AES128(key)
    out = bytearray()
    offset = 0
    while offset < len(data):
        feedback = aes.encrypt_block(feedback)
        chunk = data[offset : offset + BLOCK]
        out.extend(_xor(chunk, feedback[: len(chunk)]))
        offset += BLOCK
    return bytes(out)
