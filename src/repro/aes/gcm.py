"""AES-GCM: authenticated encryption (NIST SP 800-38D).

The modern way the paper's "backbone communication channels" actually
deploy AES: counter-mode confidentiality plus a GHASH authentication
tag.  Two properties make GCM a natural fit for the paper's device:

- it only ever uses the **encrypt** direction (the cheapest variant);
- GHASH is multiplication in GF(2^128) — the same carry-less algebra
  as the cipher's GF(2^8), 16 bytes at a time, implemented here from
  first principles like everything else in this library.

Verified against the canonical NIST GCM test cases.  The composition
here — :class:`AES128` for H and the tag mask, GCTR on the batch
engine, a GHASH provider — is the golden reference, like the rest of
:mod:`repro.aes`, with no constant-time claims.  Where the default
engine's backend has native modes (``evp``, which ``auto`` selects
where libcrypto passes its known-answer tests), :func:`gcm_encrypt`
and :func:`gcm_decrypt` make one native seal or open call instead,
after the same length checks; the composition stays the fallback.
"""

from __future__ import annotations

import hmac as _hmac
from typing import TYPE_CHECKING, Optional, Tuple

from repro.aes.cipher import AES128
from repro.aes.ghash import default_provider as _ghash_provider
from repro.obs.metrics import global_registry

if TYPE_CHECKING:
    from repro.perf.backends import Backend, Buffer

BLOCK = 16

#: One increment per GCM API call; ``op`` is encrypt / decrypt, and
#: auth failures get their own counter so a spike is visible without
#: scraping logs.
_GCM_OPS = global_registry().counter(
    "repro_aes_gcm_ops_total",
    "GCM operations by direction",
    labels=("op",),
)
_GCM_AUTH_FAILURES = global_registry().counter(
    "repro_aes_gcm_auth_failures_total",
    "GCM tag verification failures",
)

#: GHASH reduction polynomial and the golden bitwise multiply now
#: live in :mod:`repro.aes.ghash` next to the fast providers; the
#: re-exports keep this module the public home of the primitive.
from repro.aes.ghash import _R, gf128_mul  # noqa: E402,F401


#: SP 800-38D §5.2.1.1 operand bounds.  len(P) <= 2^39 - 256 bits:
#: the plaintext may consume at most 2^32 - 2 counter blocks, so the
#: 32-bit GCTR counter can never wrap back onto J0 (tag keystream) or
#: J0 + 1 (first payload counter).  AAD and IV are bounded by their
#: 64-bit length fields in the GHASH length block / J0 derivation.
MAX_PLAINTEXT_BYTES = ((1 << 39) - 256) // 8
MAX_AAD_BYTES = ((1 << 64) - 1) // 8
MAX_IV_BYTES = ((1 << 64) - 1) // 8


class AuthenticationError(ValueError):
    """Raised when a GCM tag fails verification."""


def _check_lengths(plaintext_len: int, aad_len: int,
                   iv_len: int) -> None:
    """Enforce the SP 800-38D operand limits *before* any processing.

    Without the plaintext bound, a message longer than 2^32 - 2
    blocks silently wraps :func:`_inc32` and re-encrypts earlier
    counters — keystream reuse, the one unforgivable CTR failure.
    The check runs on lengths alone, ahead of key expansion and of
    the first counter increment.
    """
    if iv_len == 0:
        raise ValueError("GCM requires a non-empty IV")
    if iv_len > MAX_IV_BYTES:
        raise ValueError(
            f"GCM IV exceeds the SP 800-38D limit of "
            f"{MAX_IV_BYTES} bytes"
        )
    if plaintext_len > MAX_PLAINTEXT_BYTES:
        raise ValueError(
            f"GCM plaintext exceeds the SP 800-38D limit of "
            f"{MAX_PLAINTEXT_BYTES} bytes (2^39 - 256 bits); "
            f"longer messages would wrap the 32-bit counter and "
            f"reuse keystream"
        )
    if aad_len > MAX_AAD_BYTES:
        raise ValueError(
            f"GCM AAD exceeds the SP 800-38D limit of "
            f"{MAX_AAD_BYTES} bytes"
        )


def _ghash(h: int, data: bytes) -> int:
    """Golden table-free GHASH; the providers in
    :mod:`repro.aes.ghash` are cross-checked against it."""
    y = 0
    for index in range(0, len(data), BLOCK):
        chunk = data[index:index + BLOCK]
        chunk = chunk + bytes(BLOCK - len(chunk))
        y = gf128_mul(y ^ int.from_bytes(chunk, "big"), h)
    return y


def _inc32(block: bytes) -> bytes:
    """inc32 of SP 800-38D §6.2: the low 4 bytes wrap modulo 2^32.

    The wrap is what the spec defines, but a wrapped counter repeats
    keystream — so :func:`_check_lengths` bounds every message to at
    most 2^32 - 2 payload blocks, making the wrap unreachable from
    the GCM entry points.
    """
    head, counter = block[:12], int.from_bytes(block[12:], "big")
    return head + ((counter + 1) & 0xFFFFFFFF).to_bytes(4, "big")


def _gctr(aes: AES128, icb: bytes, data: bytes) -> bytes:
    out = bytearray()
    counter = icb
    for index in range(0, len(data), BLOCK):
        chunk = data[index:index + BLOCK]
        stream = aes.encrypt_block(counter)
        out.extend(c ^ s for c, s in zip(chunk, stream))
        counter = _inc32(counter)
    return bytes(out)


def _gctr_bulk(key: bytes, icb: bytes, data: bytes) -> bytes:
    """GCTR for the payload, on the batch engine.

    Bit-for-bit the serial :func:`_gctr` (the engine's backends are
    cross-checked against the straightforward model); the serial form
    stays for the single-block tag path and as the golden reference.
    """
    from repro.perf.engine import default_engine
    return default_engine().gctr(key, icb, data)


def _derive(aes: AES128, iv: bytes, h: int) -> bytes:
    """J0, the pre-counter block (SP 800-38D §7.1)."""
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    lengths = bytes(8) + (8 * len(iv)).to_bytes(8, "big")
    s = _ghash_provider().digest(h, (iv, lengths))
    return s.to_bytes(16, "big")


def _lengths_block(aad: bytes, ciphertext: bytes) -> bytes:
    return (8 * len(aad)).to_bytes(8, "big") + \
        (8 * len(ciphertext)).to_bytes(8, "big")


def _tag(aes: AES128, h: int, j0: bytes, aad: bytes,
         ciphertext: bytes) -> bytes:
    # Each part is padded to the block boundary by the provider
    # (tail block only) — no fully padded concatenation is built.
    s = _ghash_provider().digest(
        h, (aad, ciphertext, _lengths_block(aad, ciphertext)))
    return _gctr(aes, j0, s.to_bytes(16, "big"))


def _native_backend(iv: bytes) -> Optional[Backend]:
    """The default engine's backend when it seals and opens GCM with
    this (non-empty) IV natively, else ``None``; a backend without
    native modes takes IVs of at most 0 bytes."""
    from repro.perf.engine import default_engine
    backend = default_engine().backend
    return backend if len(iv) <= backend.max_gcm_iv_bytes else None


def _seal(key: bytes, iv: bytes, plaintext: bytes,
          aad: bytes) -> Tuple[bytes, bytes]:
    """The golden composition: AES128 + GCTR + GHASH."""
    aes = AES128(key)
    h = int.from_bytes(aes.encrypt_block(bytes(16)), "big")
    j0 = _derive(aes, iv, h)
    ciphertext = _gctr_bulk(key, _inc32(j0), plaintext)
    return ciphertext, _tag(aes, h, j0, aad, ciphertext)


def _open(key: bytes, iv: bytes, ciphertext: bytes, tag: bytes,
          aad: bytes) -> Optional[bytes]:
    """The golden composition's open; ``None`` on a bad tag, before
    any plaintext exists."""
    aes = AES128(key)
    h = int.from_bytes(aes.encrypt_block(bytes(16)), "big")
    j0 = _derive(aes, iv, h)
    expected = _tag(aes, h, j0, aad, ciphertext)
    if not _hmac.compare_digest(expected, tag):
        return None
    return _gctr_bulk(key, _inc32(j0), ciphertext)


def gcm_encrypt(key: bytes, iv: bytes, plaintext: Buffer,
                aad: bytes = b"") -> Tuple[bytes, bytes]:
    """Encrypt and authenticate; returns (ciphertext, 16-byte tag).

    ``plaintext`` may be a ``memoryview``: the native seal allocates no
    copy of it.
    """
    _check_lengths(len(plaintext), len(aad), len(iv))
    _GCM_OPS.labels(op="encrypt").inc()
    key, iv, aad = bytes(key), bytes(iv), bytes(aad)
    native = _native_backend(iv)
    if native is not None:
        return native.gcm_seal(key, iv, aad, plaintext)
    return _seal(key, iv, bytes(plaintext), aad)


def gcm_decrypt(key: bytes, iv: bytes, ciphertext: Buffer, tag: bytes,
                aad: bytes = b"") -> bytes:
    """Verify and decrypt; raises :class:`AuthenticationError` on a
    bad tag (and releases no plaintext in that case).

    ``ciphertext`` may be a ``memoryview``: the native open allocates
    no copy of it.
    """
    _check_lengths(len(ciphertext), len(aad), len(iv))
    _GCM_OPS.labels(op="decrypt").inc()
    key, iv, tag, aad = bytes(key), bytes(iv), bytes(tag), bytes(aad)
    native = _native_backend(iv)
    if native is None:
        plaintext = _open(key, iv, bytes(ciphertext), tag, aad)
    else:
        plaintext = native.gcm_open(key, iv, aad, ciphertext, tag)
    if plaintext is None:
        _GCM_AUTH_FAILURES.inc()
        raise AuthenticationError("GCM tag verification failed")
    return plaintext
