"""Equivalence gate: the host's backends and its GHASH against the
golden model, bit for bit.

This is the harness behind ``repro-aes bench``.  :func:`cross_check`
runs the batch primitives (ECB, CTR with a partial tail, GCTR across
the 32-bit counter wrap) of every backend this host runs —
:func:`host_backends`: ``sliced`` everywhere, plus ``evp`` where
libcrypto passed its known-answer tests — against serial loops over
:class:`repro.aes.cipher.AES128`; :func:`cross_check_ghash` runs the
process's GHASH against the golden ``_ghash`` over lengths on both
sides of its lane threshold.  A fast wrong answer is worthless: a
divergence raises :class:`~repro.perf.engine.BackendMismatch`, and the
command exits 1, which is what the CI equivalence step keys off.

Timing lives in ``bench/run.py`` (see ``bench/README.md``): repeated
segments, an oracle check on every reply and a noise-aware compare.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.aes.cipher import AES128
from repro.aes.vectors import SP800_38A_ECB128_KEY
from repro.perf.backends import Backend, SlicedBackend
from repro.perf.engine import BackendMismatch, BatchEngine
from repro.perf.evp import EvpBackend, have_evp

BLOCK = 16

#: Seed for every corpus this gate generates: pinned, so a failure
#: reproduces.
_SEED = 2003


# ------------------------------------------------------- golden model
def _serial_ecb(key: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + BLOCK])
                    for i in range(0, len(data), BLOCK))


def _serial_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (index // BLOCK).to_bytes(8, "big")
        stream = aes.encrypt_block(nonce + counter)
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


def _serial_gctr(key: bytes, icb: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    head, start = icb[:12], int.from_bytes(icb[12:], "big")
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (start + index // BLOCK) & 0xFFFFFFFF
        stream = aes.encrypt_block(head + counter.to_bytes(4, "big"))
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


# --------------------------------------------------- equivalence gate
def host_backends() -> List[Backend]:
    """Every backend this host runs: ``sliced``, which the process's
    engine falls back to, and ``evp`` where a libcrypto passed its
    known-answer tests (the engine then runs it)."""
    backends: List[Backend] = [SlicedBackend()]
    if have_evp():
        backends.append(EvpBackend())
    return backends


def cross_check(backends: Optional[Sequence[Backend]] = None,
                corpus_blocks: int = 48,
                seed: int = _SEED) -> Dict[str, object]:
    """Verify ``backends`` (default: :func:`host_backends`) against
    the straightforward model.

    Raises :class:`BackendMismatch` naming the first divergent
    (backend, primitive) pair; returns the summary ``repro-aes bench``
    prints when everything agrees.
    """
    if backends is None:
        backends = host_backends()
    rng = random.Random(seed)
    keys = [SP800_38A_ECB128_KEY,
            bytes(rng.randrange(256) for _ in range(16))]
    aligned = rng.randbytes(corpus_blocks * BLOCK)
    ragged = rng.randbytes(corpus_blocks * BLOCK - 7)
    nonce = rng.randbytes(8)
    # An ICB 2 blocks short of the 32-bit wrap: the corpus crosses it.
    icb = rng.randbytes(12) + (0xFFFFFFFE).to_bytes(4, "big")

    primitives: Dict[
        str, Callable[[BatchEngine, bytes], Sequence[bytes]]
    ] = {
        "ecb": lambda eng, key: (eng.encrypt_blocks(key, aligned),
                                 _serial_ecb(key, aligned)),
        "ctr": lambda eng, key: (eng.xcrypt_ctr(key, nonce, ragged),
                                 _serial_ctr(key, nonce, ragged)),
        "gctr": lambda eng, key: (eng.gctr(key, icb, ragged),
                                  _serial_gctr(key, icb, ragged)),
    }
    for backend in backends:
        engine = BatchEngine(backend)
        for primitive, run in primitives.items():
            for key in keys:
                got, want = run(engine, key)
                if got != want:
                    raise BackendMismatch(
                        f"backend {backend.name!r} diverges from the "
                        f"straightforward model on {primitive} "
                        f"(corpus {corpus_blocks} blocks, "
                        f"seed {seed})"
                    )
    return {
        "backends": sorted(backend.name for backend in backends),
        "primitives": sorted(primitives),
        "corpus_blocks": corpus_blocks,
        "keys": len(keys),
        "mismatches": 0,
    }


def cross_check_ghash(seed: int = _SEED) -> Dict[str, object]:
    """Verify the process's GHASH against the golden ``_ghash``.

    The corpus sweeps message lengths 0..3 blocks ± 1 byte, a
    multi-part split (GCM's AAD/ciphertext/lengths layout), and a
    buffer long enough to cross the lane threshold, so both folds run
    where numpy imports.  Raises :class:`BackendMismatch` on the first
    divergence; returns the summary ``repro-aes bench`` prints.
    """
    from repro.aes import ghash as ghash_mod
    from repro.aes.gcm import _ghash as golden

    digest = ghash_mod.default_provider().digest
    rng = random.Random(seed)
    subkeys = [rng.getrandbits(128) for _ in range(2)]
    lengths = sorted({
        max(0, n * BLOCK + d)
        for n in range(4) for d in (-1, 0, 1)
    } | {2 * ghash_mod.VECTOR_LANES * BLOCK + 5})
    cases = 0
    for subkey in subkeys:
        for length in lengths:
            data = rng.randbytes(length)
            want = golden(
                data=data + bytes((-length) % BLOCK), h=subkey)
            split = rng.randrange(length + 1)
            layouts = [(data,), (data[:split], data[split:])]
            for parts in layouts:
                padded = b"".join(
                    p + bytes((-len(p)) % BLOCK) for p in parts)
                expect = golden(subkey, padded) \
                    if len(parts) > 1 else want
                cases += 1
                if digest(subkey, parts) != expect:
                    raise BackendMismatch(
                        f"ghash diverges from the golden _ghash on a "
                        f"{length}-byte message split "
                        f"{tuple(len(p) for p in parts)} (seed {seed})"
                    )
    return {
        "ghash_folds": (["byte-table", "lane"] if ghash_mod.have_numpy()
                        else ["byte-table"]),
        "ghash_cases": cases,
        "ghash_mismatches": 0,
    }
