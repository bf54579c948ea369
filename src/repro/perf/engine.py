"""The batch throughput engine: one interface over the host's backend.

:class:`BatchEngine` is the software counterpart of the paper's IP
wrapper: the caller hands it a key and a buffer, and the engine's
backend runs the block math.

Only the *parallelizable* primitives live here: ECB encryption, CTR
keystream generation, and GCTR (GCM's 32-bit-counter variant).  Each
encrypts an independent block stream: it builds its counter blocks,
encrypts them in one ``encrypt_blocks`` backend call and XORs; only
``xcrypt_ctr`` hands a whole buffer to a backend with native modes.
The feedback modes (CBC, CFB) are deliberately absent: block *i*
needs ciphertext *i - 1*, so no amount of batching hides per-block
latency — in hardware terms, the paper's 50-cycle block latency is
the whole story for a chained mode, and :mod:`repro.aes.modes` keeps
those loops serial.

The process runs one engine, :func:`default_engine`, over the one
backend its host offers, chosen once and never by the caller: the
paper places its S-boxes by device in the same way (asynchronous EAB
ROM on Acex1K, logic cells on Cyclone).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.metrics import global_registry
from repro.obs.tracing import trace_span
from repro.perf.backends import Backend, Buffer, SlicedBackend, as_buffer
from repro.perf.evp import EvpBackend, have_evp

BLOCK = 16

# Engine instrumentation: children are bound once, at import or per
# engine, so the per-call cost on the hot path is a dict-free method
# call.
_REGISTRY = global_registry()
_OPS = _REGISTRY.counter(
    "repro_engine_ops_total",
    "Batch-engine primitive invocations",
    labels=("primitive",),
)
_BLOCKS = _REGISTRY.counter(
    "repro_engine_blocks_total",
    "16-byte blocks processed by the batch engine",
)
_BACKEND_SECONDS = _REGISTRY.histogram(
    "repro_engine_shard_seconds",
    "Wall-clock seconds spent in one backend encrypt_blocks call",
    labels=("backend",),
)
_BACKEND_SELECTED = _REGISTRY.counter(
    "repro_engine_backend_selected_total",
    "Backend choices made at engine construction",
    labels=("backend",),
)
_OPS_ENCRYPT = _OPS.labels(primitive="encrypt_blocks")
_OPS_KEYSTREAM = _OPS.labels(primitive="keystream")
_OPS_GCTR = _OPS.labels(primitive="gctr")
_OPS_NATIVE_CTR = _OPS.labels(primitive="native_ctr")

#: CTR counters are the low 8 bytes of the block: 2^64 of them.
_CTR_COUNTERS = 1 << 64


class BackendMismatch(ValueError):
    """A backend disagreed bit-for-bit with the golden model."""


class BatchEngine:
    """Batched encryption over one
    :class:`~repro.perf.backends.Backend` instance.  Every call runs on
    the calling thread.
    """

    def __init__(self, backend: Backend):
        self._backend = backend
        self._backend_seconds = _BACKEND_SECONDS.bind(backend=backend.name)
        _BACKEND_SELECTED.labels(backend=backend.name).inc()

    @property
    def backend(self) -> Backend:
        """The backend doing the block math."""
        return self._backend

    # ------------------------------------------------------------ ECB
    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Encrypt an aligned buffer block-by-block (ECB direction).

        Decryption needs the inverse cipher, which only a backend
        with native modes has (:func:`repro.aes.modes.ecb_decrypt`
        calls it); every other backend here is encrypt-only, like the
        paper's smallest device variant.
        """
        key = bytes(key)
        if len(key) != BLOCK:
            raise ValueError(
                f"AES-128 key must be {BLOCK} bytes, got {len(key)}"
            )
        data = bytes(data)
        if len(data) % BLOCK:
            raise ValueError(
                f"data must be a multiple of {BLOCK} bytes"
            )
        if not data:
            return b""
        _OPS_ENCRYPT.inc()
        _BLOCKS.inc(len(data) // BLOCK)
        with trace_span("engine.encrypt_blocks",
                        backend=self._backend.name,
                        blocks=len(data) // BLOCK):
            start = time.perf_counter()
            out = self._backend.encrypt_blocks(key, data)
            self._backend_seconds.observe(time.perf_counter() - start)
            return out

    # ------------------------------------------------------------ CTR
    def keystream(self, key: bytes, nonce: bytes, blocks: int,
                  initial: int = 0) -> bytes:
        """CTR keystream: E(nonce || counter), 64-bit counter.

        Matches :func:`repro.aes.modes.ctr_keystream`: an 8-byte
        nonce, the counter big-endian in the low 8 bytes, starting at
        ``initial``.  The counters must stay within 64 bits: a wrap
        would repeat keystream.
        """
        nonce = _ctr_nonce(nonce)
        if blocks < 0:
            raise ValueError("block count must be non-negative")
        if initial < 0 or initial + blocks > _CTR_COUNTERS:
            raise ValueError(
                f"CTR counters {initial} + {blocks} blocks leave the "
                f"64-bit counter range")
        if blocks == 0:
            return b""
        _OPS_KEYSTREAM.inc()
        return self.encrypt_blocks(
            key, _counter_blocks(nonce, initial, blocks, 8))

    def xcrypt_ctr(self, key: bytes, nonce: bytes,
                   data: Buffer) -> bytes:
        """CTR encrypt/decrypt (symmetric): data xor keystream.

        A backend with native modes runs the whole call, allocating no
        copy of a ``memoryview`` ``data``; its 128-bit increment starts
        at counter 0, so no buffer reaches the nonce.
        """
        data = as_buffer(data)
        blocks = (len(data) + BLOCK - 1) // BLOCK
        if self._backend.native_modes and blocks:
            counter = _ctr_nonce(nonce) + bytes(8)
            _OPS_NATIVE_CTR.inc()
            _BLOCKS.inc(blocks)
            with trace_span("engine.native_ctr",
                            backend=self._backend.name, blocks=blocks):
                return self._backend.ctr(key, counter, data)
        stream = self.keystream(key, nonce, blocks)
        return _xor_bytes(data, stream[:len(data)])

    # ----------------------------------------------------------- GCTR
    def gctr(self, key: bytes, icb: bytes, data: bytes) -> bytes:
        """SP 800-38D GCTR: 32-bit increment of the low counter word.

        Bit-for-bit the serial ``_gctr`` of :mod:`repro.aes.gcm`,
        including the modulo-2^32 counter wrap — which the GCM entry
        points make unreachable by enforcing the plaintext length
        limit before any counter is consumed.
        """
        icb = bytes(icb)
        if len(icb) != BLOCK:
            raise ValueError(f"ICB must be {BLOCK} bytes")
        data = bytes(data)
        if not data:
            return b""
        _OPS_GCTR.inc()
        blocks = (len(data) + BLOCK - 1) // BLOCK
        head, start = icb[:12], int.from_bytes(icb[12:], "big")
        stream = self.encrypt_blocks(
            key, _counter_blocks(head, start, blocks, 4))
        return _xor_bytes(data, stream[:len(data)])


def _ctr_nonce(nonce: bytes) -> bytes:
    nonce = bytes(nonce)
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    return nonce


def _counter_blocks(head: bytes, start: int, blocks: int,
                    width: int) -> bytes:
    """``blocks`` counter blocks ``head || counter`` from ``start``,
    the counter big-endian in ``width`` bytes and wrapping modulo
    2^(8 * width): CTR uses 8 bytes, GCTR 4."""
    mask = (1 << 8 * width) - 1
    return b"".join(head + ((start + i) & mask).to_bytes(width, "big")
                    for i in range(blocks))


def _xor_bytes(data: Buffer, stream: bytes) -> bytes:
    """XOR two equal-length buffers via one bignum op (C speed)."""
    if len(data) != len(stream):
        raise ValueError("XOR operands must be the same length")
    value = int.from_bytes(data, "little") ^ \
        int.from_bytes(stream, "little")
    return value.to_bytes(len(data), "little")


_DEFAULT: Optional[BatchEngine] = None


def default_engine() -> BatchEngine:
    """The process-wide engine the mode layer routes bulk work through.

    Its backend is chosen once, from what the host offers: ``evp``
    where a libcrypto passes its known-answer tests, else ``sliced``
    (numpy gathers where numpy imports).  :mod:`repro.aes.gcm` also
    seals and opens through this engine's backend when it has native
    modes.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BatchEngine(
            EvpBackend() if have_evp() else SlicedBackend())
    return _DEFAULT


def forget_key(key: bytes) -> None:
    """Key-material hygiene: zeroize per-key caches for ``key``.

    Drops the expanded schedule from the default engine's
    :class:`~repro.perf.backends.RoundKeyCache` and the GHASH byte
    tables derived from the key's hash subkey — both are overwritten
    with zeros, not merely dropped.  (``evp`` caches no schedule: each
    call's cipher context is freed when the call returns.)  The serve
    layer calls this on session teardown; callers with private engines
    wipe their own backend's cache.

    Best-effort by design: a malformed key has nothing cached, and
    hygiene on teardown must never raise into connection cleanup.
    Finding the tables means deriving the hash subkey: one block
    through the T-table cipher, which the test suite holds to the
    golden model and which costs an order of magnitude less to key.
    That is skipped while no tables are cached at all, as where GCM
    runs natively.
    """
    if _DEFAULT is not None:
        cache = getattr(_DEFAULT.backend, "cache", None)
        if cache is not None:
            cache.discard(key)
    from repro.aes import ghash as _ghash
    if not _ghash.cached_subkeys():
        return
    try:
        from repro.aes.fast import FastAES128
        subkey = int.from_bytes(
            FastAES128(key).encrypt_block(bytes(BLOCK)), "big")
    except (TypeError, ValueError):
        return
    _ghash.forget(subkey)
