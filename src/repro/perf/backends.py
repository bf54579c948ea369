"""Bulk-encryption backends for the batch throughput engine.

A backend turns ``(key, many 16-byte blocks)`` into ciphertext in one
call.  Two are provided here:

``baseline``
    The straightforward model, exactly as the mode layer used it
    before the engine existed: construct :class:`repro.aes.cipher.
    AES128` (one key expansion per call) and loop block by block.
    This is the reference every other backend must match bit-for-bit
    in the equivalence gate (``repro-aes bench``).

``sliced``
    The batch backend this module exists for.  Round keys come from a
    shared :class:`RoundKeyCache` (an LRU keyed by the raw key), so a
    hot key pays for expansion once across calls — the software
    analogue of the paper's ``wr_key``-once-stream-many usage model.
    The state is held *word-sliced*: four parallel vectors of 32-bit
    column words for the whole batch, walked round-by-round so the
    table lookups run in a tight inner loop over all blocks at once.
    When numpy is importable the vectors are ``uint32`` arrays and the
    lookups are fancy-indexed gathers; otherwise a pure-Python sliced
    loop runs.  numpy is detected, never required.

All backends are encrypt-only, like :mod:`repro.aes.fast`: the batch
modes (ECB encrypt, CTR, GCTR) only ever use the encrypt direction —
the same property that lets the paper's smallest device variant serve
CTR links.

A third backend, ``evp`` (:mod:`repro.perf.evp`), runs ECB, CTR and
GCM natively through OpenSSL where a libcrypto passes its known-answer
tests; ``auto`` selects it there and ``sliced`` everywhere else.
"""

from __future__ import annotations

import struct as _struct
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.aes.cipher import AES128
from repro.aes.constants import SBOX
from repro.aes.fast import T0, T1, T2, T3
from repro.aes.key_schedule import expand_key

try:  # optional vectorization — detected, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy absent
    _np = None

BLOCK = 16

#: What the native modes read: ``bytes``, or a contiguous
#: ``memoryview`` of them that a caller passes instead of slicing a
#: payload-sized copy.
Buffer = Union[bytes, memoryview]


def as_buffer(data: Any) -> Buffer:
    """``data`` as a :data:`Buffer`, holding the bytes ``bytes(data)``
    would.  ``bytes`` and contiguous one-dimensional ``'B'`` views of
    ``bytes`` pass through uncopied: nothing can change them while a
    native call reads them in place with the GIL released.  Anything
    else ``bytes()`` takes (a ``bytearray`` or a view of one, a
    strided view, an iterable of ints, a view of wider items) goes
    through it, so every backend accepts the same inputs."""
    if isinstance(data, bytes) or (
            isinstance(data, memoryview) and data.format == "B"
            and data.ndim == 1 and data.c_contiguous
            and isinstance(data.obj, bytes)):
        return data
    return bytes(data)

#: AES-128 round count; the schedule is 4 * (_ROUNDS + 1) words.
_ROUNDS = 10


def have_numpy() -> bool:
    """True when the sliced backend will vectorize with numpy."""
    return _np is not None


def numpy_version() -> Optional[str]:
    """The detected numpy version, or ``None`` when absent."""
    return None if _np is None else str(_np.__version__)


#: Packed layout of one cached schedule: 44 big-endian 32-bit words.
_SCHEDULE = _struct.Struct(f">{4 * (_ROUNDS + 1)}I")


class RoundKeyCache:
    """LRU cache of expanded AES-128 schedules, keyed by the raw key.

    The paper's device expands on the fly precisely to avoid storing
    schedules; software has the opposite economics — expansion is ~5x
    the cost of one T-table block, so a streaming channel that
    re-keys rarely should pay it once.  Capacity is bounded so a
    multi-tenant server cannot grow the cache without limit.

    Hygiene: each schedule lives in a private ``bytearray`` that is
    **overwritten with zeros** when its entry is evicted, discarded
    or cleared — derived key material never waits in freed memory
    for the allocator to hand it to someone else.  ``words`` unpacks
    a fresh tuple per call, so callers never hold a reference into
    the wipeable buffer.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[bytes, bytearray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of cached schedules."""
        return self._capacity

    @staticmethod
    def _wipe(packed: bytearray) -> None:
        packed[:] = bytes(len(packed))

    def words(self, key: bytes) -> Tuple[int, ...]:
        """The 44-word schedule for ``key``, expanding on first use."""
        key = bytes(key)
        if len(key) != BLOCK:
            raise ValueError(
                f"AES-128 key must be {BLOCK} bytes, got {len(key)}"
            )
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return _SCHEDULE.unpack(entry)
        schedule = tuple(expand_key(key, _ROUNDS))
        packed = bytearray(_SCHEDULE.size)
        _SCHEDULE.pack_into(packed, 0, *schedule)
        self._entries[key] = packed
        if len(self._entries) > self._capacity:
            _, evicted = self._entries.popitem(last=False)
            self._wipe(evicted)
        return schedule

    def discard(self, key: bytes) -> None:
        """Zeroize and drop one key's schedule, if cached.

        The serve layer calls this (via ``engine.forget_key``) on
        session teardown so a closed session's schedule does not
        outlive it in the process-wide cache.
        """
        entry = self._entries.pop(bytes(key), None)
        if entry is not None:
            self._wipe(entry)

    def clear(self) -> None:
        """Zeroize and drop every cached schedule (hygiene hook)."""
        for entry in self._entries.values():
            self._wipe(entry)
        self._entries.clear()


class Backend:
    """Interface every bulk backend implements.

    ``encrypt_blocks`` receives validated input — a 16-byte key and a
    16-byte-aligned buffer — and returns the ECB encryption of every
    block.  Engines layer counter generation and XOR on top,
    unless the backend has ``native_modes``: then the engine's
    ``xcrypt_ctr`` hands CTR to :meth:`ctr`, and :mod:`repro.aes.gcm`
    seals and opens through :meth:`gcm_seal` / :meth:`gcm_open` in one
    call each.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Longest IV :meth:`gcm_seal` and :meth:`gcm_open` take; longer
    #: IVs use the golden composition.  0 means no native modes.
    max_gcm_iv_bytes = 0

    @property
    def native_modes(self) -> bool:
        """True when :meth:`ctr`, :meth:`gcm_seal` and :meth:`gcm_open`
        are implemented."""
        return self.max_gcm_iv_bytes > 0

    @property
    def vectorized(self) -> bool:
        """True when the hot loop runs vectorized (numpy)."""
        return False

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Encrypt every 16-byte block of ``data`` under ``key``."""
        raise NotImplementedError

    def ctr(self, key: bytes, counter: bytes, data: Buffer) -> bytes:
        """``data`` xor the CTR keystream from the 16-byte ``counter``
        block, incremented as one 128-bit big-endian integer."""
        raise NotImplementedError

    def gcm_seal(self, key: bytes, iv: bytes, aad: bytes,
                 plaintext: Buffer) -> Tuple[bytes, bytes]:
        """AES-128-GCM encrypt: (ciphertext, 16-byte tag)."""
        raise NotImplementedError

    def gcm_open(self, key: bytes, iv: bytes, aad: bytes,
                 ciphertext: Buffer, tag: bytes) -> Optional[bytes]:
        """AES-128-GCM verify and decrypt; ``None``, releasing no
        plaintext, when ``tag`` does not verify or is not 16 bytes."""
        raise NotImplementedError


class BaselineBackend(Backend):
    """The pre-engine software path: per-call expansion, per-block loop."""

    name = "baseline"

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        aes = AES128(key)
        return b"".join(
            aes.encrypt_block(data[i:i + BLOCK])
            for i in range(0, len(data), BLOCK)
        )


class SlicedBackend(Backend):
    """Word-sliced batch T-table backend with an LRU round-key cache.

    ``vectorize=None`` (the default) auto-detects numpy;
    ``vectorize=False`` forces the pure-Python sliced loop (the tests
    run both against the golden model); ``vectorize=True`` demands
    numpy and raises if it is missing.
    """

    name = "sliced"

    def __init__(self, cache: Optional[RoundKeyCache] = None,
                 vectorize: Optional[bool] = None):
        if vectorize is None:
            vectorize = _np is not None
        if vectorize and _np is None:
            raise RuntimeError("numpy is not available; "
                               "use vectorize=False")
        self._vectorize = bool(vectorize)
        self._cache = cache if cache is not None else RoundKeyCache()

    @property
    def cache(self) -> RoundKeyCache:
        """The round-key LRU this backend amortizes expansion through."""
        return self._cache

    @property
    def vectorized(self) -> bool:
        """True when the numpy gather path is active."""
        return self._vectorize

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        rk = self._cache.words(key)
        if self._vectorize:
            return _encrypt_numpy(rk, data)
        return _encrypt_sliced(rk, data)


def _encrypt_sliced(rk: Tuple[int, ...], data: bytes) -> bytes:
    """Pure-Python word-sliced batch: rounds outer, blocks inner."""
    t0, t1, t2, t3 = T0, T1, T2, T3
    k0, k1, k2, k3 = rk[0], rk[1], rk[2], rk[3]
    s0: List[int] = []
    s1: List[int] = []
    s2: List[int] = []
    s3: List[int] = []
    for i in range(0, len(data), BLOCK):
        s0.append(int.from_bytes(data[i:i + 4], "big") ^ k0)
        s1.append(int.from_bytes(data[i + 4:i + 8], "big") ^ k1)
        s2.append(int.from_bytes(data[i + 8:i + 12], "big") ^ k2)
        s3.append(int.from_bytes(data[i + 12:i + 16], "big") ^ k3)

    for rnd in range(1, _ROUNDS):
        base = 4 * rnd
        k0, k1, k2, k3 = rk[base], rk[base + 1], rk[base + 2], \
            rk[base + 3]
        n0: List[int] = []
        n1: List[int] = []
        n2: List[int] = []
        n3: List[int] = []
        for a, b, c, d in zip(s0, s1, s2, s3):
            n0.append(t0[a >> 24] ^ t1[(b >> 16) & 0xFF]
                      ^ t2[(c >> 8) & 0xFF] ^ t3[d & 0xFF] ^ k0)
            n1.append(t0[b >> 24] ^ t1[(c >> 16) & 0xFF]
                      ^ t2[(d >> 8) & 0xFF] ^ t3[a & 0xFF] ^ k1)
            n2.append(t0[c >> 24] ^ t1[(d >> 16) & 0xFF]
                      ^ t2[(a >> 8) & 0xFF] ^ t3[b & 0xFF] ^ k2)
            n3.append(t0[d >> 24] ^ t1[(a >> 16) & 0xFF]
                      ^ t2[(b >> 8) & 0xFF] ^ t3[c & 0xFF] ^ k3)
        s0, s1, s2, s3 = n0, n1, n2, n3

    sbox = SBOX
    k0, k1, k2, k3 = rk[40], rk[41], rk[42], rk[43]
    out = bytearray()
    for a, b, c, d in zip(s0, s1, s2, s3):
        o0 = ((sbox[a >> 24] << 24) | (sbox[(b >> 16) & 0xFF] << 16)
              | (sbox[(c >> 8) & 0xFF] << 8) | sbox[d & 0xFF]) ^ k0
        o1 = ((sbox[b >> 24] << 24) | (sbox[(c >> 16) & 0xFF] << 16)
              | (sbox[(d >> 8) & 0xFF] << 8) | sbox[a & 0xFF]) ^ k1
        o2 = ((sbox[c >> 24] << 24) | (sbox[(d >> 16) & 0xFF] << 16)
              | (sbox[(a >> 8) & 0xFF] << 8) | sbox[b & 0xFF]) ^ k2
        o3 = ((sbox[d >> 24] << 24) | (sbox[(a >> 16) & 0xFF] << 16)
              | (sbox[(b >> 8) & 0xFF] << 8) | sbox[c & 0xFF]) ^ k3
        out.extend(o0.to_bytes(4, "big"))
        out.extend(o1.to_bytes(4, "big"))
        out.extend(o2.to_bytes(4, "big"))
        out.extend(o3.to_bytes(4, "big"))
    return bytes(out)


# Table arrays for the numpy gather path, built lazily so importing
# this module never requires numpy.
_NP_TABLES = None


def _np_tables():
    global _NP_TABLES
    if _NP_TABLES is None:
        _NP_TABLES = (
            _np.array(T0, dtype=_np.uint32),
            _np.array(T1, dtype=_np.uint32),
            _np.array(T2, dtype=_np.uint32),
            _np.array(T3, dtype=_np.uint32),
            _np.array(SBOX, dtype=_np.uint32),
        )
    return _NP_TABLES


def _encrypt_numpy(rk: Tuple[int, ...], data: bytes) -> bytes:
    """Vectorized word-sliced batch: uint32 gathers over all blocks."""
    t0, t1, t2, t3, sbox = _np_tables()
    state = _np.frombuffer(data, dtype=">u4").reshape(-1, 4)
    state = state.astype(_np.uint32)
    s0 = state[:, 0] ^ _np.uint32(rk[0])
    s1 = state[:, 1] ^ _np.uint32(rk[1])
    s2 = state[:, 2] ^ _np.uint32(rk[2])
    s3 = state[:, 3] ^ _np.uint32(rk[3])

    mask = _np.uint32(0xFF)
    for rnd in range(1, _ROUNDS):
        base = 4 * rnd
        n0 = (t0[s0 >> 24] ^ t1[(s1 >> 16) & mask]
              ^ t2[(s2 >> 8) & mask] ^ t3[s3 & mask]
              ^ _np.uint32(rk[base]))
        n1 = (t0[s1 >> 24] ^ t1[(s2 >> 16) & mask]
              ^ t2[(s3 >> 8) & mask] ^ t3[s0 & mask]
              ^ _np.uint32(rk[base + 1]))
        n2 = (t0[s2 >> 24] ^ t1[(s3 >> 16) & mask]
              ^ t2[(s0 >> 8) & mask] ^ t3[s1 & mask]
              ^ _np.uint32(rk[base + 2]))
        n3 = (t0[s3 >> 24] ^ t1[(s0 >> 16) & mask]
              ^ t2[(s1 >> 8) & mask] ^ t3[s2 & mask]
              ^ _np.uint32(rk[base + 3]))
        s0, s1, s2, s3 = n0, n1, n2, n3

    def final(a, b, c, d, word):
        return ((sbox[a >> 24] << _np.uint32(24))
                | (sbox[(b >> 16) & mask] << _np.uint32(16))
                | (sbox[(c >> 8) & mask] << _np.uint32(8))
                | sbox[d & mask]) ^ _np.uint32(word)

    out = _np.empty((len(s0), 4), dtype=_np.uint32)
    out[:, 0] = final(s0, s1, s2, s3, rk[40])
    out[:, 1] = final(s1, s2, s3, s0, rk[41])
    out[:, 2] = final(s2, s3, s0, s1, rk[42])
    out[:, 3] = final(s3, s0, s1, s2, rk[43])
    return out.astype(">u4").tobytes()


def available_backends() -> Dict[str, Backend]:
    """Fresh instances of every backend, keyed by registry name."""
    backends: Dict[str, Backend] = {
        BaselineBackend.name: BaselineBackend(),
        SlicedBackend.name: SlicedBackend(),
    }
    # OpenSSL EVP registers only where a libcrypto passes its
    # known-answer tests at probe time.
    from repro.perf.evp import EvpBackend, have_evp
    if have_evp():
        backends[EvpBackend.name] = EvpBackend()
    return backends


def get_backend(name: str) -> Backend:
    """Instantiate a backend by registry name.

    ``auto`` is ``evp`` where a libcrypto passed its known-answer
    tests, else ``sliced``.
    """
    if name == "auto":
        from repro.perf.evp import EvpBackend, have_evp
        return EvpBackend() if have_evp() else SlicedBackend()
    backends = available_backends()
    if name not in backends:
        if name == "evp":
            raise ValueError(
                "backend 'evp' needs a loadable OpenSSL libcrypto, "
                "which is unavailable here (try 'sliced')")
        known = ", ".join(sorted(backends))
        raise ValueError(f"unknown backend {name!r}; "
                         f"choose from {known} (or 'auto')")
    return backends[name]
