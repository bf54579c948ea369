"""Pluggable GHASH providers: byte-table and numpy-vectorized.

GHASH is multiplication in GF(2^128) with GCM's reflected bit order
(SP 800-38D §6.3): field elements live in 128-bit ints whose bit 127
is the coefficient of x^0, and the reduction polynomial
x^128 + x^7 + x^2 + x + 1 reflects to :data:`_R` acting on the low
end of the integer.  :mod:`repro.aes.gcm` keeps a table-free
``_ghash`` as the golden model; everything here is cross-checked
against it (see ``tests/aes/test_ghash.py`` and the bench equivalence
gate).

Two providers, mirroring the cipher backend ladder in
:mod:`repro.perf.backends`; ``auto`` picks ``vector`` where numpy
imports and ``table`` elsewhere:

- ``table`` — per-subkey byte tables ``T[j][v] = (v · x^(8j)) · H``
  so a block multiply is 16 lookups and 16 xors instead of 128
  shift/xor rounds.  Tables are cached per subkey (LRU, zeroized on
  evict — same hygiene contract as ``RoundKeyCache``).
- ``vector`` — numpy lane decomposition: ``W`` interleaved Horner
  accumulators each step by ``H^W`` (a batched table multiply over
  uint64 hi/lo halves), folded at the end by ``W`` scalar multiplies
  with ``H``.  Pure-Python fallback when numpy is absent.

A *message* is a sequence of byte parts; each part is padded to the
16-byte block boundary independently (exactly GCM's layout: padded
AAD, padded ciphertext, lengths block), so providers never build the
fully padded concatenation the old ``_ghash`` call sites did.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BLOCK = 16

#: GHASH reduction polynomial x^128 + x^7 + x^2 + x + 1, reflected:
#: the GCM spec treats bit 0 as the x^0 coefficient of the *leftmost*
#: bit, so reduction works on the low end of the reversed integer.
_R = 0xE1000000000000000000000000000000

_MASK64 = (1 << 64) - 1

#: Lane width of the vector provider: how many independent Horner
#: accumulators step together through one batched ``· H^W`` multiply.
#: Wide enough that numpy's per-op overhead amortizes, small enough
#: that the final ``W`` scalar combine multiplies stay cheap.
VECTOR_LANES = 256

#: Below this many whole blocks the vector provider delegates to the
#: scalar byte-table path: the lane fold needs at least two full
#: chunks before the batched multiply beats plain table lookups.
_VECTOR_MIN_BLOCKS = 2 * VECTOR_LANES


def gf128_mul(x: int, y: int) -> int:
    """Multiply in GF(2^128) with GCM's bit order (SP 800-38D §6.3)."""
    if not (0 <= x < (1 << 128) and 0 <= y < (1 << 128)):
        raise ValueError("GF(2^128) elements are 128-bit")
    z = 0
    v = x
    for bit in range(128):
        if (y >> (127 - bit)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


# ------------------------------------------------------------ numpy probe

_NUMPY: Optional[object] = None
_NUMPY_PROBED = False


def _numpy() -> Optional[object]:
    global _NUMPY, _NUMPY_PROBED
    if not _NUMPY_PROBED:
        _NUMPY_PROBED = True
        try:
            import numpy
        except ImportError:
            _NUMPY = None
        else:
            _NUMPY = numpy
    return _NUMPY


def have_numpy() -> bool:
    """Whether the vector provider can use numpy here."""
    return _numpy() is not None


# ------------------------------------------------------------ byte tables

def _build_tables(h: int) -> List[List[int]]:
    """Byte tables for ``· h``: ``tables[j][v]`` is the product of
    ``h`` with the field element whose j-th big-endian byte is ``v``.

    A multiply is then 16 lookups: xor of ``tables[j][byte_j(y)]``.
    Built from the 128 single-bit products ``x^k · h`` (iterated
    multiply-by-x), then a fill over each byte's 256 values using the
    lowest set bit, so construction is ~4k xors, not 16×256 full
    multiplies.
    """
    basis = [0] * 128
    p = h
    for k in range(128):
        # p == x^k · h; int bit (127 - k) carries the x^k coefficient.
        basis[127 - k] = p
        if p & 1:
            p = (p >> 1) ^ _R
        else:
            p >>= 1
    tables: List[List[int]] = []
    for j in range(16):
        low = 120 - 8 * j  # int bit of this byte's bit 0
        row = [0] * 256
        for v in range(1, 256):
            lsb = v & -v
            row[v] = row[v ^ lsb] ^ basis[low + lsb.bit_length() - 1]
        tables.append(row)
    return tables


_BYTE_SHIFTS = tuple(120 - 8 * j for j in range(16))


def _table_mul(y: int, tables: List[List[int]]) -> int:
    """``y · h`` via the byte tables built for ``h``."""
    z = 0
    for j, shift in enumerate(_BYTE_SHIFTS):
        z ^= tables[j][(y >> shift) & 0xFF]
    return z


def _pow_gf128(h: int, n: int) -> int:
    """``h^n`` by square-and-multiply (n >= 1)."""
    acc = h
    for bit in bin(n)[3:]:
        acc = gf128_mul(acc, acc)
        if bit == "1":
            acc = gf128_mul(acc, h)
    return acc


class _TableSet:
    """Everything cached for one subkey: scalar byte tables for ``H``
    and, lazily, numpy hi/lo table pairs for ``H`` powers (the vector
    provider steps lanes by ``H^W``)."""

    __slots__ = ("tables", "numpy_packs", "users", "dropped")

    def __init__(self, h: int) -> None:
        self.tables = _build_tables(h)
        self.numpy_packs: Dict[int, Tuple[object, object]] = {}
        #: Digests holding the set (:meth:`_TableCache.use`).
        self.users = 0
        #: Out of the cache; the last holder wipes it.
        self.dropped = False

    def numpy_pack(self, h: int, power: int) -> Tuple[object, object]:
        pack = self.numpy_packs.get(power)
        if pack is None:
            np = _numpy()
            assert np is not None
            if power == 1:
                tables = self.tables
            else:
                tables = _build_tables(_pow_gf128(h, power))
            t_hi = np.array(
                [[e >> 64 for e in row] for row in tables],
                dtype=np.uint64)
            t_lo = np.array(
                [[e & _MASK64 for e in row] for row in tables],
                dtype=np.uint64)
            pack = (t_hi, t_lo)
            self.numpy_packs[power] = pack
        return pack

    def wipe(self) -> None:
        """Zeroize: table entries are linear in the subkey."""
        for row in self.tables:
            row[:] = [0] * 256
        for t_hi, t_lo in self.numpy_packs.values():
            t_hi.fill(0)  # type: ignore[attr-defined]
            t_lo.fill(0)  # type: ignore[attr-defined]
        self.numpy_packs.clear()


class _TableCache:
    """LRU of :class:`_TableSet` per subkey, zeroized on eviction.

    Same hygiene contract as ``repro.perf.backends.RoundKeyCache``:
    dropping an entry overwrites the derived material instead of
    leaving it for the allocator to hand out.  Thread-safe — the
    serve layer digests frames from a thread pool, and forgets keys
    on the event loop while they may still be digesting, so a set
    dropped while a digest holds it is zeroized when that digest ends.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[int, _TableSet]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, h: int) -> _TableSet:
        with self._lock:
            entry = self._entries.get(h)
            if entry is not None:
                self._entries.move_to_end(h)
                return entry
        # Build outside the lock: construction is the expensive part
        # and two racing builders just produce identical tables.
        entry = _TableSet(h)
        with self._lock:
            current = self._entries.get(h)
            if current is not None:
                self._entries.move_to_end(h)
                return current
            self._entries[h] = entry
            while len(self._entries) > self._capacity:
                _, evicted = self._entries.popitem(last=False)
                if self._drop(evicted):
                    evicted.wipe()
        return entry

    @contextlib.contextmanager
    def use(self, h: int) -> Iterator[_TableSet]:
        """The set for ``h``, held for the ``with`` body.  Dropping it
        meanwhile (discard, eviction, clear) leaves the wipe to its
        last holder, so a digest in flight never reads zeroed tables.
        """
        while True:
            entry = self.get(h)
            with self._lock:
                if not entry.dropped:
                    entry.users += 1
                    break
        try:
            yield entry
        finally:
            with self._lock:
                entry.users -= 1
                idle = entry.dropped and not entry.users
            if idle:
                entry.wipe()

    @staticmethod
    def _drop(entry: _TableSet) -> bool:
        """Mark ``entry`` out of the cache (lock held); True when no
        digest holds it, so the caller wipes it now."""
        entry.dropped = True
        return not entry.users

    def discard(self, h: int) -> None:
        with self._lock:
            entry = self._entries.pop(h, None)
            if entry is None or not self._drop(entry):
                return
        entry.wipe()

    def clear(self) -> None:
        with self._lock:
            idle = [entry for entry in self._entries.values()
                    if self._drop(entry)]
            self._entries.clear()
        for entry in idle:
            entry.wipe()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, h: int) -> bool:
        with self._lock:
            return h in self._entries


_TABLES = _TableCache()


def forget(h: int) -> None:
    """Drop (and zeroize) any cached tables derived from subkey ``h``.

    The serve layer calls this via ``repro.perf.engine.forget_key``
    on session teardown.
    """
    _TABLES.discard(h)


def cached_subkeys() -> int:
    """How many subkeys have cached tables: 0 where GCM runs natively,
    which builds none."""
    return len(_TABLES)


# ------------------------------------------------------------- providers

class GhashProvider:
    """One GHASH implementation; ``digest`` folds byte parts."""

    #: Registry name.
    name = "abstract"
    #: Whether the provider batches block multiplies (numpy).
    vectorized = False

    def digest(self, h: int, parts: Sequence[bytes]) -> int:
        """GHASH of the parts, each zero-padded to a block boundary."""
        raise NotImplementedError

    def forget(self, h: int) -> None:
        """Drop any per-subkey state (tables); default: stateless."""


def _fold_table(y: int, part: bytes,
                tables: List[List[int]]) -> int:
    full = len(part) - len(part) % BLOCK
    for index in range(0, full, BLOCK):
        y = _table_mul(
            y ^ int.from_bytes(part[index:index + BLOCK], "big"),
            tables)
    if full < len(part):
        tail = part[full:] + bytes(BLOCK - (len(part) - full))
        y = _table_mul(y ^ int.from_bytes(tail, "big"), tables)
    return y


class TableGhash(GhashProvider):
    """Byte-table multiplies: 16 lookups per block."""

    name = "table"

    def digest(self, h: int, parts: Sequence[bytes]) -> int:
        with _TABLES.use(h) as table_set:
            y = 0
            for part in parts:
                y = _fold_table(y, part, table_set.tables)
            return y

    def forget(self, h: int) -> None:
        _TABLES.discard(h)


class VectorGhash(GhashProvider):
    """Numpy lane decomposition over the byte tables.

    With ``W`` lanes and blocks ``X_1..X_m`` (``m = kW`` after the
    scalar-handled remainder), lane ``r`` Horner-folds the subsequence
    ``X_{r+1}, X_{r+1+W}, ...`` stepping by ``H^W`` instead of ``H``;
    lane ``r``'s result then carries weight ``H^{W-r}``, so a final
    scalar Horner pass ``acc = (acc ^ Y_r) · H`` recovers the exact
    GHASH value.  The running digest folds into the first block, so
    parts chain exactly like the scalar providers.
    """

    name = "vector"
    vectorized = True

    def digest(self, h: int, parts: Sequence[bytes]) -> int:
        np = _numpy()
        if np is None:
            return _TABLE_PROVIDER.digest(h, parts)
        with _TABLES.use(h) as table_set:
            y = 0
            for part in parts:
                y = self._fold_part(np, y, h, part, table_set)
            return y

    def forget(self, h: int) -> None:
        _TABLES.discard(h)

    def _fold_part(self, np: object, y: int, h: int, part: bytes,
                   table_set: _TableSet) -> int:
        blocks = len(part) // BLOCK
        if blocks < _VECTOR_MIN_BLOCKS:
            return _fold_table(y, part, table_set.tables)
        lanes = VECTOR_LANES
        chunks = blocks // lanes
        head = (blocks - chunks * lanes) * BLOCK
        # Scalar prefix so the vector body is an exact chunk multiple.
        y = _fold_table(y, part[:head], table_set.tables)
        body = len(part) // BLOCK * BLOCK
        words = np.frombuffer(  # type: ignore[attr-defined]
            part, dtype=">u8", count=(body - head) // 8, offset=head,
        ).astype(np.uint64).reshape(-1, 2)  # type: ignore[attr-defined]
        hi = np.ascontiguousarray(  # type: ignore[attr-defined]
            words[:, 0]).reshape(chunks, lanes)
        lo = np.ascontiguousarray(  # type: ignore[attr-defined]
            words[:, 1]).reshape(chunks, lanes)
        # Fold the running digest into the first block.
        hi[0, 0] ^= np.uint64(y >> 64)  # type: ignore[attr-defined]
        lo[0, 0] ^= np.uint64(y & _MASK64)  # type: ignore[attr-defined]
        t_hi, t_lo = table_set.numpy_pack(h, lanes)
        y_hi = np.zeros(lanes, dtype=np.uint64)  # type: ignore[attr-defined]
        y_lo = np.zeros(lanes, dtype=np.uint64)  # type: ignore[attr-defined]
        u8 = np.uint64(0xFF)  # type: ignore[attr-defined]
        shifts = [np.uint64(56 - 8 * j)  # type: ignore[attr-defined]
                  for j in range(8)]
        for chunk in range(chunks):
            if chunk:
                z_hi = t_hi[0][(y_hi >> shifts[0]) & u8]
                z_lo = t_lo[0][(y_hi >> shifts[0]) & u8]
                for j in range(1, 8):
                    idx = (y_hi >> shifts[j]) & u8
                    z_hi ^= t_hi[j][idx]
                    z_lo ^= t_lo[j][idx]
                for j in range(8):
                    idx = (y_lo >> shifts[j]) & u8
                    z_hi ^= t_hi[8 + j][idx]
                    z_lo ^= t_lo[8 + j][idx]
                y_hi = z_hi ^ hi[chunk]
                y_lo = z_lo ^ lo[chunk]
            else:
                y_hi = hi[0].copy()
                y_lo = lo[0].copy()
        # Scalar Horner combine: W multiplies with H's tables.
        acc = 0
        tables = table_set.tables
        hi_list = y_hi.tolist()  # type: ignore[attr-defined]
        lo_list = y_lo.tolist()  # type: ignore[attr-defined]
        for lane in range(lanes):
            acc = _table_mul(
                acc ^ (hi_list[lane] << 64) ^ lo_list[lane], tables)
        # Tail (partial block) after the vector body.
        return _fold_table(acc, part[body:], table_set.tables)


_TABLE_PROVIDER = TableGhash()
_VECTOR_PROVIDER = VectorGhash()


def available_providers() -> Dict[str, GhashProvider]:
    """Providers usable in this interpreter, keyed by name."""
    providers: Dict[str, GhashProvider] = {"table": _TABLE_PROVIDER}
    if have_numpy():
        providers["vector"] = _VECTOR_PROVIDER
    return providers


def get_provider(name: str = "auto") -> GhashProvider:
    """Resolve a provider name; ``auto`` picks the fastest available."""
    if name == "auto":
        return _VECTOR_PROVIDER if have_numpy() else _TABLE_PROVIDER
    providers = available_providers()
    try:
        return providers[name]
    except KeyError:
        if name == "vector":
            raise ValueError(
                "ghash provider 'vector' needs numpy, which is not "
                "importable here (try 'table')"
            ) from None
        known = ", ".join(sorted(providers))
        raise ValueError(
            f"unknown ghash provider {name!r} (known: {known}, "
            f"or 'auto')"
        ) from None


_DEFAULT: Optional[GhashProvider] = None
_DEFAULT_LOCK = threading.Lock()


def default_provider() -> GhashProvider:
    """Process-wide provider the GCM hot path routes through."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = get_provider("auto")
    return _DEFAULT


def set_default_provider(name: str) -> GhashProvider:
    """Pin the process-wide provider by name."""
    global _DEFAULT
    provider = get_provider(name)
    with _DEFAULT_LOCK:
        _DEFAULT = provider
    return provider


__all__ = [
    "BLOCK",
    "GhashProvider",
    "TableGhash",
    "VECTOR_LANES",
    "VectorGhash",
    "available_providers",
    "cached_subkeys",
    "default_provider",
    "forget",
    "get_provider",
    "gf128_mul",
    "have_numpy",
    "set_default_provider",
]
