"""Backends must agree bit-for-bit with the straightforward model."""

import random

import pytest

from repro.aes.cipher import AES128
from repro.aes.key_schedule import expand_key
from repro.aes.vectors import (
    SP800_38A_ECB128_CIPHERTEXT,
    SP800_38A_ECB128_KEY,
    SP800_38A_ECB128_PLAINTEXT,
)
from repro.perf.backends import (
    BaselineBackend,
    RoundKeyCache,
    SlicedBackend,
    TTableBackend,
    available_backends,
    get_backend,
    have_numpy,
)


def serial_ecb(key, data):
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + 16])
                    for i in range(0, len(data), 16))


def all_backends():
    backends = [BaselineBackend(), TTableBackend(),
                SlicedBackend(vectorize=False)]
    if have_numpy():
        backends.append(SlicedBackend(vectorize=True))
    return backends


@pytest.mark.parametrize("backend", all_backends(),
                         ids=lambda b: f"{b.name}-"
                         f"{'np' if b.vectorized else 'py'}")
class TestEquivalence:
    def test_nist_ecb_vector(self, backend):
        got = backend.encrypt_blocks(SP800_38A_ECB128_KEY,
                                     SP800_38A_ECB128_PLAINTEXT)
        assert got == SP800_38A_ECB128_CIPHERTEXT

    def test_random_corpus(self, backend):
        rng = random.Random(7)
        for _ in range(3):
            key = rng.randbytes(16)
            data = rng.randbytes(16 * rng.randrange(1, 33))
            assert backend.encrypt_blocks(key, data) == \
                serial_ecb(key, data)

    def test_empty(self, backend):
        assert backend.encrypt_blocks(bytes(16), b"") == b""


class TestSlicedVariants:
    def test_pure_matches_vectorized(self):
        if not have_numpy():
            pytest.skip("numpy not available")
        rng = random.Random(11)
        key = rng.randbytes(16)
        data = rng.randbytes(16 * 50)
        pure = SlicedBackend(vectorize=False)
        fast = SlicedBackend(vectorize=True)
        assert pure.encrypt_blocks(key, data) == \
            fast.encrypt_blocks(key, data)

    def test_vectorize_flag_reported(self):
        assert SlicedBackend(vectorize=False).vectorized is False
        if have_numpy():
            assert SlicedBackend().vectorized is True

    def test_shares_injected_cache(self):
        cache = RoundKeyCache(capacity=4)
        backend = SlicedBackend(cache=cache, vectorize=False)
        backend.encrypt_blocks(bytes(16), bytes(16))
        assert len(cache) == 1


class TestRoundKeyCache:
    def test_words_match_expand_key(self):
        cache = RoundKeyCache()
        key = bytes(range(16))
        assert cache.words(key) == tuple(expand_key(key, 10))

    def test_hit_does_not_grow(self):
        cache = RoundKeyCache()
        cache.words(bytes(16))
        cache.words(bytes(16))
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = RoundKeyCache(capacity=2)
        k1, k2, k3 = (bytes([i]) + bytes(15) for i in range(3))
        cache.words(k1)
        cache.words(k2)
        cache.words(k1)      # refresh k1: k2 is now the LRU entry
        cache.words(k3)      # evicts k2
        assert len(cache) == 2
        cache.words(k1)      # still cached: no growth
        assert len(cache) == 2

    def test_clear(self):
        cache = RoundKeyCache()
        cache.words(bytes(16))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            RoundKeyCache().words(bytes(8))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RoundKeyCache(capacity=0)


class TestRoundKeyCacheHygiene:
    """Evicted / discarded / cleared schedules must be zeroized, and
    handed-out schedules must never alias the wipeable buffer."""

    @staticmethod
    def _buffer(cache, key):
        return cache._entries[bytes(key)]

    def test_eviction_zeroizes_schedule(self):
        cache = RoundKeyCache(capacity=2)
        k1, k2, k3 = (bytes([i]) + bytes(15) for i in range(3))
        cache.words(k1)
        evicted = self._buffer(cache, k1)
        assert any(evicted)
        cache.words(k2)
        cache.words(k3)  # evicts k1
        assert len(cache) == 2
        assert not any(evicted), \
            "evicted schedule still reachable through the old buffer"

    def test_discard_zeroizes_schedule(self):
        cache = RoundKeyCache()
        key = bytes(range(16))
        cache.words(key)
        buffer = self._buffer(cache, key)
        cache.discard(key)
        assert len(cache) == 0
        assert not any(buffer)

    def test_discard_unknown_key_is_noop(self):
        cache = RoundKeyCache()
        cache.discard(bytes(16))  # nothing cached: must not raise
        assert len(cache) == 0

    def test_clear_zeroizes_every_schedule(self):
        cache = RoundKeyCache()
        keys = [bytes([i]) + bytes(15) for i in range(4)]
        buffers = []
        for key in keys:
            cache.words(key)
            buffers.append(self._buffer(cache, key))
        cache.clear()
        assert len(cache) == 0
        assert all(not any(buffer) for buffer in buffers)

    def test_words_tuple_survives_wipe(self):
        """Callers hold an unpacked tuple, never the buffer — a
        concurrent wipe must not corrupt in-flight schedules."""
        cache = RoundKeyCache()
        key = bytes(range(16))
        schedule = cache.words(key)
        cache.discard(key)
        assert schedule == tuple(expand_key(key, 10))

    def test_forget_key_drops_engine_and_ghash_state(self):
        from repro.aes import ghash as ghash_mod
        from repro.aes.cipher import AES128
        from repro.perf.engine import default_engine, forget_key

        key = bytes(range(16))
        engine = default_engine()
        cache = getattr(engine.backend, "cache", None)
        engine.xcrypt_ecb(key, bytes(32))  # populate schedule cache
        subkey = int.from_bytes(
            AES128(key).encrypt_block(bytes(16)), "big")
        ghash_mod.get_provider("table").digest(subkey, (b"x" * 16,))
        assert subkey in ghash_mod._TABLES
        forget_key(key)
        if cache is not None:
            assert key not in cache._entries
        assert subkey not in ghash_mod._TABLES

    def test_forget_key_tolerates_garbage(self):
        from repro.perf.engine import forget_key
        forget_key(b"short")  # malformed keys have nothing cached


class TestRegistry:
    def test_registry_names(self):
        from repro.perf.evp import have_evp
        expected = {"baseline", "ttable", "sliced"}
        if have_evp():
            expected.add("evp")
        assert set(available_backends()) == expected

    def test_get_backend_auto(self):
        from repro.perf.evp import have_evp
        assert get_backend("auto").name == \
            ("evp" if have_evp() else "sliced")

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError):
            get_backend("quantum")
