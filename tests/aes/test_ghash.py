"""Property suite for the pluggable GHASH providers.

Every provider must agree bit-for-bit with the golden table-free
``repro.aes.gcm._ghash`` — over the short-length sweep (0..3 blocks
± 1 byte), over multi-part messages laid out like GCM's
AAD/ciphertext/lengths split, and over buffers long enough to cross
the vector provider's lane threshold.  The NIST GCM cases then pin
the end-to-end mode with each provider installed as the default.
"""

import random
import sys
import threading

import pytest

from repro.aes import ghash as ghash_mod
from repro.aes.gcm import _ghash, gcm_decrypt, gcm_encrypt
from repro.aes.ghash import (
    VECTOR_LANES,
    available_providers,
    get_provider,
    gf128_mul,
)

BLOCK = 16

_RNG = random.Random(0x6A55)

SHORT_LENGTHS = sorted({
    max(0, n * BLOCK + d) for n in range(4) for d in (-1, 0, 1)
})

#: Crosses the numpy lane threshold with a ragged tail.
LONG_LENGTHS = (
    2 * VECTOR_LANES * BLOCK,
    2 * VECTOR_LANES * BLOCK + 5,
    3 * VECTOR_LANES * BLOCK + BLOCK - 1,
)


def _padded(part: bytes) -> bytes:
    return part + bytes((-len(part)) % BLOCK)


def provider_items():
    return sorted(available_providers().items())


@pytest.mark.parametrize("name,provider", provider_items())
class TestAgainstGolden:
    @pytest.mark.parametrize("length", SHORT_LENGTHS)
    def test_short_lengths(self, name, provider, length):
        h = _RNG.getrandbits(128)
        data = _RNG.randbytes(length)
        assert provider.digest(h, (data,)) == _ghash(h, _padded(data))

    @pytest.mark.parametrize("length", LONG_LENGTHS)
    def test_lane_threshold_lengths(self, name, provider, length):
        h = _RNG.getrandbits(128)
        data = _RNG.randbytes(length)
        assert provider.digest(h, (data,)) == _ghash(h, _padded(data))

    def test_multi_part_gcm_layout(self, name, provider):
        """aad | ciphertext | lengths, each padded independently."""
        h = _RNG.getrandbits(128)
        for aad_len, ct_len in [(0, 0), (0, 60), (20, 0), (20, 60),
                                (17, 4096), (1, BLOCK)]:
            aad = _RNG.randbytes(aad_len)
            ct = _RNG.randbytes(ct_len)
            lengths = ((8 * aad_len).to_bytes(8, "big")
                       + (8 * ct_len).to_bytes(8, "big"))
            want = _ghash(h, _padded(aad) + _padded(ct) + lengths)
            assert provider.digest(h, (aad, ct, lengths)) == want

    def test_empty_message(self, name, provider):
        h = _RNG.getrandbits(128)
        assert provider.digest(h, ()) == 0
        assert provider.digest(h, (b"", b"")) == 0

    def test_zero_subkey(self, name, provider):
        assert provider.digest(0, (_RNG.randbytes(64),)) == 0


@pytest.mark.parametrize("name", sorted(available_providers()))
class TestNistVectorsPerProvider:
    """The canonical GCM cases with each provider as the default, on
    the composition (native GCM ignores the provider)."""

    K96 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV96 = bytes.fromhex("cafebabefacedbaddecaf888")
    P60 = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39"
    )
    AAD = bytes.fromhex(
        "feedfacedeadbeeffeedfacedeadbeefabaddad2")

    @pytest.fixture(autouse=True)
    def _pin_provider(self, name, no_evp):
        previous = ghash_mod.default_provider().name
        ghash_mod.set_default_provider(name)
        yield
        ghash_mod.set_default_provider(previous)

    def test_case_1_empty(self, name):
        ct, tag = gcm_encrypt(bytes(16), bytes(12), b"")
        assert ct == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_4_with_aad(self, name):
        ct, tag = gcm_encrypt(self.K96, self.IV96, self.P60, self.AAD)
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"
        assert gcm_decrypt(self.K96, self.IV96, ct, tag,
                           self.AAD) == self.P60

    def test_long_iv_round_trip(self, name):
        """The non-96-bit IV path routes J0 through the provider."""
        iv = _RNG.randbytes(37)
        key = _RNG.randbytes(16)
        pt = _RNG.randbytes(100)
        ct, tag = gcm_encrypt(key, iv, pt)
        assert gcm_decrypt(key, iv, ct, tag) == pt

    def test_digests_through_the_pinned_provider(self, name,
                                                 monkeypatch):
        calls = []
        provider = ghash_mod.default_provider()
        digest = provider.digest

        def counting(*args):
            calls.append(args)
            return digest(*args)

        monkeypatch.setattr(provider, "digest", counting)
        ct, tag = gcm_encrypt(self.K96, self.IV96, self.P60, self.AAD)
        assert gcm_decrypt(self.K96, self.IV96, ct, tag,
                           self.AAD) == self.P60
        assert provider.name == name
        assert len(calls) == 2


class TestRandomizedEquivalence:
    def test_random_lengths_including_empty(self):
        """Satellite regression: tail-only padding must digest
        identically to the old fully-padded implementation over
        random lengths, including empty AAD and 0-length payload."""
        rng = random.Random(2003)
        providers = available_providers()
        for _ in range(40):
            h = rng.getrandbits(128)
            aad = rng.randbytes(rng.choice([0, 1, 20, 333]))
            ct = rng.randbytes(rng.choice([0, 1, 60, 4097]))
            lengths = ((8 * len(aad)).to_bytes(8, "big")
                       + (8 * len(ct)).to_bytes(8, "big"))
            want = _ghash(h, _padded(aad) + _padded(ct) + lengths)
            for name, provider in providers.items():
                got = provider.digest(h, (aad, ct, lengths))
                assert got == want, (name, len(aad), len(ct))


class TestRegistry:
    def test_bitwise_and_table_always_available(self):
        assert "table" in available_providers()

    def test_vector_tracks_numpy(self):
        assert (("vector" in available_providers())
                == ghash_mod.have_numpy())

    def test_auto_prefers_vector_with_numpy(self):
        expected = "vector" if ghash_mod.have_numpy() else "table"
        assert get_provider("auto").name == expected

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValueError, match="unknown ghash"):
            get_provider("quantum")

    def test_default_provider_is_process_wide(self):
        first = ghash_mod.default_provider()
        assert ghash_mod.default_provider() is first

    def test_gf128_mul_reexported_from_gcm(self):
        from repro.aes import gcm
        assert gcm.gf128_mul is gf128_mul


class TestTableHygiene:
    def test_forget_zeroizes_tables(self):
        h = _RNG.getrandbits(128) | 1
        provider = get_provider("table")
        provider.digest(h, (b"x" * 64,))
        table_set = ghash_mod._TABLES.get(h)
        assert any(any(row) for row in table_set.tables)
        ghash_mod.forget(h)
        assert h not in ghash_mod._TABLES
        assert not any(any(row) for row in table_set.tables)
        assert not table_set.numpy_packs

    def test_eviction_zeroizes_tables(self):
        cache = ghash_mod._TableCache(capacity=1)
        first = cache.get(3)
        assert any(any(row) for row in first.tables)
        cache.get(5)  # evicts subkey 3
        assert 3 not in cache
        assert not any(any(row) for row in first.tables)

    def test_clear_zeroizes_everything(self):
        cache = ghash_mod._TableCache(capacity=4)
        sets = [cache.get(k) for k in (3, 5, 7)]
        cache.clear()
        assert len(cache) == 0
        for table_set in sets:
            assert not any(any(row) for row in table_set.tables)

    def test_drop_while_held_leaves_the_wipe_to_the_holder(self):
        cache = ghash_mod._TableCache(capacity=1)
        with cache.use(3) as held, cache.use(3) as again:
            assert again is held
            cache.get(5)  # evicts subkey 3 while two holders use it
            assert 3 not in cache
            assert any(any(row) for row in held.tables)
        assert not any(any(row) for row in held.tables)
        with cache.use(5) as held:
            cache.discard(5)
            assert any(any(row) for row in held.tables)
            with cache.use(5) as fresh:  # a dropped set is not reused
                assert fresh is not held
        assert not any(any(row) for row in held.tables)

    def test_forget_during_digests_never_corrupts_them(self):
        """Three threads digest under one subkey while a fourth forgets
        it as fast as it can: every digest must still be exact."""
        h = _RNG.getrandbits(128) | 1
        data = _RNG.randbytes(64 * BLOCK)
        expected = _ghash(h, data)
        provider = get_provider("table")
        results = []
        stop = threading.Event()

        def digest():
            for _ in range(20):
                results.append(provider.digest(h, (data,)))

        def forget():
            while not stop.is_set():
                ghash_mod.forget(h)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        forgetter = threading.Thread(target=forget)
        digesters = [threading.Thread(target=digest) for _ in range(3)]
        try:
            forgetter.start()
            for thread in digesters:
                thread.start()
            for thread in digesters:
                thread.join(60)
        finally:
            stop.set()
            forgetter.join(60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (forgetter, *digesters))
        assert results == [expected] * 60
