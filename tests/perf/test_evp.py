"""OpenSSL EVP backend: equivalence, native CTR/GCM, and the guard
that lets the process's engine run it only where it passed.

The whole suite degrades gracefully: where no libcrypto loads (or it
fails its known-answer tests) the equivalence tests skip and the
registration tests assert the engine and the gate leave it out — the
guard is the feature under test.
"""

import array
import asyncio
import collections
import ctypes
import random

import pytest

from repro.aes import gcm, modes
from repro.aes.cipher import AES128
from repro.aes.gcm import AuthenticationError
from repro.aes.vectors import (
    FIPS197_APPENDIX_C1,
    GCM_VECTORS,
    SP800_38A_CTR128_CIPHERTEXT,
    SP800_38A_CTR128_COUNTER0,
    SP800_38A_ECB128_KEY,
    SP800_38A_ECB128_PLAINTEXT,
)
from repro.perf import evp
from repro.perf.backends import SlicedBackend
from repro.perf.bench import (
    _serial_ctr,
    _serial_ecb,
    cross_check,
    host_backends,
)
from repro.perf.engine import BatchEngine, default_engine
from repro.perf.evp import EvpBackend, have_evp, openssl_version
from repro.serve.client import CryptoClient
from repro.serve.protocol import Mode, Op
from repro.serve.server import CryptoServer, ServeConfig

BLOCK = 16

needs_evp = pytest.mark.skipif(
    not have_evp(), reason="no self-test-passing libcrypto here")

_RNG = random.Random(0xE7B)


def _host_names():
    return [backend.name for backend in host_backends()]


class TestRegistration:
    def test_registry_tracks_availability(self):
        # The gate checks evp, and the engine runs it, exactly where
        # the probe passed.
        assert ("evp" in _host_names()) == have_evp()
        assert (default_engine().backend.name == "evp") == have_evp()

    def test_version_tracks_availability(self):
        version = openssl_version()
        if have_evp():
            assert isinstance(version, str) and version
        else:
            assert version is None

    def test_auto_stays_sliced(self, no_evp):
        # The engine picks EVP only when its known-answer tests pass;
        # with the probe forced to fail it builds the sliced backend.
        assert default_engine().backend.name == "sliced"
        assert _host_names() == ["sliced"]


@needs_evp
class TestEquivalence:
    def test_matches_baseline_blocks(self):
        backend = EvpBackend()
        key = _RNG.randbytes(16)
        for blocks in (1, 2, 48, 257):
            data = _RNG.randbytes(blocks * BLOCK)
            assert backend.encrypt_blocks(key, data) == \
                _serial_ecb(key, data)

    def test_empty_input(self):
        assert EvpBackend().encrypt_blocks(bytes(16), b"") == b""

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError, match="multiple"):
            EvpBackend().encrypt_blocks(bytes(16), b"x" * 17)

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError, match="16 bytes"):
            EvpBackend().encrypt_blocks(b"short", bytes(BLOCK))

    def test_cross_check_gate_includes_evp(self):
        # The bench equivalence gate exercises ECB, CTR with a
        # ragged tail, and the GCTR counter wrap through the engine.
        summary = cross_check([EvpBackend()], corpus_blocks=16)
        assert "evp" in summary["backends"]
        assert summary["mismatches"] == 0

    def test_engine_modes_through_evp(self):
        engine = BatchEngine(EvpBackend())
        key = _RNG.randbytes(16)
        nonce = _RNG.randbytes(8)
        data = _RNG.randbytes(5 * BLOCK - 3)
        assert engine.xcrypt_ctr(key, nonce, data) == \
            _serial_ctr(key, nonce, data)


# ------------------------------------------------ native CTR and GCM
_LENGTHS = sorted({max(0, n * BLOCK + d)
                   for n in range(4) for d in (-1, 0, 1)})


def _force_probe_failure(monkeypatch):
    """The default stack as it is where no libcrypto passes its
    known-answer tests: sliced blocks, the process's GHASH."""
    monkeypatch.setattr(evp, "_probe", lambda: None)
    monkeypatch.setattr("repro.perf.engine._DEFAULT", None)


def _auth_failures():
    return gcm._GCM_AUTH_FAILURES.value


#: Payloads ``bytes()`` takes that are not ``bytes``, each built to
#: hold the given bytes.
_NON_BYTES = {
    "list": list,
    "bytearray": bytearray,
    "bytearray-view": lambda data: memoryview(bytearray(data)),
    "strided-view": lambda data: memoryview(
        bytes(b for b in data for _ in (0, 1)))[::2],
    "reversed-view": lambda data: memoryview(data[::-1])[::-1],
    "wide-view": lambda data: memoryview(array.array("H", data)),
    "empty": lambda data: memoryview(data)[:0],
}


def _golden_ctr(key, counter, data):
    start = int.from_bytes(counter, "big")
    blocks = -(-len(data) // BLOCK)
    stream = _serial_ecb(key, b"".join(
        ((start + i) % (1 << 128)).to_bytes(16, "big")
        for i in range(blocks)))
    return bytes(a ^ b for a, b in zip(data, stream))


@needs_evp
class TestNativeModes:
    def test_ecb_decrypt_fips197_c1_and_golden_inverse(self):
        c1 = FIPS197_APPENDIX_C1
        backend = EvpBackend()
        assert backend.decrypt_blocks(c1.key, c1.ciphertext) == \
            c1.plaintext
        key = _RNG.randbytes(16)
        golden = AES128(key)
        for blocks in (0, 1, 2, 257):
            data = _RNG.randbytes(blocks * BLOCK)
            assert backend.decrypt_blocks(key, data) == b"".join(
                golden.decrypt_block(data[i:i + BLOCK])
                for i in range(0, len(data), BLOCK))
            assert modes.ecb_decrypt(key, data) == \
                backend.decrypt_blocks(key, data)
        with pytest.raises(ValueError, match="multiple"):
            backend.decrypt_blocks(key, b"x" * 17)

    def test_probe_refuses_a_wrong_inverse_cipher(self, monkeypatch):
        lib = evp._probe()
        assert evp._self_test(lib)
        ecb = evp._Lib.ecb

        def wrong_inverse(self, key, data, encrypt=True):
            out = ecb(self, key, data, encrypt)
            return out if encrypt else bytes(len(out))

        monkeypatch.setattr(evp._Lib, "ecb", wrong_inverse)
        assert not evp._self_test(lib)

    def test_ctr_sp800_38a_f51(self):
        assert EvpBackend().ctr(SP800_38A_ECB128_KEY,
                                SP800_38A_CTR128_COUNTER0,
                                SP800_38A_ECB128_PLAINTEXT) == \
            SP800_38A_CTR128_CIPHERTEXT

    def test_ctr_matches_golden_on_ragged_lengths(self):
        key, counter = _RNG.randbytes(16), _RNG.randbytes(16)
        for length in _LENGTHS + [1000]:
            data = _RNG.randbytes(length)
            assert EvpBackend().ctr(key, counter, data) == \
                _golden_ctr(key, counter, data)

    def test_nist_gcm_vectors(self):
        backend = EvpBackend()
        for case in GCM_VECTORS:
            assert backend.gcm_seal(case.key, case.iv, case.aad,
                                    case.plaintext) == \
                (case.ciphertext, case.tag), case.name
            assert backend.gcm_open(case.key, case.iv, case.aad,
                                    case.ciphertext, case.tag) == \
                case.plaintext, case.name
            assert gcm.gcm_encrypt(case.key, case.iv, case.plaintext,
                                   case.aad) == \
                (case.ciphertext, case.tag), case.name

    def test_seeded_sweep_matches_the_composition(self, monkeypatch):
        rng = random.Random(0x6C3)
        cases = [(rng.randbytes(16), rng.randbytes(iv_len),
                  rng.randbytes(aad_len), rng.randbytes(pt_len))
                 for iv_len in (1, 12, 16, 60)
                 for aad_len in _LENGTHS for pt_len in _LENGTHS]
        assert default_engine().backend.native_modes
        native = [gcm.gcm_encrypt(key, iv, pt, aad)
                  for key, iv, aad, pt in cases]
        assert all(gcm.gcm_decrypt(key, iv, ct, tag, aad) == pt
                   for (key, iv, aad, pt), (ct, tag)
                   in zip(cases, native))
        _force_probe_failure(monkeypatch)
        assert default_engine().backend.name == "sliced"
        composed = [gcm.gcm_encrypt(key, iv, pt, aad)
                    for key, iv, aad, pt in cases]
        assert native == composed

    @pytest.mark.parametrize("chunk", [16, 40, 48])
    def test_updates_chunk_across_boundaries(self, monkeypatch, chunk):
        # ctypes passes EVP lengths as C ints and wraps them silently,
        # so every update is fed in chunks; lower the chunk to cross
        # its boundaries with small buffers.
        assert ctypes.c_int(evp._CHUNK).value == evp._CHUNK
        key, counter = _RNG.randbytes(16), _RNG.randbytes(16)
        blocks = _RNG.randbytes(7 * BLOCK)
        data, aad, iv = (_RNG.randbytes(100), _RNG.randbytes(100),
                         _RNG.randbytes(12))
        expected_ecb = _serial_ecb(key, blocks)
        expected_ctr = _golden_ctr(key, counter, data)
        expected_gcm = gcm._seal(key, iv, data, aad)
        monkeypatch.setattr(evp, "_CHUNK", chunk)
        backend = EvpBackend()
        assert backend.encrypt_blocks(key, blocks) == expected_ecb
        assert backend.ctr(key, counter, data) == expected_ctr
        assert backend.gcm_seal(key, iv, aad, data) == expected_gcm
        assert backend.gcm_open(key, iv, aad, *expected_gcm) == data

    @pytest.mark.parametrize("kind", sorted(_NON_BYTES))
    def test_payloads_read_as_bytes_would(self, kind):
        # Both backends take what bytes() takes, with its result, though
        # the native path copies no payload through bytes().
        make = _NON_BYTES[kind]
        key, nonce, iv = (_RNG.randbytes(16), _RNG.randbytes(8),
                          _RNG.randbytes(12))
        data = bytes(make(_RNG.randbytes(40)))
        assert bytes(make(data)) == data
        for backend in (EvpBackend(), SlicedBackend()):
            engine = BatchEngine(backend)
            assert engine.xcrypt_ctr(key, nonce, make(data)) == \
                engine.xcrypt_ctr(key, nonce, data), backend.name
        ct, tag = gcm._seal(key, iv, data, b"aad")
        assert EvpBackend().gcm_seal(key, iv, b"aad", make(data)) == \
            (ct, tag)
        assert EvpBackend().gcm_open(key, iv, b"aad", make(ct),
                                     tag) == data
        assert gcm.gcm_encrypt(key, iv, make(data), b"aad") == (ct, tag)
        assert gcm.gcm_decrypt(key, iv, make(ct), tag, b"aad") == data

    def test_tampering_fails_without_plaintext(self):
        case = GCM_VECTORS[3]
        key, iv, aad = case.key, case.iv, case.aad
        ct, tag = gcm.gcm_encrypt(key, iv, case.plaintext, aad)
        forgeries = [
            (ct, bytes([tag[0] ^ 1]) + tag[1:], aad),
            (ct, tag, aad + b"x"),
            (bytes([ct[0] ^ 1]) + ct[1:], tag, aad),
            (ct, tag[:15], aad),
        ]
        for bad_ct, bad_tag, bad_aad in forgeries:
            before = _auth_failures()
            with pytest.raises(AuthenticationError):
                gcm.gcm_decrypt(key, iv, bad_ct, bad_tag, bad_aad)
            assert _auth_failures() == before + 1

    def test_failed_open_zeroes_its_buffer(self, monkeypatch):
        # The open writes its plaintext into the one result it
        # allocates, and zeroes it when the tag does not verify.
        buffers = []
        allocate = evp._new_bytes

        def recording(source, size):
            buffer = allocate(source, size)
            buffers.append(buffer)
            return buffer

        monkeypatch.setattr(evp, "_new_bytes", recording)
        case = GCM_VECTORS[3]
        flipped = bytes([case.tag[0] ^ 1]) + case.tag[1:]
        assert EvpBackend().gcm_open(case.key, case.iv, case.aad,
                                     case.ciphertext, flipped) is None
        assert len(buffers) == 1
        assert buffers[0] == bytes(len(case.ciphertext))

    def test_python_checks_key_and_tag_before_libcrypto(
            self, monkeypatch):
        backend = EvpBackend()
        with pytest.raises(ValueError, match="16 bytes"):
            backend.ctr(bytes(15), bytes(16), b"x")
        with pytest.raises(ValueError, match="16 bytes"):
            backend.gcm_seal(bytes(24), bytes(12), b"", b"x")
        with pytest.raises(ValueError, match="IV"):
            backend.gcm_seal(bytes(16), bytes(129), b"", b"x")
        monkeypatch.setattr(evp._Lib, "gcm_open", lambda *args:
                            pytest.fail("tag reached libcrypto"))
        for size in (0, 15, 17):
            assert backend.gcm_open(bytes(16), bytes(12), b"", b"x",
                                    bytes(size)) is None

    def test_iv_longer_than_libcrypto_takes_uses_the_composition(self):
        key, iv = _RNG.randbytes(16), _RNG.randbytes(129)
        ct, tag = gcm.gcm_encrypt(key, iv, b"payload", b"aad")
        assert (ct, tag) == gcm._seal(key, iv, b"payload", b"aad")
        assert gcm.gcm_decrypt(key, iv, ct, tag, b"aad") == b"payload"

    @pytest.mark.parametrize("failing", [None, "init", "update"])
    def test_each_call_frees_the_context_it_creates(self, monkeypatch,
                                                    failing):
        # One EVP_CIPHER_CTX_new and one EVP_CIPHER_CTX_free per call:
        # on success, on a refused tag, and when keying
        # (EVP_CipherInit_ex) or the data pass (EVP_CipherUpdate)
        # fails.
        lib = evp._probe()
        key, iv, data = bytes(16), bytes(12), bytes(48)
        ct, tag = lib.gcm_seal(key, iv, b"aad", data)
        calls = {
            "ecb": lambda: lib.ecb(key, data),
            "ecb decrypt": lambda: lib.ecb(key, data, encrypt=False),
            "ctr": lambda: lib.ctr(key, bytes(16), data),
            "gcm_seal": lambda: lib.gcm_seal(key, iv, b"aad", data),
            "gcm_open": lambda: lib.gcm_open(key, iv, b"aad", ct, tag),
            "gcm_open refused": lambda: lib.gcm_open(
                key, iv, b"aad", ct, bytes(16)),
        }
        counts = collections.Counter()
        for name in ("new", "free"):
            def counted(*args, _name=name, _call=getattr(lib, name)):
                counts[_name] += 1
                return _call(*args)

            monkeypatch.setattr(lib, name, counted)
        if failing:
            monkeypatch.setattr(lib, failing, lambda *args: 0)
        for name, call in calls.items():
            counts.clear()
            if failing:
                with pytest.raises(RuntimeError, match="failed"):
                    call()
            else:
                assert (call() is None) == (name == "gcm_open refused")
            assert counts == {"new": 1, "free": 1}, name


@needs_evp
class TestProbeFailure:
    def test_sliced_stack_serves_identical_bytes(self, monkeypatch):
        key = _RNG.randbytes(16)
        sealed = gcm.gcm_encrypt(key, bytes(12), b"q" * 300)
        requests = [
            (Op.ENCRYPT, Mode.CTR, _RNG.randbytes(8 + 1000)),
            (Op.ENCRYPT, Mode.GCM, _RNG.randbytes(12 + 4099)),
            (Op.DECRYPT, Mode.GCM, bytes(12) + sealed[0] + sealed[1]),
        ]

        async def serve():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            try:
                async with CryptoClient(*server.address) as client:
                    await client.load_key(key)
                    return [bytes((await client.request(*r)).payload)
                            for r in requests]
            finally:
                await server.stop()

        assert default_engine().backend.native_modes
        native = asyncio.run(serve())
        _force_probe_failure(monkeypatch)
        assert asyncio.run(serve()) == native
        assert default_engine().backend.name == "sliced"
        assert native[2] == b"q" * 300
