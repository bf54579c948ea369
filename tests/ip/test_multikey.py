"""Tests for the AES-128/192/256 encrypt core."""

import pytest

from repro.aes.cipher import Rijndael
from repro.aes.vectors import (
    FIPS197_APPENDIX_C1,
    FIPS197_APPENDIX_C2,
    FIPS197_APPENDIX_C3,
)
from repro.arch.keysize import KeySizeVariant
from repro.ip.multikey import MultiKeyEncryptCore, MultiKeyTestbench
from repro.rtl.simulator import Simulator

VECTORS = {
    128: FIPS197_APPENDIX_C1,
    192: FIPS197_APPENDIX_C2,
    256: FIPS197_APPENDIX_C3,
}


class TestConstruction:
    def test_key_sizes(self):
        with pytest.raises(ValueError):
            MultiKeyEncryptCore(Simulator(), key_bits=160)

    @pytest.mark.parametrize("bits,rounds", [(128, 10), (192, 12),
                                             (256, 14)])
    def test_round_counts(self, bits, rounds):
        core = MultiKeyEncryptCore(Simulator(), bits)
        assert core.rounds == rounds
        assert core.latency_cycles == rounds * 5

    def test_memory_never_grows(self):
        # §3's versions differ only in key size; the S-box memory is
        # identical to the AES-128 device (16384 bits).
        for bits in (128, 192, 256):
            assert MultiKeyEncryptCore(Simulator(),
                                       bits).rom_bits == 16384

    def test_window_register_count(self):
        for bits, nk in ((128, 4), (192, 6), (256, 8)):
            core = MultiKeyEncryptCore(Simulator(), bits)
            assert len(core.window) == nk
            assert len(core.key) == nk


class TestKnownAnswers:
    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_fips_appendix_c(self, bits):
        vector = VECTORS[bits]
        bench = MultiKeyTestbench(bits)
        beats = bench.load_key(vector.key)
        assert beats == (1 if bits == 128 else 2)
        ct, latency = bench.encrypt(vector.plaintext)
        assert ct == vector.ciphertext
        assert latency == bench.core.latency_cycles


class TestAgainstGoldenModel:
    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_random_blocks(self, bits, rng):
        key = bytes(rng.randrange(256) for _ in range(bits // 8))
        golden = Rijndael(key, block_bytes=16)
        bench = MultiKeyTestbench(bits)
        bench.load_key(key)
        for _ in range(5):
            block = bytes(rng.randrange(256) for _ in range(16))
            ct, _ = bench.encrypt(block)
            assert ct == golden.encrypt_block(block)

    def test_matches_aes128_core(self, rng, fips_key):
        from repro.ip.control import Variant
        from repro.ip.testbench import Testbench

        reference = Testbench(Variant.ENCRYPT)
        reference.load_key(fips_key)
        multikey = MultiKeyTestbench(128)
        multikey.load_key(fips_key)
        block = bytes(rng.randrange(256) for _ in range(16))
        a, la = reference.encrypt(block)
        b, lb = multikey.encrypt(block)
        assert a == b and la == lb == 50


class TestStreaming:
    @pytest.mark.parametrize("bits,period", [(128, 50), (192, 60),
                                             (256, 70)])
    def test_zero_gap_streaming(self, bits, period, rng):
        key = bytes(rng.randrange(256) for _ in range(bits // 8))
        golden = Rijndael(key, block_bytes=16)
        bench = MultiKeyTestbench(bits)
        bench.load_key(key)
        blocks = [bytes(rng.randrange(256) for _ in range(16))
                  for _ in range(4)]
        results, stamps = bench.stream_blocks(blocks)
        assert results == [golden.encrypt_block(b) for b in blocks]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert gaps == [period] * 3

    def test_empty_stream(self):
        assert MultiKeyTestbench(192).stream_blocks([]) == ([], [])


class TestSpecModelAgreement:
    """The cycle-accurate core must realize the keysize spec model."""

    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_latency_matches_spec(self, bits, rng):
        spec = KeySizeVariant(bits)
        bench = MultiKeyTestbench(bits)
        bench.load_key(bytes(rng.randrange(256)
                             for _ in range(bits // 8)))
        _, latency = bench.encrypt(bytes(16))
        assert latency == spec.block_latency_cycles

    @pytest.mark.parametrize("bits", [128, 192, 256])
    def test_key_load_beats_match_spec(self, bits):
        spec = KeySizeVariant(bits)
        bench = MultiKeyTestbench(bits)
        beats = bench.load_key(bytes(bits // 8))
        assert beats == spec.key_load_beats


class TestValidation:
    def test_key_length_checked(self):
        with pytest.raises(ValueError):
            MultiKeyTestbench(192).load_key(bytes(16))

    def test_block_length_checked(self):
        with pytest.raises(ValueError):
            MultiKeyTestbench(128).encrypt(bytes(8))

    def test_overrun_counting(self, rng):
        bench = MultiKeyTestbench(256)
        bench.load_key(bytes(32))
        core = bench.core
        core.wr_data.value = 1
        core.din.value = 1
        bench.simulator.step()   # starts
        bench.simulator.step()   # buffers
        bench.simulator.step()   # overruns
        core.wr_data.value = 0
        assert core.bus_overruns >= 1
