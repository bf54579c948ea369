"""I/O overlap and streaming (the Data_In / Out processes, paper §4).

The paper's reason for registering the bus: "The independence of
process execution allows the execution of a read of new data at same
time an encryption/decryption process is being performed", and the Out
register lets the core "start another operation while the data out is
being transferred".  Consequence (asserted here): steady-state result
spacing equals the block latency exactly — throughput really is
128 bits / latency as Table 2 computes it.
"""

import pytest

from repro.aes.cipher import AES128, Rijndael
from repro.ip.control import Variant
from repro.ip.core import DIR_DECRYPT, DIR_ENCRYPT
from repro.ip.multikey import MultiKeyTestbench
from repro.ip.precomputed import PrecomputedTestbench
from repro.ip.testbench import Testbench
from tests.conftest import random_block, random_key

#: An encrypting bench on each core behind the one bus interface, and
#: the core's key length in bytes.
BUS_CORES = {
    "RijndaelCore": (lambda: Testbench(Variant.ENCRYPT), 16),
    "PrecomputedKeyCore": (lambda: PrecomputedTestbench(128), 16),
    "MultiKeyEncryptCore": (lambda: MultiKeyTestbench(192), 24),
}

#: Capture-to-result latency of a block when the host loads a new key
#: mid-block, or None where the key load abandons the block.  The
#: encrypt RijndaelCore holds its engine on the ``wr_key`` edge and
#: finishes one cycle late; the multi-key core has no hold; the cores
#: with a key-setup phase start it and drop the block.
MID_BLOCK_KEY_LOAD = {
    "RijndaelCore-ENCRYPT": (lambda: Testbench(Variant.ENCRYPT), 51),
    "RijndaelCore-ENCRYPT-sync_rom": (
        lambda: Testbench(Variant.ENCRYPT, sync_rom=True), 61),
    "RijndaelCore-DECRYPT": (lambda: Testbench(Variant.DECRYPT), None),
    "RijndaelCore-BOTH": (lambda: Testbench(Variant.BOTH), None),
    "PrecomputedKeyCore-128": (lambda: PrecomputedTestbench(128), None),
    "PrecomputedKeyCore-256": (lambda: PrecomputedTestbench(256), None),
    "MultiKeyEncryptCore-128": (lambda: MultiKeyTestbench(128), 50),
    "MultiKeyEncryptCore-256": (lambda: MultiKeyTestbench(256), 70),
}

#: A convenience call for a direction the device has no datapath for.
MISSING_DIRECTION = {
    "RijndaelCore-ENCRYPT-decrypt": (
        lambda: Testbench(Variant.ENCRYPT), "decrypt"),
    "MultiKeyEncryptCore-192-decrypt": (
        lambda: MultiKeyTestbench(192), "decrypt"),
    "PrecomputedKeyCore-128-ENCRYPT-decrypt": (
        lambda: PrecomputedTestbench(128, Variant.ENCRYPT), "decrypt"),
    "RijndaelCore-DECRYPT-encrypt": (
        lambda: Testbench(Variant.DECRYPT), "encrypt"),
}


@pytest.fixture(params=list(BUS_CORES))
def bus_bench(request, fips_key):
    """A keyed bench on each core, with the golden model for its key."""
    build, key_bytes = BUS_CORES[request.param]
    key = (fips_key * 2)[:key_bytes]
    bench = build()
    bench.load_key(key)
    return bench, Rijndael(key, block_bytes=16)


class TestZeroGapStreaming:
    def test_result_spacing_equals_latency(self, rng):
        key = random_key(rng)
        bench = Testbench(Variant.ENCRYPT)
        bench.load_key(key)
        blocks = [random_block(rng) for _ in range(6)]
        results, stamps = bench.stream_blocks(blocks)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert gaps == [50] * 5

    def test_streamed_results_correct_and_ordered(self, rng):
        key = random_key(rng)
        bench = Testbench(Variant.ENCRYPT)
        bench.load_key(key)
        golden = AES128(key)
        blocks = [random_block(rng) for _ in range(6)]
        results, _ = bench.stream_blocks(blocks)
        assert results == [golden.encrypt_block(b) for b in blocks]

    def test_decrypt_streaming(self, rng):
        key = random_key(rng)
        bench = Testbench(Variant.DECRYPT)
        bench.load_key(key)
        golden = AES128(key)
        blocks = [random_block(rng) for _ in range(4)]
        results, stamps = bench.stream_blocks(blocks)
        assert results == [golden.decrypt_block(b) for b in blocks]
        assert all(b - a == 50 for a, b in zip(stamps, stamps[1:]))

    def test_empty_stream(self):
        bench = Testbench(Variant.ENCRYPT)
        assert bench.stream_blocks([]) == ([], [])


class TestInputBuffer:
    def test_write_while_busy_is_buffered(self, bus_bench):
        bench, _ = bus_bench
        bench.write_block(bytes(16))
        assert bench.core.can_accept
        bench.write_block(bytes([1] * 16))
        assert not bench.core.can_accept
        assert bench.core.buf_valid.value == 1

    def test_buffered_block_starts_at_finish_edge(self, bus_bench, rng):
        bench, golden = bus_bench
        first, second = random_block(rng), random_block(rng)
        bench.write_block(first)
        bench.write_block(second)
        r1 = bench.wait_result()
        stamp1 = bench.simulator.cycle
        bench.simulator.step()  # leave the pulse
        r2 = bench.wait_result()
        stamp2 = bench.simulator.cycle
        assert r1 == golden.encrypt_block(first)
        assert r2 == golden.encrypt_block(second)
        # Popped with zero gap.
        assert stamp2 - stamp1 == bench.core.latency_cycles

    def test_overrun_is_counted_and_dropped(self, bus_bench, rng):
        bench, golden = bus_bench
        blocks = [random_block(rng) for _ in range(3)]
        bench.write_block(blocks[0])  # running
        bench.write_block(blocks[1])  # buffered
        bench.write_block(blocks[2])  # dropped
        assert bench.core.bus_overruns == 1
        r1 = bench.wait_result()
        bench.simulator.step()
        r2 = bench.wait_result()
        assert r1 == golden.encrypt_block(blocks[0])
        assert r2 == golden.encrypt_block(blocks[1])
        # The third block never ran.
        assert bench.core.blocks_processed == 2

    def test_buffer_capture_during_key_setup(self, fips_key, rng):
        bench = Testbench(Variant.DECRYPT)
        golden = AES128(fips_key)
        ct = golden.encrypt_block(random_block(rng))
        bench.load_key(fips_key, wait=False)
        bench.write_block(ct)  # arrives mid setup pass
        result = bench.wait_result(max_cycles=120)
        assert result == golden.decrypt_block(ct)


class TestProtocolEdges:
    def test_wr_data_during_setup_period_is_ignored(self, bus_bench):
        bench, _ = bus_bench
        core = bench.core
        core.setup.value = 1
        core.wr_data.value = 1
        core.din.value = 123
        bench.simulator.step()
        core.setup.value = 0
        core.wr_data.value = 0
        assert core.protocol_errors == 1
        assert core.blocks_processed == 0
        assert not core.busy

    def test_stream_after_setup_left_high(self, bus_bench, rng):
        # The host leaves the configuration period without lowering
        # setup; the stream's first write must still be data.
        bench, golden = bus_bench
        blocks = [random_block(rng) for _ in range(3)]
        bench.core.setup.value = 1
        results, _ = bench.stream_blocks(blocks)
        assert results == [golden.encrypt_block(b) for b in blocks]

    def test_wr_key_during_operation_period_is_ignored(self,
                                                       encrypt_bench,
                                                       fips_key):
        core = encrypt_bench.core
        before = core.keyunit.key0_words()
        core.setup.value = 0
        core.wr_key.value = 1
        core.din.value = (1 << 128) - 1
        encrypt_bench.simulator.step()
        core.wr_key.value = 0
        assert core.protocol_errors == 1
        assert core.keyunit.key0_words() == before

    def test_key_reload_preempts_running_block(self, fips_key, rng):
        # Loading a new key mid-block abandons the block (documented
        # behaviour); the device must come back clean.
        bench = Testbench(Variant.BOTH)
        bench.load_key(fips_key)
        bench.write_block(random_block(rng), direction=DIR_ENCRYPT)
        bench.simulator.step(10)  # mid-flight
        key2 = random_key(rng)
        bench.load_key(key2)
        block = random_block(rng)
        result, _ = bench.encrypt(block)
        assert result == AES128(key2).encrypt_block(block)

    @pytest.mark.parametrize("offset", (3, 10, 30))
    @pytest.mark.parametrize("subject", list(MID_BLOCK_KEY_LOAD))
    def test_key_load_mid_block(self, subject, offset, rng):
        build, latency = MID_BLOCK_KEY_LOAD[subject]
        bench = build()
        core = bench.core
        old, new = (bytes(rng.randrange(256)
                          for _ in range(core.key_bits // 8))
                    for _ in range(2))
        bench.load_key(old)
        decrypts = core.variant is Variant.DECRYPT
        block = random_block(rng)
        bench.write_block(block, DIR_DECRYPT if decrypts else DIR_ENCRYPT)
        start = bench.simulator.cycle
        bench.simulator.step(offset)
        bench.load_key(new, wait=False)
        if latency is None:
            with pytest.raises(TimeoutError):
                bench.wait_result(max_cycles=4 * core.latency_cycles)
            assert core.blocks_processed == 0
            return
        result = bench.wait_result(max_cycles=4 * core.latency_cycles)
        assert bench.simulator.cycle - start == latency
        assert result == Rijndael(old, block_bytes=16).encrypt_block(block)

    @pytest.mark.parametrize("subject", list(MISSING_DIRECTION))
    def test_convenience_call_refuses_a_missing_direction(self, subject):
        build, call = MISSING_DIRECTION[subject]
        bench = build()
        core = bench.core
        bench.load_key(bytes(core.key_bits // 8))
        cycle = bench.simulator.cycle
        with pytest.raises(ValueError, match=core.variant.name):
            getattr(bench, call)(bytes(16))
        # Refused before any pin moved or the clock ticked.
        assert bench.simulator.cycle == cycle
        assert (core.wr_data.value, core.din.value, core.encdec.value) \
            == (0, 0, 0)
        assert not core.busy
