"""BatchEngine primitives vs serial references, validation."""

import random

import pytest

from repro.aes.cipher import AES128
from repro.obs.metrics import global_registry
from repro.perf.backends import SlicedBackend
from repro.perf.bench import host_backends
from repro.perf.engine import BatchEngine, default_engine

KEY = bytes(range(16))
NONCE = bytes(range(8))


def serial_ecb(key, data):
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + 16])
                    for i in range(0, len(data), 16))


def serial_ctr(key, nonce, data, initial=0):
    aes = AES128(key)
    out = bytearray()
    for index in range(0, len(data), 16):
        counter = (initial + index // 16).to_bytes(8, "big")
        stream = aes.encrypt_block(nonce + counter)
        out.extend(c ^ s for c, s in
                   zip(data[index:index + 16], stream))
    return bytes(out)


def serial_gctr(key, icb, data):
    aes = AES128(key)
    head, start = icb[:12], int.from_bytes(icb[12:], "big")
    out = bytearray()
    for index in range(0, len(data), 16):
        counter = (start + index // 16) & 0xFFFFFFFF
        stream = aes.encrypt_block(head + counter.to_bytes(4, "big"))
        out.extend(c ^ s for c, s in
                   zip(data[index:index + 16], stream))
    return bytes(out)


class TestPrimitives:
    def test_ecb_matches_serial(self):
        data = random.Random(1).randbytes(16 * 20)
        assert default_engine().encrypt_blocks(KEY, data) == \
            serial_ecb(KEY, data)

    def test_keystream_matches_serial(self):
        engine = default_engine()
        stream = engine.keystream(KEY, NONCE, 5, initial=3)
        assert stream == serial_ctr(KEY, NONCE, bytes(5 * 16), 3)

    def test_ctr_roundtrip_and_reference(self):
        data = random.Random(2).randbytes(100)  # ragged tail
        engine = default_engine()
        ct = engine.xcrypt_ctr(KEY, NONCE, data)
        assert ct == serial_ctr(KEY, NONCE, data)
        assert engine.xcrypt_ctr(KEY, NONCE, ct) == data

    def test_gctr_matches_serial(self):
        data = random.Random(3).randbytes(77)
        icb = bytes(range(16))
        assert default_engine().gctr(KEY, icb, data) == \
            serial_gctr(KEY, icb, data)

    def test_gctr_counter_wrap(self):
        # ICB one block short of 2^32: block 2 wraps to counter 0.
        icb = bytes(12) + (0xFFFFFFFF).to_bytes(4, "big")
        data = bytes(16 * 3)
        assert default_engine().gctr(KEY, icb, data) == \
            serial_gctr(KEY, icb, data)

    def test_empty_inputs(self):
        engine = default_engine()
        assert engine.encrypt_blocks(KEY, b"") == b""
        assert engine.xcrypt_ctr(KEY, NONCE, b"") == b""
        assert engine.keystream(KEY, NONCE, 0) == b""
        assert engine.gctr(KEY, bytes(16), b"") == b""


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            default_engine().encrypt_blocks(bytes(8), bytes(16))

    def test_unaligned_ecb(self):
        with pytest.raises(ValueError):
            default_engine().encrypt_blocks(KEY, bytes(15))

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            default_engine().keystream(KEY, bytes(7), 1)

    def test_negative_blocks(self):
        with pytest.raises(ValueError):
            default_engine().keystream(KEY, NONCE, -1)

    def test_bad_icb_length(self):
        with pytest.raises(ValueError):
            default_engine().gctr(KEY, bytes(15), bytes(16))


class TestCounterRange:
    """CTR counters stay within their 64 bits on every backend: a wrap
    would repeat keystream."""

    @pytest.mark.parametrize("backend", host_backends(),
                             ids=lambda backend: backend.name)
    def test_out_of_range_rejected_before_work(self, backend):
        engine = BatchEngine(backend)
        ops = global_registry().get("repro_engine_ops_total")
        before = ops.labels(primitive="keystream").value
        for initial, blocks in ((-1, 0), (-1, 1), (2**64 - 1, 2),
                                (0, 2**64 + 1)):
            with pytest.raises(ValueError, match="64-bit"):
                engine.keystream(KEY, NONCE, blocks, initial=initial)
        assert ops.labels(primitive="keystream").value == before

    @pytest.mark.parametrize("backend", host_backends(),
                             ids=lambda backend: backend.name)
    def test_edges_match_serial(self, backend):
        engine = BatchEngine(backend)
        top = 2**64 - 2
        assert engine.keystream(KEY, NONCE, 2, initial=top) == \
            serial_ctr(KEY, NONCE, bytes(32), top)
        data = random.Random(5).randbytes(100)
        assert engine.xcrypt_ctr(KEY, NONCE, data) == \
            serial_ctr(KEY, NONCE, data)
        icb = bytes(range(12)) + (0xFFFFFFFE).to_bytes(4, "big")
        assert engine.gctr(KEY, icb, data) == \
            serial_gctr(KEY, icb, data)


class TestConstruction:
    def test_backend_instance(self):
        backend = SlicedBackend()
        assert BatchEngine(backend).backend is backend

    def test_default_engine_is_singleton(self):
        assert default_engine() is default_engine()


class TestEngineMetrics:
    def test_ops_blocks_and_gauge_recorded(self):
        from repro.obs.metrics import global_registry

        registry = global_registry()
        ops = registry.get("repro_engine_ops_total")
        blocks = registry.get("repro_engine_blocks_total")
        before_ops = ops.labels(primitive="encrypt_blocks").value
        before_blocks = blocks.value
        BatchEngine(SlicedBackend()).encrypt_blocks(KEY, bytes(16 * 3))
        assert ops.labels(primitive="encrypt_blocks").value == \
            before_ops + 1
        assert blocks.value == before_blocks + 3

    def test_shard_latency_observed(self):
        from repro.obs.metrics import global_registry

        hist = global_registry().get("repro_engine_shard_seconds")
        child = hist.labels(backend="sliced")
        before = child.count
        BatchEngine(SlicedBackend()).encrypt_blocks(KEY, bytes(16 * 2))
        assert child.count == before + 1
        assert child.sum >= 0

    def test_backend_selection_counted(self):
        from repro.obs.metrics import global_registry

        counter = global_registry().get(
            "repro_engine_backend_selected_total")
        before = counter.labels(backend="sliced").value
        BatchEngine(SlicedBackend())
        assert counter.labels(backend="sliced").value == before + 1
