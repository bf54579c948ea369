"""Equivalence gate: every backend and GHASH provider against the
golden model, plus the loopback serve run's recorded rates."""

import asyncio

import pytest

from repro.perf.backends import Backend, BaselineBackend
from repro.perf.bench import cross_check, cross_check_ghash
from repro.perf.engine import BackendMismatch
from repro.serve.client import run_load
from repro.serve.protocol import Mode
from repro.serve.server import CryptoServer, ServeConfig


class _CorruptBackend(Backend):
    """Flips the last bit of otherwise-correct ciphertext."""

    name = "corrupt"

    def __init__(self):
        self._inner = BaselineBackend()

    def encrypt_blocks(self, key, data):
        out = self._inner.encrypt_blocks(key, data)
        if not out:
            return out
        return out[:-1] + bytes([out[-1] ^ 1])


class TestCrossCheck:
    def test_all_registered_backends_agree(self):
        summary = cross_check(corpus_blocks=8)
        assert summary["mismatches"] == 0
        assert "sliced" in summary["backends"]
        assert sorted(summary["primitives"]) == \
            ["ctr", "ecb", "gctr"]

    def test_broken_backend_is_caught(self):
        with pytest.raises(BackendMismatch, match="corrupt"):
            cross_check({"corrupt": _CorruptBackend()},
                        corpus_blocks=4)


class TestGhashSection:
    def test_cross_check_ghash_gate(self):
        summary = cross_check_ghash()
        assert summary["ghash_mismatches"] == 0
        assert summary["ghash_cases"] > 0
        assert "table" in summary["ghash_providers"]


class TestServeScenario:
    def test_bench_records_loopback_service_rates(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            try:
                host, port = server.address
                return await run_load(host, port, bytes(16),
                                      clients=2, requests=3,
                                      mode=Mode.CTR,
                                      payload_bytes=256)
            finally:
                await server.stop()

        report = asyncio.run(scenario())
        assert report.clients == 2
        assert report.mode == "ctr"
        assert report.requests == 6
        assert report.errors == 0
        assert report.requests_per_s > 0
        assert report.seconds > 0
        latency = report.latency
        assert set(latency) == {"p50_s", "p95_s", "p99_s", "max_s"}
        assert 0 < latency["p50_s"] <= latency["p95_s"] \
            <= latency["p99_s"] <= latency["max_s"]
