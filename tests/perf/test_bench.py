"""Equivalence gate: the host's backends and its GHASH against the
golden model, plus the loopback serve run's recorded rates."""

import asyncio

import pytest

from repro.aes import ghash
from repro.perf.backends import Backend
from repro.perf.bench import _serial_ecb, cross_check, cross_check_ghash
from repro.perf.engine import BackendMismatch
from repro.serve.client import run_load
from repro.serve.protocol import Mode
from repro.serve.server import CryptoServer, ServeConfig


class _CorruptBackend(Backend):
    """Flips the last bit of otherwise-correct ciphertext."""

    name = "corrupt"

    def encrypt_blocks(self, key, data):
        out = _serial_ecb(key, data)
        if not out:
            return out
        return out[:-1] + bytes([out[-1] ^ 1])


class TestCrossCheck:
    def test_all_registered_backends_agree(self):
        from repro.perf.evp import have_evp

        summary = cross_check(corpus_blocks=8)
        assert summary["mismatches"] == 0
        assert summary["backends"] == (
            ["evp", "sliced"] if have_evp() else ["sliced"])
        assert sorted(summary["primitives"]) == \
            ["ctr", "ecb", "gctr"]

    def test_broken_backend_is_caught(self):
        with pytest.raises(BackendMismatch, match="corrupt"):
            cross_check([_CorruptBackend()], corpus_blocks=4)


class TestGhashSection:
    def test_cross_check_ghash_gate(self):
        summary = cross_check_ghash()
        assert summary["ghash_mismatches"] == 0
        assert summary["ghash_cases"] == 48
        assert summary["ghash_folds"] == (
            ["byte-table", "lane"] if ghash.have_numpy()
            else ["byte-table"])

    def test_gate_checks_both_folds(self, monkeypatch):
        # The corpus crosses the lane threshold: a wrong lane fold
        # fails the gate where numpy imports, and a wrong byte-table
        # fold fails it everywhere.
        folds = ["_fold_table"]
        if ghash.have_numpy():
            folds.append("_fold_lanes")
        for fold in folds:
            with monkeypatch.context() as patch:
                right = getattr(ghash, fold)
                patch.setattr(ghash, fold,
                              lambda *args: right(*args) ^ 1)
                with pytest.raises(BackendMismatch, match="ghash"):
                    cross_check_ghash()


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
