"""Multi-process cluster tests: real spawned workers behind the
gateway.

These are the failure-path tests the in-loop gateway suite cannot
express: a worker process killed mid-load and restarted by the
supervisor, a clean exit shrinking the pool, and the shared-port
(no-gateway) topology.  Everything binds OS-assigned loopback ports;
each scenario owns its own event loop.
"""

import asyncio
import socket

import pytest

from repro.serve.client import (
    CryptoClient,
    RetryPolicy,
    run_load,
    run_session_load,
)
from repro.serve.cluster import Cluster, ClusterConfig
from repro.serve.protocol import Mode, Status

_BASE_KEY = bytes(range(16))


async def _http_get(host: str, port: int, path: str,
                    timeout: float = 5.0) -> str:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: test\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        await asyncio.wait_for(writer.drain(), timeout)
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
    return raw.decode("utf-8", errors="replace")


def _encrypts_served(metrics_body: str) -> float:
    """Sum of ``repro_serve_requests_total{...op="encrypt"...}``
    samples in one worker /metrics scrape."""
    total = 0.0
    for line in metrics_body.splitlines():
        if (line.startswith("repro_serve_requests_total{")
                and 'op="encrypt"' in line):
            total += float(line.rsplit(" ", 1)[1])
    return total


class TestClusterEndToEnd:
    def test_session_load_moves_both_shards_then_shutdown_frame(self):
        """Sessions spread over both workers (per-shard admin
        scrapes prove each served encrypts), and one SHUTDOWN frame
        at the gateway drains the whole cluster."""

        async def scenario():
            cluster = Cluster(ClusterConfig(workers=2))
            await cluster.start()
            try:
                host, port = cluster.address
                placements = {sid: cluster.gateway.shard_for(sid)
                              for sid in range(1, 9)}
                assert len(set(placements.values())) == 2
                report = await run_session_load(
                    host, port, _BASE_KEY,
                    sessions=8, requests=2, mode=Mode.CTR,
                    payload_bytes=256,
                )
                assert report.errors == 0
                assert report.requests == 16
                for handle in cluster.supervisor.handles():
                    body = await _http_get(
                        handle.host, handle.admin_port, "/metrics")
                    assert _encrypts_served(body) > 0, handle.shard
                async with CryptoClient(
                        host, port,
                        retry=RetryPolicy(attempts=2)) as client:
                    reply = await client.shutdown()
                    assert reply.status is Status.OK
                await asyncio.wait_for(cluster.wait_stopped(), 30)
                assert not any(
                    h.process.is_alive()
                    for h in cluster.supervisor.handles()
                )
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_worker_crash_mid_load_restarts_and_load_completes(self):
        """SIGKILL one worker while sessions are in flight: the
        gateway answers its in-flight requests retryably, the client
        backoff (plus the NO_KEY re-load) absorbs the gap, and the
        supervisor restarts the worker under the same shard name."""

        async def scenario():
            cluster = Cluster(ClusterConfig(
                workers=2,
                restart_backoff_s=0.05,
                restart_backoff_max_s=0.2,
            ))
            await cluster.start()
            try:
                host, port = cluster.address
                victim = cluster.supervisor.handles()[0]
                victim_pid = victim.process.pid

                async def kill_soon():
                    await asyncio.sleep(0.3)
                    victim.process.kill()

                killer = asyncio.get_running_loop().create_task(
                    kill_soon())
                report = await run_session_load(
                    host, port, _BASE_KEY,
                    sessions=6, requests=20, mode=Mode.CTR,
                    payload_bytes=512,
                    retry=RetryPolicy(attempts=8, base_delay=0.05),
                )
                await killer
                assert report.requests == 6 * 20
                assert report.errors == 0
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 15
                replacement = None
                while loop.time() < deadline:
                    handles = {h.index: h for h in
                               cluster.supervisor.handles()}
                    candidate = handles.get(victim.index)
                    if (candidate is not None
                            and candidate.process.pid != victim_pid
                            and candidate.process.is_alive()):
                        replacement = candidate
                        break
                    await asyncio.sleep(0.05)
                assert replacement is not None, \
                    "supervisor never restarted the killed worker"
                assert replacement.restarts >= 1
                assert replacement.shard == victim.shard
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_clean_exit_shrinks_pool_and_survivor_serves(self):
        """SIGTERM makes a worker drain and exit 0 — intentional, so
        the supervisor shrinks the pool instead of restarting, the
        gateway drops the shard, and rerouted sessions still answer
        (NO_KEY on the new shard is absorbed by the loadgen)."""

        async def scenario():
            cluster = Cluster(ClusterConfig(workers=2))
            await cluster.start()
            try:
                host, port = cluster.address
                handles = cluster.supervisor.handles()
                assert len(handles) == 2
                victim = handles[1]
                victim.process.terminate()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 15
                while (loop.time() < deadline
                       and len(cluster.supervisor.handles()) != 1):
                    await asyncio.sleep(0.05)
                survivors = cluster.supervisor.handles()
                assert len(survivors) == 1
                assert survivors[0].index == 0
                assert victim.process.exitcode == 0
                assert cluster.gateway.shards() == ("worker-0",)
                report = await run_session_load(
                    host, port, _BASE_KEY,
                    sessions=3, requests=3, mode=Mode.CTR,
                    payload_bytes=256,
                    retry=RetryPolicy(attempts=4, base_delay=0.05),
                )
                assert report.errors == 0
                assert report.requests == 9
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestSharedPortTopology:
    """Direct mode: every worker serves one port, no gateway."""

    @pytest.mark.skipif(
        not hasattr(socket, "SO_REUSEPORT"),
        reason="platform has no SO_REUSEPORT",
    )
    def test_so_reuseport(self):
        async def scenario():
            cluster = Cluster(ClusterConfig(
                workers=2, shared_port=0, worker_admin=False,
            ))
            await cluster.start()
            try:
                assert cluster.gateway is None
                host, port = cluster.address
                report = await run_load(
                    host, port, _BASE_KEY,
                    clients=3, requests=3, payload_bytes=256,
                )
                assert report.errors == 0
                assert report.requests == 9
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_refused_without_so_reuseport(self, monkeypatch):
        """No shared-port mode without SO_REUSEPORT: the cluster
        refuses at construction and points at the gateway topology."""
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(RuntimeError, match="SO_REUSEPORT.*gateway"):
            Cluster(ClusterConfig(workers=2, shared_port=0))


class TestClusterCli:
    def test_cluster_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["cluster", "--workers", "3", "--admin-port", "0"])
        assert args.workers == 3
        assert args.gateway_port == 0
        assert args.admin_port == 0
        assert args.shared_port is None

    def test_loadgen_sessions_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--port", "1", "--sessions", "5"])
        assert args.sessions == 5
        args = build_parser().parse_args(
            ["loadgen", "--port", "1"])
        assert args.sessions is None
