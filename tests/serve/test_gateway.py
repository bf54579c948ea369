"""Gateway tests: hash-ring determinism, session affinity, shedding,
drain semantics and backend loss.

The ring tests are pure; the end-to-end tests put real in-process
:class:`CryptoServer` backends behind one :class:`Gateway` on
loopback, each scenario owning its own event loop via ``asyncio.run``
(the same discipline as ``test_server.py``).  The frame loop the
gateway shares with the server (malformed frames, slow peers,
SHUTDOWN, draining, stop) is tested against both services in
``test_server.py``; the multi-*process* topology lives in
``test_cluster.py``.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aes import modes
from repro.serve.client import (
    CryptoClient,
    RetryPolicy,
    derive_session_key,
    run_load,
)
from repro.serve.gateway import (
    BackendSpec,
    Gateway,
    GatewayConfig,
    HashRing,
    _probe_ready,
)
from repro.serve.protocol import Frame, Mode, Op, Status, \
    read_frame, write_frame
from repro.serve.server import CryptoServer, FrameServer, ServeConfig

_SRC = Path(__file__).resolve().parents[2] / "src"


class TestHashRing:
    MEMBERS = ("worker-0", "worker-1", "worker-2", "worker-3")

    def _ring(self, members=MEMBERS):
        ring = HashRing()
        for member in members:
            ring.add(member)
        return ring

    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)

    def test_empty_ring_has_no_owner(self):
        assert HashRing().lookup(1) is None

    def test_add_and_remove_are_idempotent(self):
        ring = self._ring()
        before = [ring.lookup(k) for k in range(64)]
        ring.add("worker-0")
        ring.remove("no-such-member")
        assert [ring.lookup(k) for k in range(64)] == before
        assert ring.members() == tuple(sorted(self.MEMBERS))

    def test_placement_is_deterministic_across_processes(self):
        """blake2b points, not the salted builtin hash: a fresh
        interpreter places every key identically (a restarted
        gateway must not re-shard live sessions)."""
        ring = self._ring()
        local = ",".join(ring.lookup(k) for k in range(1, 65))
        code = (
            "from repro.serve.gateway import HashRing\n"
            "ring = HashRing()\n"
            f"for m in {self.MEMBERS!r}:\n"
            "    ring.add(m)\n"
            "print(','.join(ring.lookup(k) for k in range(1, 65)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == local

    def test_remove_remaps_only_the_lost_members_keys(self):
        ring = self._ring()
        keys = range(1, 513)
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("worker-2")
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != "worker-2":
                # Surviving members keep every key they owned.
                assert after[k] == before[k]
            else:
                assert after[k] != "worker-2"
        moved = sum(1 for k in keys if before[k] != after[k])
        owned = sum(1 for k in keys if before[k] == "worker-2")
        assert moved == owned

    def test_rejoin_restores_original_placement(self):
        ring = self._ring()
        keys = range(1, 257)
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("worker-1")
        ring.add("worker-1")
        assert {k: ring.lookup(k) for k in keys} == before

    def test_load_spreads_over_every_member(self):
        ring = self._ring()
        counts = {member: 0 for member in self.MEMBERS}
        for k in range(4096):
            counts[ring.lookup(k)] += 1
        # 64 virtual nodes per member keep the spread coarse-even;
        # the bound here is deliberately loose (determinism makes it
        # stable, the assertion just guards against a degenerate
        # ring that parks everything on one member).
        for member, count in counts.items():
            assert count > 4096 * 0.05, (member, counts)


def _counter_total(name: str, **labels) -> float:
    from repro.obs.metrics import global_registry

    metric = global_registry().get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for child in metric.children():
        pairs = dict(child.label_pairs)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += child.value
    return total


async def _backend() -> CryptoServer:
    server = CryptoServer(ServeConfig(port=0))
    await server.start()
    return server


async def _gateway(backends, **config) -> Gateway:
    gateway = Gateway(GatewayConfig(port=0, **config))
    await gateway.start()
    for index, server in enumerate(backends):
        host, port = server.address
        gateway.add_backend(BackendSpec(
            shard=f"worker-{index}", host=host, port=port,
        ))
    return gateway


_FAST = RetryPolicy(attempts=1, base_delay=0.0)


class TestGatewayRouting:
    def test_session_affinity_and_correctness(self):
        """Nonzero session ids: one LOAD_KEY, then every request on
        the same connection answers from the worker holding that key
        — a reroute would surface as NO_KEY, so all-OK plus matching
        ciphertext *is* the affinity proof."""

        async def scenario():
            backends = [await _backend() for _ in range(3)]
            gateway = await _gateway(backends)
            host, port = gateway.address
            base_key = bytes(range(16))
            placements = {sid: gateway.shard_for(sid)
                          for sid in range(1, 9)}
            # The sessions below must actually exercise more than
            # one shard for this test to mean anything.
            assert len(set(placements.values())) >= 2

            async def one_session(sid):
                key = derive_session_key(base_key, sid)
                data = bytes((sid + i) % 256 for i in range(64))
                nonce = sid.to_bytes(8, "big")
                async with CryptoClient(host, port, retry=_FAST,
                                        session_id=sid) as client:
                    reply = await client.load_key(key)
                    assert reply.status is Status.OK
                    for _ in range(6):
                        reply = await client.encrypt(Mode.CTR,
                                                     nonce + data)
                        assert reply.status is Status.OK
                        assert reply.payload == \
                            modes.ctr_xcrypt(key, nonce, data)

            try:
                await asyncio.gather(
                    *(one_session(sid) for sid in placements)
                )
            finally:
                await gateway.stop()
                for server in backends:
                    await server.stop()

        asyncio.run(scenario())

    def test_anonymous_connection_pins_to_one_worker(self):
        """Session id 0 hashes by a per-connection key: LOAD_KEY and
        the follow-ups land on one worker even without a session."""

        async def scenario():
            backends = [await _backend() for _ in range(3)]
            gateway = await _gateway(backends)
            host, port = gateway.address
            key = bytes(range(16))
            try:
                for _ in range(4):  # distinct fallback keys
                    async with CryptoClient(host, port,
                                            retry=_FAST) as client:
                        reply = await client.load_key(key)
                        assert reply.status is Status.OK
                        for _ in range(4):
                            reply = await client.encrypt(
                                Mode.ECB, bytes(16))
                            assert reply.status is Status.OK
            finally:
                await gateway.stop()
                for server in backends:
                    await server.stop()

        asyncio.run(scenario())

    def test_no_backend_is_a_retryable_overloaded(self):
        async def scenario():
            gateway = await _gateway([])
            host, port = gateway.address
            try:
                async with CryptoClient(host, port,
                                        retry=_FAST) as client:
                    reply = await client.ping()
                    assert reply.status is Status.OVERLOADED
                    assert b"no healthy backend" in reply.payload
            finally:
                await gateway.stop()

        asyncio.run(scenario())

    def test_saturated_shard_sheds(self):
        """shed_inflight=0 makes every route a shed: the gateway
        answers OVERLOADED itself and counts the outcome."""

        async def scenario():
            backend = await _backend()
            gateway = await _gateway([backend], shed_inflight=0)
            host, port = gateway.address
            before = _counter_total("repro_gateway_requests_total",
                                    outcome="shed")
            try:
                async with CryptoClient(host, port,
                                        retry=_FAST) as client:
                    reply = await client.ping()
                    assert reply.status is Status.OVERLOADED
                    assert b"saturated" in reply.payload
            finally:
                await gateway.stop()
                await backend.stop()
            assert _counter_total("repro_gateway_requests_total",
                                  outcome="shed") > before

        asyncio.run(scenario())

    def test_trace_context_passes_through(self):
        """A v2 traced frame keeps its trace ids across both hops
        (client->gateway, gateway->worker) and back."""

        async def scenario():
            backend = await _backend()
            gateway = await _gateway([backend])
            host, port = gateway.address
            try:
                reader, writer = await asyncio.open_connection(
                    host, port)
                try:
                    await write_frame(writer, Frame(
                        op=Op.PING, request_id=7, payload=b"t",
                        session_id=3,
                        trace_id=0x1234, parent_span_id=0x5678,
                    ), timeout=10.0)
                    reply = await read_frame(reader, timeout=10.0)
                finally:
                    writer.close()
                assert reply is not None
                assert reply.status is Status.OK
                assert reply.request_id == 7
                assert reply.trace_id == 0x1234
                assert reply.parent_span_id == 0x5678
            finally:
                await gateway.stop()
                await backend.stop()

        asyncio.run(scenario())


class TestGatewayLifecycle:
    def test_lost_backend_answers_retryable_then_leaves_ring(self):
        async def scenario():
            backend = await _backend()
            gateway = await _gateway([backend])
            host, port = gateway.address
            try:
                async with CryptoClient(host, port, retry=_FAST,
                                        session_id=1) as client:
                    reply = await client.load_key(bytes(16))
                    assert reply.status is Status.OK
                    await backend.stop()
                    # The dead upstream surfaces as OVERLOADED —
                    # retryable, so a real client's backoff absorbs
                    # it — and the failed dial drops the shard.
                    reply = await client.ping()
                    assert reply.status is Status.OVERLOADED
                    deadline = asyncio.get_running_loop().time() + 5
                    while (gateway.shards()
                           and asyncio.get_running_loop().time()
                           < deadline):
                        reply = await client.ping()
                        assert reply.status is Status.OVERLOADED
                        await asyncio.sleep(0.02)
                    assert gateway.shards() == ()
                    reply = await client.ping()
                    assert reply.status is Status.OVERLOADED
                    assert b"no healthy backend" in reply.payload
            finally:
                await gateway.stop()

        asyncio.run(scenario())

    def test_readyz_requires_a_healthy_backend(self):
        """Drain-aware readiness: an empty ring answers 503 on
        /readyz; registering a backend flips it to 200."""

        async def scenario():
            gateway = Gateway(GatewayConfig(port=0, admin_port=0))
            await gateway.start()
            backend = await _backend()
            try:
                host, port = gateway.admin_address
                assert not await _probe_ready(host, port, 5.0)
                bhost, bport = backend.address
                gateway.add_backend(BackendSpec(
                    shard="worker-0", host=bhost, port=bport))
                assert await _probe_ready(host, port, 5.0)
            finally:
                await gateway.stop()
                await backend.stop()
            # Stopped: the admin plane is gone, the probe fails.
            assert not await _probe_ready(host, port, 2.0)

        asyncio.run(scenario())

    def test_stop_ends_health_loop_when_a_probe_swallows_cancel(
            self, monkeypatch):
        """A probe that absorbs stop()'s cancel of the health loop
        (as a 3.11 ``wait_for`` finishing at that moment did) returns
        its result anyway; stop() must still return, without probing
        the remaining backends or touching the ring."""
        interval = 0.1

        async def scenario():
            probing = asyncio.Event()
            probed, swallowed = [], []

            async def probe(host, port, timeout):
                probed.append(port)
                probing.set()
                try:
                    await asyncio.sleep(timeout)
                except asyncio.CancelledError:
                    if swallowed:
                        raise
                    swallowed.append(True)
                return False

            monkeypatch.setattr("repro.serve.gateway._probe_ready",
                                probe)
            gateway = Gateway(GatewayConfig(
                port=0, health_interval_s=interval,
                health_timeout_s=30.0))
            await gateway.start()
            for i in range(2):
                gateway.add_backend(BackendSpec(
                    shard=f"worker-{i}", host="127.0.0.1", port=1 + i,
                    admin_port=1 + i))
            await asyncio.wait_for(probing.wait(), 5.0)
            await asyncio.wait_for(gateway.stop(), 5 * interval)
            assert swallowed
            assert probed == [1]
            assert all(state.healthy
                       for state in gateway._backends.values())

        asyncio.run(scenario())

    def test_stop_waits_for_handlers_already_closing(self):
        """As for the server: a handler whose peer closed just before
        stop() is still in its ``finally``; stop() waits for it.  The
        gateway runs the server's handler,
        ``FrameServer._on_connection``."""
        qualname = FrameServer._on_connection.__qualname__

        def handlers():
            return [task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__ == qualname]

        async def scenario():
            gateway = Gateway(GatewayConfig(port=0))
            await gateway.start()
            host, port = gateway.address
            _, writer = await asyncio.open_connection(host, port)
            for _ in range(500):
                if handlers():
                    break
                await asyncio.sleep(0.01)
            running = len(handlers())
            writer.close()
            await asyncio.sleep(0)
            await gateway.stop()
            return running, handlers()

        running, left = asyncio.run(scenario())
        assert running == 1  # the gateway's handler was running
        assert left == []

    def test_session_load_through_gateway(self):
        """The loadgen's keyed sessions against in-process backends:
        every request answered, zero errors, per-shard latency
        windows populated."""

        async def scenario():
            backends = [await _backend() for _ in range(2)]
            gateway = await _gateway(backends)
            host, port = gateway.address
            try:
                report = await run_load(
                    host, port, bytes(range(16)),
                    clients=6, requests=4, mode=Mode.CTR,
                    payload_bytes=256,
                )
            finally:
                await gateway.stop()
                for server in backends:
                    await server.stop()
            assert report.errors == 0
            assert report.requests == 6 * 4
            snapshot = gateway.quantiles_snapshot()["routed_seconds"]
            assert snapshot  # at least one shard window observed
            text = gateway.metrics_text()
            assert "repro_gateway_requests_total" in text
            assert "repro_gateway_request_window_seconds" in text

        asyncio.run(scenario())
