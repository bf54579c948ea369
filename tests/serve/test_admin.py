"""Admin/scrape plane and cross-process observability tests.

Covers the admin HTTP endpoints (including drain-aware readiness),
wire trace propagation (client and server spans sharing a trace id),
and the version negotiation that keeps a v2 client talking to a v1
server.
"""

import asyncio
import json

import pytest

from repro.obs.tracing import disable_tracing, enable_tracing
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.gateway import BackendSpec, Gateway, GatewayConfig
from repro.serve.protocol import (
    HEADER_BYTES,
    VERSION,
    Frame,
    Mode,
    Op,
    Status,
    decode_body,
    encode_frame,
)
from repro.serve.server import CryptoServer, ServeConfig


async def _http(host, port, path, method="GET"):
    """One raw HTTP exchange; returns (status_code, body_text)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), 5.0)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (asyncio.TimeoutError, ConnectionError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


async def _admin_server():
    server = CryptoServer(ServeConfig(port=0, admin_port=0))
    await server.start()
    return server


class TestAdminEndpoints:
    def test_healthz_and_readyz_while_serving(self):
        async def scenario():
            server = await _admin_server()
            try:
                host, port = server.admin_address
                assert await _http(host, port, "/healthz") == \
                    (200, "ok\n")
                assert await _http(host, port, "/readyz") == \
                    (200, "ready\n")
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_readyz_is_drain_aware(self):
        async def scenario():
            server = await _admin_server()
            host, port = server.admin_address
            try:
                # Flip the drain flag the way stop() does, before the
                # admin listener goes away with the server.
                server._stopping = True
                status, body = await _http(host, port, "/readyz")
                assert status == 503
                assert "draining" in body
                # Liveness is unaffected by draining.
                status, _ = await _http(host, port, "/healthz")
                assert status == 200
            finally:
                server._stopping = False
                await server.stop()

        asyncio.run(scenario())

    def test_metrics_scrape_has_windowed_quantiles(self):
        async def scenario():
            server = await _admin_server()
            try:
                host, port = server.address
                async with CryptoClient(host, port) as client:
                    await client.load_key(bytes(16))
                    for _ in range(5):
                        reply = await client.encrypt(
                            Mode.CTR, b"\0" * 8 + b"payload")
                        assert reply.status is Status.OK
                ahost, aport = server.admin_address
                status, body = await _http(ahost, aport, "/metrics")
                assert status == 200
                assert ('repro_serve_request_window_seconds'
                        '{op="encrypt",mode="ctr",quantile="0.5"}'
                        in body)
                assert 'quantile="0.95"' in body
                assert 'quantile="0.99"' in body
                assert "repro_serve_queue_wait_window_seconds_count" \
                    in body
                # The ordinary registry families ride along.
                assert "repro_serve_requests_total" in body
            finally:
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("plane", ["server", "gateway"])
    def test_scrapes_report_process_cpu_and_page_faults(self, plane):
        """Two scrapes around N requests: both process counters are
        on each, and neither decreases.  Their growth over the
        requests served is CPU time and page faults per request."""
        names = ("repro_process_cpu_seconds_total",
                 "repro_process_minor_page_faults_total")

        def counters(body):
            values = {}
            for line in body.splitlines():
                name, _, value = line.partition(" ")
                if name in names:
                    values[name] = float(value)
                    assert f"# TYPE {name} counter" in body
            return values

        async def scenario():
            server = await _admin_server()
            gateway = None
            try:
                target, admin = server.address, server.admin_address
                if plane == "gateway":
                    gateway = Gateway(GatewayConfig(port=0,
                                                    admin_port=0))
                    await gateway.start()
                    host, port = server.address
                    gateway.add_backend(BackendSpec(
                        shard="worker-0", host=host, port=port))
                    target = gateway.address
                    admin = gateway.admin_address
                _, first = await _http(*admin, "/metrics")
                async with CryptoClient(
                    *target, retry=RetryPolicy(attempts=1)
                ) as client:
                    await client.load_key(bytes(16))
                    for _ in range(20):
                        reply = await client.encrypt(
                            Mode.GCM, bytes(12 + (64 << 10)))
                        assert reply.status is Status.OK
                _, second = await _http(*admin, "/metrics")
                return counters(first), counters(second)
            finally:
                if gateway is not None:
                    await gateway.stop()
                await server.stop()

        first, second = asyncio.run(scenario())
        assert set(first) == set(second) == set(names)
        for name in names:
            assert second[name] >= first[name], name
        assert second["repro_process_cpu_seconds_total"] > 0

    def test_quantiles_json(self):
        async def scenario():
            server = await _admin_server()
            try:
                host, port = server.address
                async with CryptoClient(host, port) as client:
                    await client.load_key(bytes(16))
                    await client.ping(b"x")
                ahost, aport = server.admin_address
                status, body = await _http(ahost, aport,
                                           "/quantiles")
                assert status == 200
                doc = json.loads(body)
                assert set(doc) == {"request_seconds",
                                    "queue_wait_seconds"}
                samples = doc["request_seconds"]["samples"]
                by_labels = {
                    (s["labels"]["op"], s["labels"]["mode"]): s
                    for s in samples
                }
                ping = by_labels[("ping", "raw")]
                assert ping["count"] == 1
                assert ping["p50_s"] > 0
                assert ping["max_s"] >= ping["p99_s"]
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_unknown_path_404_and_get_only(self):
        async def scenario():
            server = await _admin_server()
            try:
                host, port = server.admin_address
                status, _ = await _http(host, port, "/nope")
                assert status == 404
                status, body = await _http(host, port, "/metrics",
                                           method="POST")
                assert status == 405
                assert "GET-only" in body
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_trace_endpoint_reports_disabled(self):
        async def scenario():
            server = await _admin_server()
            try:
                host, port = server.admin_address
                status, body = await _http(host, port, "/trace")
                assert status == 200
                assert json.loads(body) == {"enabled": False,
                                            "events": []}
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_admin_plane_off_by_default(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            try:
                with pytest.raises(RuntimeError):
                    server.admin_address
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestTracePropagation:
    def test_client_and_server_spans_share_a_trace_id(self):
        tracer = enable_tracing()
        tracer.clear()
        try:
            async def scenario():
                server = CryptoServer(ServeConfig(port=0))
                await server.start()
                try:
                    host, port = server.address
                    async with CryptoClient(host, port) as client:
                        await client.load_key(bytes(16))
                        reply = await client.encrypt(
                            Mode.CTR, b"\0" * 8 + b"data")
                        assert reply.status is Status.OK
                finally:
                    await server.stop()

            asyncio.run(scenario())
        finally:
            disable_tracing()
        events = tracer.events()
        client_spans = [e for e in events
                        if e["name"] == "request"
                        and e.get("cat") == "client"]
        server_spans = [e for e in events
                        if e["name"] == "serve.request"]
        assert client_spans and server_spans
        client_ids = {e["args"]["trace_id"] for e in client_spans}
        server_ids = {e["args"]["trace_id"] for e in server_spans
                      if "trace_id" in e.get("args", {})}
        shared = client_ids & server_ids
        assert shared, (client_ids, server_ids)
        # The queue-wait and write sub-spans carry the ids too.
        sub = [e for e in events
               if e["name"] in ("serve.queue_wait", "serve.write")
               and e.get("args", {}).get("trace_id") in shared]
        assert sub

    def test_untraced_when_tracing_disabled(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            try:
                host, port = server.address
                async with CryptoClient(host, port) as client:
                    await client.load_key(bytes(16))
                    reply = await client.ping(b"probe")
                    assert reply.status is Status.OK
                    # No tracer -> the wire stays version 1.
                    assert reply.trace_id == 0
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_server_echoes_trace_context(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(
                    host, port)
                try:
                    from repro.serve.protocol import (
                        read_frame,
                        write_frame,
                    )
                    request = Frame(op=Op.PING, request_id=7,
                                    payload=b"x", trace_id=0xABC,
                                    parent_span_id=0xDEF)
                    await write_frame(writer, request, timeout=5.0)
                    reply = await read_frame(reader, timeout=5.0)
                    assert reply.status is Status.OK
                    assert reply.trace_id == 0xABC
                    assert reply.parent_span_id == 0xDEF
                finally:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())


class _V1Stub:
    """A frozen version-1 peer: rejects any other version byte the
    way the pre-trace server did — BAD_FRAME with request id 0 —
    and answers version-1 PINGs properly."""

    def __init__(self):
        self.server = None
        self.rejected = 0

    async def start(self):
        self.server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[:2]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        try:
            while True:
                prefix = await reader.readexactly(4)
                body = await reader.readexactly(
                    int.from_bytes(prefix, "big"))
                if body[2] != VERSION:
                    self.rejected += 1
                    reply = Frame(op=Op.PING).error(
                        Status.BAD_FRAME,
                        f"protocol version mismatch: peer speaks "
                        f"{body[2]}",
                    )
                else:
                    reply = decode_body(body).response()
                writer.write(encode_frame(reply))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


class TestVersionNegotiation:
    def test_v2_client_downgrades_against_v1_server(self):
        tracer = enable_tracing()
        tracer.clear()
        try:
            async def scenario():
                stub = _V1Stub()
                host, port = await stub.start()
                try:
                    client = CryptoClient(
                        host, port,
                        retry=RetryPolicy(attempts=3,
                                          base_delay=0.01),
                    )
                    try:
                        # Tracing is on, so the first attempt goes
                        # out traced, gets rejected, and the retry
                        # succeeds untraced.
                        reply = await client.ping(b"hello")
                        assert reply.status is Status.OK
                        assert client._trace_wire is False
                        # Later requests skip the traced attempt.
                        rejected_before = stub.rejected
                        reply = await client.ping(b"again")
                        assert reply.status is Status.OK
                        assert stub.rejected == rejected_before
                    finally:
                        await client.close()
                finally:
                    await stub.stop()
                assert stub.rejected == 1

            asyncio.run(scenario())
        finally:
            disable_tracing()

    def test_v1_frames_still_decode_via_old_header(self):
        # Belt-and-braces: an untraced frame is byte-identical to
        # what a v1 peer produces (header version byte included).
        wire = encode_frame(Frame(op=Op.PING, payload=b"z"))
        assert wire[6] == VERSION
        assert len(wire) == 4 + HEADER_BYTES + 1
