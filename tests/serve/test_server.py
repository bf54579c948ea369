"""End-to-end loopback tests of the crypto server.

Everything runs in-process on a loopback socket with an OS-assigned
port; each scenario owns its own event loop via ``asyncio.run`` so no
state leaks between tests.  The tests of the frame loop itself
(malformed frames, slow peers, SHUTDOWN, draining, stop) run against
both services that share it: the server direct, and the gateway in
front of one.
"""

import asyncio
import contextlib
import random
import threading

import pytest

from repro.aes import gcm, modes
from repro.obs.metrics import global_registry
from repro.serve import server as server_module
from repro.serve.client import CryptoClient, RetryPolicy, run_load
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    Mode,
    Op,
    Status,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.server import (
    GCM_MAX_PLAINTEXT_BYTES,
    CryptoServer,
    FrameServer,
    ServeConfig,
    Session,
)
from tests.serve.test_gateway import _FAST, _gateway

#: The open-connection gauge of the service under test, by
#: ``through_gateway``.
_OPEN_GAUGES = {False: "repro_serve_open_connections",
                True: "repro_gateway_open_connections"}

both_services = pytest.mark.parametrize(
    "through_gateway", [False, True], ids=["direct", "gateway"])


def _counter_total(name: str, **labels) -> float:
    metric = global_registry().get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for child in metric.children():
        pairs = dict(child.label_pairs)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += child.value
    return total


async def _started(config: ServeConfig = None) -> CryptoServer:
    server = CryptoServer(config or ServeConfig(port=0))
    await server.start()
    return server


@contextlib.asynccontextmanager
async def _serving(through_gateway: bool, **config):
    """The frame loop under test: a started server, or a gateway in
    front of one.  ``config`` fields go to that service."""
    if not through_gateway:
        server = await _started(ServeConfig(port=0, **config))
        try:
            yield server
        finally:
            await server.stop()
        return
    backend = await _started()
    gateway = await _gateway([backend], **config)
    try:
        yield gateway
    finally:
        await gateway.stop()
        await backend.stop()


class TestEndToEnd:
    def test_concurrent_clients_match_mode_layer(self):
        """>= 8 concurrent clients, each with its own key, across
        ECB/CTR/GCM — every response must match the mode layer
        bit for bit."""

        async def scenario():
            server = await _started()
            host, port = server.address
            rng = random.Random(2003)
            jobs = []
            for index in range(9):
                key = rng.randbytes(16)
                data = rng.randbytes(16 * (4 + index))
                nonce = rng.randbytes(8)
                iv = rng.randbytes(12)
                jobs.append((key, data, nonce, iv))

            async def one_client(index):
                key, data, nonce, iv = jobs[index]
                async with CryptoClient(host, port) as client:
                    reply = await client.load_key(key)
                    assert reply.status is Status.OK
                    # ECB: encrypt then decrypt round-trips, and the
                    # ciphertext is the mode layer's answer.
                    reply = await client.encrypt(Mode.ECB, data)
                    assert reply.status is Status.OK
                    assert reply.payload == \
                        modes.ecb_encrypt(key, data)
                    back = await client.decrypt(Mode.ECB,
                                                reply.payload)
                    assert back.payload == data
                    # CTR with a ragged tail.
                    ragged = data[:-5]
                    reply = await client.encrypt(Mode.CTR,
                                                 nonce + ragged)
                    assert reply.payload == \
                        modes.ctr_xcrypt(key, nonce, ragged)
                    # GCM: ciphertext||tag, and decrypt releases the
                    # plaintext.
                    reply = await client.encrypt(Mode.GCM, iv + data)
                    ct, tag = gcm.gcm_encrypt(key, iv, data)
                    assert reply.payload == ct + tag
                    back = await client.decrypt(Mode.GCM,
                                                iv + reply.payload)
                    assert back.status is Status.OK
                    assert back.payload == data

            try:
                await asyncio.gather(
                    *(one_client(i) for i in range(len(jobs)))
                )
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_gcm_auth_failure_error_frame_and_counter(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            key = bytes(range(16))
            iv = b"\x01" * 12
            before = _counter_total(
                "repro_aes_gcm_auth_failures_total"
            )
            async with CryptoClient(host, port) as client:
                await client.load_key(key)
                reply = await client.encrypt(Mode.GCM, iv + b"secret")
                corrupted = bytearray(reply.payload)
                corrupted[-1] ^= 0x01  # break the tag
                bad = await client.decrypt(Mode.GCM,
                                           iv + bytes(corrupted))
                assert bad.status is Status.AUTH_FAILED
                assert b"secret" not in bad.payload
                # The connection survives the auth failure.
                ok = await client.ping(b"still-alive")
                assert ok.payload == b"still-alive"
            await server.stop()
            after = _counter_total(
                "repro_aes_gcm_auth_failures_total"
            )
            assert after == before + 1

        asyncio.run(scenario())

    def test_crypto_before_load_key_is_no_key(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                reply = await client.encrypt(Mode.ECB, b"x" * 16)
                assert reply.status is Status.NO_KEY
            await server.stop()

        asyncio.run(scenario())

    def test_bad_payloads_answer_bad_request(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                reply = await client.load_key(b"short")
                assert reply.status is Status.BAD_REQUEST
                await client.load_key(bytes(16))
                # Misaligned ECB data.
                reply = await client.encrypt(Mode.ECB, b"x" * 15)
                assert reply.status is Status.BAD_REQUEST
                # CTR payload shorter than its nonce prefix.
                reply = await client.encrypt(Mode.CTR, b"abc")
                assert reply.status is Status.BAD_REQUEST
                # GCM decrypt without room for IV + tag.
                reply = await client.decrypt(Mode.GCM, b"tiny")
                assert reply.status is Status.BAD_REQUEST
                # RAW is not a cipher mode.
                reply = await client.encrypt(Mode.RAW, b"x" * 16)
                assert reply.status is Status.BAD_REQUEST
            await server.stop()

        asyncio.run(scenario())

    def test_oversized_gcm_encrypt_rejected_before_crypto(self):
        """A GCM ENCRYPT whose ciphertext+tag response would not fit
        one frame must bounce with BAD_REQUEST — not raise while
        framing the response and kill the worker task."""

        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                await client.load_key(bytes(16))
                too_big = (bytes(12)
                           + bytes(GCM_MAX_PLAINTEXT_BYTES + 1))
                assert len(too_big) <= MAX_PAYLOAD_BYTES
                reply = await client.encrypt(Mode.GCM, too_big)
                assert reply.status is Status.BAD_REQUEST
                # The worker survived and still drains the queue.
                ok = await client.ping(b"alive")
                assert ok.payload == b"alive"
            await server.stop()

        asyncio.run(scenario())

    def test_unframeable_response_answers_internal(self):
        """Defense in depth behind the up-front size checks: if a
        handler ever produces a response too large to frame, the
        connection gets a small INTERNAL error and the worker
        lives on."""

        async def scenario():
            server = await _started()

            async def huge(session: Session, frame: Frame) -> Frame:
                return frame.response(
                    payload=b"\x00" * (MAX_PAYLOAD_BYTES + 1)
                )

            server._handlers[Op.PING] = huge
            host, port = server.address
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"x")
                assert reply.status is Status.INTERNAL
                # The same connection (and worker) still serves.
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    @both_services
    def test_malformed_frame_answered_connection_survives(
            self, through_gateway):
        async def scenario():
            async with _serving(through_gateway) as service:
                reader, writer = await asyncio.open_connection(
                    *service.address)
                try:
                    # A well-delimited frame with bad magic: BAD_FRAME
                    # response, and the stream stays usable.
                    wire = bytearray(encode_frame(Frame(op=Op.PING)))
                    wire[4:6] = b"XX"
                    writer.write(bytes(wire))
                    await writer.drain()
                    reply = await read_frame(reader, timeout=5.0)
                    assert reply.status is Status.BAD_FRAME
                    # The same connection still answers a good frame.
                    await write_frame(
                        writer, Frame(op=Op.PING, request_id=3,
                                      payload=b"ok"),
                        timeout=5.0,
                    )
                    reply = await read_frame(reader, timeout=5.0)
                    assert reply.status is Status.OK
                    assert reply.payload == b"ok"
                finally:
                    writer.close()

        asyncio.run(scenario())

    @both_services
    def test_oversized_length_prefix_answered_then_closed(
            self, through_gateway):
        """A length prefix past ``MAX_FRAME_BYTES`` desynchronizes the
        stream: the service answers ``BAD_FRAME``, then closes."""

        async def scenario():
            async with _serving(through_gateway) as service:
                reader, writer = await asyncio.open_connection(
                    *service.address)
                try:
                    writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                    await writer.drain()
                    reply = await read_frame(reader, timeout=5.0)
                    async with asyncio.timeout(5.0):
                        tail = await reader.read()
                finally:
                    writer.close()
            return reply, tail

        reply, tail = asyncio.run(scenario())
        assert reply.status is Status.BAD_FRAME
        assert b"length prefix" in reply.payload
        assert tail == b""  # EOF, and nothing after the reply

    @both_services
    @pytest.mark.parametrize("excess", [1, 16])
    def test_over_cap_v1_payload_answered_key_survives(
            self, through_gateway, excess):
        """A version-1 frame fits ``MAX_FRAME_BYTES`` with up to 16
        payload bytes past ``MAX_PAYLOAD_BYTES`` (the room a traced
        frame's context takes).  Such a PING is answered ``BAD_FRAME``
        before any handler runs, and the key the connection loaded
        still encrypts: no ``INTERNAL`` direct, and through the
        gateway no lost upstream (``OVERLOADED``, then ``NO_KEY``)."""
        key = bytes(range(16))
        nonce, data = bytes(CTR_NONCE_BYTES), bytes(range(256)) * 4
        load_key = encode_frame(Frame(op=Op.LOAD_KEY, request_id=1,
                                      payload=key))
        size = MAX_PAYLOAD_BYTES + excess
        head = encode_frame(Frame(op=Op.PING, request_id=2))
        over_cap = ((HEADER_BYTES + size).to_bytes(4, "big")
                    + head[4:] + bytes(size))
        encrypt = encode_frame(Frame(op=Op.ENCRYPT, mode=Mode.CTR,
                                     request_id=3, payload=nonce + data))

        async def scenario():
            async with _serving(through_gateway) as service:
                reader, writer = await asyncio.open_connection(
                    *service.address)
                try:
                    replies = []
                    for wire in (load_key, over_cap, encrypt):
                        writer.write(wire)
                        await writer.drain()
                        replies.append(await read_frame(reader,
                                                        timeout=10.0))
                finally:
                    writer.close()
            return replies

        loaded, refused, encrypted = asyncio.run(scenario())
        assert loaded.status is Status.OK
        assert refused.status is Status.BAD_FRAME, refused.payload
        assert b"exceeds" in refused.payload
        assert (encrypted.request_id, encrypted.status) == (3, Status.OK)
        assert encrypted.payload == modes.ctr_xcrypt(key, nonce, data)

    def test_slow_handler_trips_timeout_connection_survives(self):
        async def scenario():
            config = ServeConfig(port=0, request_timeout=0.1)
            server = await _started(config)

            async def stalled(session: Session,
                              frame: Frame) -> Frame:
                await asyncio.sleep(30.0)
                return frame.response()

            server._handlers[Op.PING] = stalled
            host, port = server.address
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"hello")
                assert reply.status is Status.TIMEOUT
                # The worker abandoned the request; the connection
                # still serves other ops.
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    def test_executor_stall_trips_one_timeout_connection_survives(
        self, monkeypatch
    ):
        # The crypto call itself stalls in the pool thread, past the
        # budget.  The handler's timeout scope in _process is the
        # only timer: one TIMEOUT reply, one timeout count, and the
        # same connection still answers.
        release = threading.Event()

        def stalled(key: bytes, payload: bytes) -> bytes:
            release.wait(10.0)
            return payload

        monkeypatch.setitem(server_module._CRYPTO_OPS,
                            (Op.ENCRYPT, Mode.CTR), stalled)

        async def scenario():
            server = await _started(
                ServeConfig(port=0, request_timeout=0.1)
            )
            host, port = server.address
            before = _counter_total("repro_serve_requests_total",
                                    op="encrypt", status="timeout")
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for request in (
                    Frame(op=Op.LOAD_KEY, request_id=1,
                          payload=bytes(16)),
                    Frame(op=Op.ENCRYPT, mode=Mode.CTR, request_id=2,
                          payload=bytes(24)),
                ):
                    await write_frame(writer, request, timeout=5.0)
                    reply = await read_frame(reader, timeout=5.0)
                    assert reply.request_id == request.request_id
                assert reply.status is Status.TIMEOUT
                # Let the stalled call finish: its result must not
                # reach the wire as a second reply.
                release.set()
                await asyncio.sleep(0.05)
                await write_frame(
                    writer, Frame(op=Op.PING, request_id=3,
                                  payload=b"alive"),
                    timeout=5.0,
                )
                reply = await read_frame(reader, timeout=5.0)
                assert (reply.request_id, reply.status,
                        reply.payload) == (3, Status.OK, b"alive")
            finally:
                release.set()
                writer.close()
                await server.stop()
            after = _counter_total("repro_serve_requests_total",
                                   op="encrypt", status="timeout")
            assert after - before == 1

        asyncio.run(scenario())

    @pytest.mark.parametrize("workers,burst", [(1, 3), (2, 4)])
    def test_full_queue_answers_overloaded(self, workers, burst):
        async def scenario():
            # Every worker wedged by a stalled handler, queue depth 1:
            # the first `workers` pipelined requests each occupy an
            # idle worker (so none counts against the queue), the
            # next sits in the queue, the last must bounce with
            # OVERLOADED.
            config = ServeConfig(port=0, queue_depth=1,
                                 workers=workers,
                                 request_timeout=30.0,
                                 drain_timeout=0.2)
            server = await _started(config)

            async def stalled(session, frame):
                await asyncio.sleep(30.0)
                return frame.response()

            server._handlers[Op.PING] = stalled
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for request_id in range(1, burst + 1):
                    await write_frame(
                        writer,
                        Frame(op=Op.PING, request_id=request_id),
                        timeout=5.0,
                    )
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.OVERLOADED
                assert reply.request_id == burst
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    @both_services
    def test_slow_loris_peer_closed_after_io_timeout(self,
                                                     through_gateway):
        """A peer that sends a 4-byte length prefix and 3 header
        bytes, then stalls, is cut off by the header read's
        ``io_timeout`` (0.2 s): it reads EOF after ~0.2 s with no
        reply bytes, the service's open-connection gauge
        (``repro_serve_open_connections`` or
        ``repro_gateway_open_connections``) drops back by one, and a
        connection opened afterwards is served."""

        async def scenario():
            gauge = global_registry().get(_OPEN_GAUGES[through_gateway])
            loop = asyncio.get_running_loop()
            async with _serving(through_gateway,
                                io_timeout=0.2) as service:
                host, port = service.address
                before = gauge.value
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    wire = encode_frame(Frame(op=Op.PING, request_id=1))
                    start = loop.time()
                    writer.write(wire[:4 + 3])
                    await writer.drain()
                    await asyncio.sleep(0.05)
                    assert gauge.value == before + 1
                    async with asyncio.timeout(5.0):
                        tail = await reader.read()
                    elapsed = loop.time() - start
                finally:
                    writer.close()
                assert tail == b""  # EOF, and no reply bytes before it
                assert 0.15 <= elapsed < 2.0
                assert gauge.value == before
                # Opened (and used at once, well inside io_timeout)
                # after the stalled peer was dropped: served as usual.
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    reply = await client.ping(b"after")
                    assert (reply.status, reply.payload) == (
                        Status.OK, b"after")

        asyncio.run(scenario())

    def test_graceful_shutdown_drains_inflight(self):
        async def scenario():
            config = ServeConfig(port=0, workers=2,
                                 drain_timeout=10.0)
            server = await _started(config)

            release = asyncio.Event()
            processed = []

            async def gated(session, frame):
                await release.wait()
                processed.append(frame.request_id)
                return frame.response(payload=b"done")

            server._handlers[Op.PING] = gated
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, Frame(op=Op.PING, request_id=7),
                              timeout=5.0)
            await asyncio.sleep(0.05)  # let it get queued
            stopper = asyncio.get_running_loop().create_task(
                server.stop()
            )
            await asyncio.sleep(0.05)
            release.set()  # in-flight request completes during drain
            reply = await read_frame(reader, timeout=5.0)
            assert reply.status is Status.OK
            assert reply.payload == b"done"
            await stopper
            assert processed == [7]
            writer.close()

        asyncio.run(scenario())

    def test_stop_waits_for_handlers_already_closing(self):
        """A peer that closes just before stop() leaves its handler
        (``FrameServer._on_connection``) in its ``finally``, out of
        the tracked connections; stop() must still wait for it, or
        asyncio.run cancels it at teardown.  The gateway's copy of
        this test is in ``test_gateway.py``."""
        qualname = FrameServer._on_connection.__qualname__

        def handlers():
            return [task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__ == qualname]

        async def scenario():
            server = await _started()
            _, writer = await asyncio.open_connection(*server.address)
            for _ in range(500):
                if handlers():
                    break
                await asyncio.sleep(0.01)
            running = len(handlers())
            writer.close()
            await asyncio.sleep(0)
            await server.stop()
            return running, handlers()

        running, left = asyncio.run(scenario())
        assert running == 1  # the server's handler was running
        assert left == []

    @both_services
    def test_shutdown_frame_stops_server(self, through_gateway):
        """Two SHUTDOWN frames are both answered OK, but only the first
        starts a stop: the task that runs the service's
        ``on_shutdown`` (its own stop here; the cluster hands the
        gateway its own).  The service then stops, and its listener
        refuses new connections."""

        async def scenario():
            async with _serving(through_gateway) as service:
                calls, release = [], asyncio.Event()
                stop = service._on_shutdown

                async def on_shutdown():
                    calls.append(1)
                    await release.wait()  # until both are answered
                    await stop()

                service._on_shutdown = on_shutdown
                host, port = service.address
                async with CryptoClient(host, port,
                                        retry=_FAST) as client:
                    replies = [await client.shutdown() for _ in range(2)]
                release.set()
                await asyncio.wait_for(service.wait_stopped(), 10.0)
                # The remotely-triggered stop task is strongly
                # referenced (the loop keeps only weak refs to tasks,
                # so an anonymous one could be collected mid-shutdown).
                assert service._stop_task.done()
                with pytest.raises((ConnectionError, OSError)):
                    await asyncio.open_connection(host, port)
            return [reply.status for reply in replies], calls

        statuses, calls = asyncio.run(scenario())
        assert statuses == [Status.OK, Status.OK]
        assert calls == [1]

    def test_worker_task_exception_storm_server_survives(self):
        """Seed-bug regression (PR 5): a burst of handler exceptions
        must not thin out the worker pool.  Every request in the
        storm gets an INTERNAL error frame, every worker task is
        still alive afterwards, and the next honest request is
        served normally."""

        async def scenario():
            config = ServeConfig(port=0, workers=2)
            server = await _started(config)

            async def exploding(session: Session,
                                frame: Frame) -> Frame:
                raise RuntimeError("handler bug")

            honest_ping = server._handlers[Op.PING]
            server._handlers[Op.PING] = exploding
            host, port = server.address

            async def one_client() -> list:
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    return [await client.ping(b"boom")
                            for _ in range(3)]

            # Far more failures than workers, across 8 concurrent
            # connections.
            replies = [
                reply
                for batch in await asyncio.gather(
                    *(one_client() for _ in range(8)))
                for reply in batch
            ]
            assert len(replies) == 24
            assert all(r.status is Status.INTERNAL for r in replies)
            # No worker died: the tasks the storm would have killed
            # before the _worker hardening are all alive.
            assert len(server._workers) == 2
            assert not any(t.done() for t in server._workers)
            # And the pool still serves honest traffic.
            server._handlers[Op.PING] = honest_ping
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"hello")
                assert reply.status is Status.OK
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
                ct = await client.encrypt(Mode.ECB, bytes(32))
                assert ct.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    @both_services
    def test_requests_during_drain_answer_shutting_down(
            self, through_gateway):
        async def scenario():
            async with _serving(through_gateway) as service:
                reader, writer = await asyncio.open_connection(
                    *service.address)
                service._stopping = True  # simulate an in-progress drain
                try:
                    await write_frame(writer,
                                      Frame(op=Op.PING, request_id=1),
                                      timeout=5.0)
                    reply = await read_frame(reader, timeout=5.0)
                    assert reply.status is Status.SHUTTING_DOWN
                    assert reply.request_id == 1
                finally:
                    writer.close()
                    service._stopping = False

        asyncio.run(scenario())


class TestObservability:
    def test_request_and_byte_counters_move(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            before_ok = _counter_total("repro_serve_requests_total",
                                       status="ok")
            before_in = _counter_total("repro_serve_bytes_total",
                                       direction="in")
            report = await run_load(host, port, bytes(16),
                                    clients=2, requests=3,
                                    payload_bytes=256)
            await server.stop()
            assert report.requests == 6
            assert report.errors == 0
            after_ok = _counter_total("repro_serve_requests_total",
                                      status="ok")
            after_in = _counter_total("repro_serve_bytes_total",
                                      direction="in")
            # 2 LOAD_KEYs + 6 encrypts all landed OK.
            assert after_ok - before_ok == 8
            assert after_in > before_in

        asyncio.run(scenario())

    def test_session_repr_redacts_key(self):
        session = Session(session_id=5, key=b"\xaa" * 16)
        text = repr(session)
        assert "aa" * 8 not in text
        assert "loaded" in text

    def test_latency_histogram_populated(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                await client.ping(b"x")
            await server.stop()

        asyncio.run(scenario())
        metric = global_registry().get("repro_serve_request_seconds")
        assert metric is not None
        totals = [child.count for child in metric.children()]
        assert sum(totals) >= 1
