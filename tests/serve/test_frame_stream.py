"""The serve tier's frame connection: ``repro.serve.protocol.FrameStream``.

Every frame connection (the server's accept, ``CryptoClient``, both
sides of the gateway) receives into one buffer per connection.  These
tests pin what that buys and what it must keep:

- ``read_frame`` returns the same frames, or raises the same
  ``FrameError`` with the same ``recoverable`` flag, through a
  ``FrameStream`` as through ``asyncio.StreamReader``, whatever the
  chunk boundaries (a hypothesis differential);
- the stream semantics the serve tier relies on: EOF raises
  ``IncompleteReadError`` with the partial bytes, a half-close keeps
  the write side open, a lost connection reaches a waiting read and
  ``drain()``;
- exact counts: no transport read pause over 200 warm requests at any
  payload size (``asyncio.StreamReader`` paused 4.0 times per 256 KiB
  GCM request and 8.0 per 1,000,000 B one, counting both ends), and a
  warm 256 KiB frame read that peaks at one payload plus 64 KiB
  (2.0x the payload through ``asyncio.StreamReader``);
- a client that half-closes after its requests still gets every reply,
  direct and through the gateway.
"""

import asyncio
import random
import socket
import threading
import tracemalloc
from asyncio import selector_events

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aes import gcm, modes
from repro.obs.metrics import global_registry
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    RECV_BYTES,
    TRACE_VERSION,
    VERSION,
    Frame,
    FrameError,
    FrameStream,
    Mode,
    Op,
    Status,
    encode_frame,
    read_frame,
    start_frame_server,
    write_frame,
)
from tests.serve.test_gateway import _backend, _gateway

KEY = bytes(range(16))


class FakeTransport(asyncio.Transport):
    """Just enough transport for a ``FrameStream`` driven by hand."""

    def __init__(self):
        super().__init__()
        self.paused = False
        self.pauses = 0
        self.closing = False

    def pause_reading(self):
        self.paused = True
        self.pauses += 1

    def resume_reading(self):
        self.paused = False

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


def fed_stream():
    """A ``FrameStream`` over a :class:`FakeTransport`."""
    stream = FrameStream()
    transport = FakeTransport()
    stream.connection_made(transport)
    return stream, transport


async def feed(stream, transport, chunks, eof=True):
    """Deliver ``chunks`` as a socket transport would: each into
    ``get_buffer()``'s memory, never while reading is paused, with a
    loop turn between chunks; then EOF."""
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            while transport.paused:
                await asyncio.sleep(0)
            buffer = stream.get_buffer(-1)
            count = min(len(buffer), len(view))
            buffer[:count] = view[:count]
            view = view[count:]
            stream.buffer_updated(count)
        await asyncio.sleep(0)
    if eof:
        while transport.paused:
            await asyncio.sleep(0)
        stream.eof_received()


async def feed_reader(reader, chunks):
    for chunk in chunks:
        reader.feed_data(chunk)
        await asyncio.sleep(0)
    reader.feed_eof()


async def read_all(reader):
    """Every ``read_frame`` outcome until EOF or a desynchronizing
    error: frames, and errors as ``(type, recoverable)``."""
    outcomes = []
    while True:
        try:
            frame = await read_frame(reader, timeout=5.0)
        except FrameError as exc:
            outcomes.append((type(exc), exc.recoverable))
            if not exc.recoverable:
                return outcomes
            continue
        outcomes.append(frame)
        if frame is None:
            return outcomes


# ----------------------------------------------------- differential
def _frame_wire(draw, traced):
    size = draw(st.one_of(st.integers(0, 64),
                          st.integers(RECV_BYTES - 64, RECV_BYTES + 64),
                          st.integers(0, 3 * RECV_BYTES)))
    payload = random.Random(size).randbytes(size)
    ids = (draw(st.integers(1, 2 ** 64 - 1)),
           draw(st.integers(0, 2 ** 64 - 1))) if traced else (0, 0)
    return encode_frame(Frame(
        op=draw(st.sampled_from(list(Op))),
        mode=draw(st.sampled_from(list(Mode))),
        status=draw(st.sampled_from(list(Status))),
        session_id=draw(st.integers(0, 2 ** 32 - 1)),
        request_id=draw(st.integers(0, 2 ** 64 - 1)),
        payload=payload, trace_id=ids[0], parent_span_id=ids[1]))


@st.composite
def segments(draw):
    """One well-delimited piece of a frame stream."""
    kind = draw(st.sampled_from(
        ["plain", "traced", "undersized", "bad_magic", "bad_version"]))
    if kind in ("plain", "traced"):
        return _frame_wire(draw, kind == "traced")
    if kind == "undersized":
        body = draw(st.binary(max_size=HEADER_BYTES - 1))
        return len(body).to_bytes(4, "big") + body
    wire = bytearray(_frame_wire(draw, draw(st.booleans())))
    if kind == "bad_magic":
        wire[4:6] = draw(st.binary(min_size=2, max_size=2).filter(
            lambda magic: magic != MAGIC))
    else:
        wire[6] = draw(st.integers(0, 255).filter(
            lambda v: v not in (VERSION, TRACE_VERSION)))
    return bytes(wire)


@st.composite
def endings(draw):
    """How the stream ends: a clean EOF, or a desynchronizing tail."""
    kind = draw(st.sampled_from(
        ["eof", "oversized", "mid_prefix", "mid_frame"]))
    if kind == "eof":
        return b""
    if kind == "oversized":
        prefix = draw(st.integers(MAX_FRAME_BYTES + 1, 2 ** 32 - 1))
        return prefix.to_bytes(4, "big") + draw(st.binary(max_size=8))
    if kind == "mid_prefix":
        return draw(st.binary(min_size=1, max_size=3))
    wire = _frame_wire(draw, draw(st.booleans()))
    return wire[:draw(st.integers(4, len(wire) - 1))]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(parts=st.lists(segments(), max_size=6), ending=endings(),
       data=st.data())
def test_frame_stream_reads_like_stream_reader(parts, ending, data):
    wire = b"".join(parts) + ending
    cuts = sorted(set(data.draw(st.lists(
        st.integers(1, max(1, len(wire) - 1)), max_size=12))))
    chunks = [wire[a:b] for a, b in
              zip([0, *cuts], [*cuts, len(wire)]) if wire[a:b]]

    async def through_stream_reader():
        reader = asyncio.StreamReader()
        feeder = asyncio.ensure_future(feed_reader(reader, chunks))
        outcomes = await read_all(reader)
        await feeder
        return outcomes

    async def through_frame_stream():
        stream, transport = fed_stream()
        feeder = asyncio.ensure_future(feed(stream, transport, chunks))
        outcomes = await read_all(stream)
        feeder.cancel()  # it may wait on a pause nobody lifts now
        await asyncio.gather(feeder, return_exceptions=True)
        return outcomes

    expected = asyncio.run(through_stream_reader())
    assert asyncio.run(through_frame_stream()) == expected


# -------------------------------------------------- stream semantics
class TestStreamSemantics:
    def test_eof_raises_incomplete_read_with_partial_bytes(self):
        async def scenario():
            stream, transport = fed_stream()
            await feed(stream, transport, [b"abc"])
            with pytest.raises(asyncio.IncompleteReadError) as info:
                await stream.readexactly(5)
            assert (info.value.partial, info.value.expected) == (
                b"abc", 5)
            with pytest.raises(asyncio.IncompleteReadError) as info:
                await stream.readexactly(1)
            assert info.value.partial == b""

        asyncio.run(scenario())

    def test_buffered_bytes_are_read_before_eof(self):
        async def scenario():
            stream, transport = fed_stream()
            await feed(stream, transport, [b"abcdef"])
            assert await stream.readexactly(4) == b"abcd"
            assert await stream.readexactly(2) == b"ef"

        asyncio.run(scenario())

    def test_lost_connection_reaches_read_and_drain(self):
        async def scenario():
            stream, _ = fed_stream()
            read = asyncio.ensure_future(stream.readexactly(4))
            await asyncio.sleep(0)
            stream.connection_lost(ConnectionResetError("reset"))
            with pytest.raises(ConnectionResetError, match="reset"):
                await read
            with pytest.raises(ConnectionResetError, match="reset"):
                await stream.drain()
            await stream.wait_closed()  # returns: the loss closed it

        asyncio.run(scenario())

    def test_waiting_drain_sees_a_clean_close(self):
        async def scenario():
            stream, _ = fed_stream()
            stream.pause_writing()
            drain = asyncio.ensure_future(stream.drain())
            await asyncio.sleep(0)
            assert not drain.done()
            stream.connection_lost(None)
            with pytest.raises(ConnectionResetError):
                await drain

        asyncio.run(scenario())

    def test_reading_pauses_only_when_full_with_no_read_waiting(self):
        """A read waiting for more than the buffer holds grows it to
        that read plus one receive and pauses nothing; a full buffer
        with no read waiting pauses, and the next read that has to
        wait resumes reading."""
        async def scenario():
            stream, transport = fed_stream()
            big = bytes(3 * RECV_BYTES)
            read = asyncio.ensure_future(stream.readexactly(len(big)))
            await asyncio.sleep(0)
            await feed(stream, transport, [big], eof=False)
            assert await read == big
            assert transport.pauses == 0
            room = len(big) + RECV_BYTES  # kept for the connection
            filler = asyncio.ensure_future(feed(
                stream, transport, [bytes(room + 1)], eof=False))
            for _ in range(100):
                if transport.paused:
                    break
                await asyncio.sleep(0)
            assert transport.pauses == 1
            assert await stream.readexactly(room) == bytes(room)
            assert transport.paused  # satisfied from the buffer
            assert await stream.readexactly(1) == b"\x00"
            assert not transport.paused and transport.pauses == 1
            await filler

        asyncio.run(scenario())

    def test_half_close_keeps_the_write_side_open(self):
        """A peer's EOF ends reading but not writing: the reply written
        after it arrives."""
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_connect(stream):
                accepted.set_result(stream)

            server = await start_frame_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            try:
                stream = await accepted
                writer.write(b"ping")
                writer.write_eof()
                assert await stream.readexactly(4) == b"ping"
                assert await read_frame(stream, timeout=5.0) is None
                await write_frame(stream, Frame(op=Op.PING,
                                                payload=b"pong"))
                reply = await read_frame(reader, timeout=5.0)
                assert reply.payload == b"pong"
                stream.close()
                await stream.wait_closed()
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


# ------------------------------------------------------------ counts
def _gcm_case(size):
    iv, data = bytes(range(GCM_IV_BYTES)), bytes(size)
    ciphertext, tag = gcm.gcm_encrypt(KEY, iv, data)
    return iv + data, ciphertext + tag


@pytest.mark.parametrize("size,requests", [
    (1024, 200), (16 * 1024, 200), (256 * 1024, 200), (1_000_000, 50),
], ids=["1k", "16k", "256k", "1000000"])
def test_warm_requests_pause_no_transport(size, requests, monkeypatch):
    """After connect, LOAD_KEY and five warm-up requests, GCM seals of
    ``size`` bytes pause neither end's transport: counted at the
    transport, and by ``repro_serve_read_pauses_total``.
    ``asyncio.StreamReader`` paused 4.0 times per 256 KiB request and
    8.0 per 1,000,000 B one, between the two ends."""
    payload, expected = _gcm_case(size)
    transport_cls = selector_events._SelectorSocketTransport
    pause_reading = transport_cls.pause_reading
    paused = []

    def counting(transport):
        if transport.is_reading():
            paused.append(transport)
        pause_reading(transport)

    monkeypatch.setattr(transport_cls, "pause_reading", counting)
    counter = global_registry().get("repro_serve_read_pauses_total")

    async def scenario():
        server = await _backend()
        try:
            async with CryptoClient(
                *server.address, retry=RetryPolicy(attempts=1)
            ) as client:
                assert (await client.load_key(KEY)).status is Status.OK
                for _ in range(5):
                    assert (await client.encrypt(Mode.GCM, payload)
                            ).payload == expected
                del paused[:]
                before = counter.value
                for _ in range(requests):
                    reply = await client.encrypt(Mode.GCM, payload)
                    assert reply.payload == expected
                return len(paused), counter.value - before
        finally:
            await server.stop()

    pauses, counted = asyncio.run(scenario())
    assert (pauses, counted) == (0, 0), (
        f"{pauses} transport pauses ({pauses / requests:.1f} per "
        f"request), {counted} counted")


def test_warm_frame_read_peaks_at_one_payload():
    """A warm 256 KiB frame read allocates the payload's ``bytes`` and
    little else: its tracemalloc peak stays within one payload plus
    64 KiB, where ``asyncio.StreamReader`` peaked at 2.0x the payload
    (its receive chunk, its growing ``bytearray``, the copy out)."""
    size = GCM_IV_BYTES + 256 * 1024
    wire = encode_frame(Frame(op=Op.ENCRYPT, mode=Mode.GCM,
                              payload=bytes(size)))

    async def scenario():
        ours, theirs = socket.socketpair()
        _, stream = await asyncio.get_running_loop().create_connection(
            FrameStream, sock=ours)
        theirs.setblocking(True)
        peaks = []
        try:
            for _ in range(3):  # the first read grows the buffer
                sender = threading.Thread(target=theirs.sendall,
                                          args=(wire,))
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    sender.start()
                    frame = await read_frame(stream, timeout=5.0)
                    peaks.append(tracemalloc.get_traced_memory()[1]
                                 - before)
                finally:
                    tracemalloc.stop()
                    sender.join()
                assert len(frame.payload) == size
                del frame
        finally:
            theirs.close()
            stream.close()
            await stream.wait_closed()
        return peaks

    peaks = asyncio.run(scenario())
    assert max(peaks[1:]) <= size + RECV_BYTES, (
        f"warm read peaks {[round(p / size, 2) for p in peaks]}x "
        f"the payload")


# -------------------------------------------------------- half-close
def _half_close_case(case):
    if case == "ctr":
        nonce, data = bytes(CTR_NONCE_BYTES), bytes(1024)
        return (Op.ENCRYPT, Mode.CTR, nonce + data,
                modes.ctr_xcrypt(KEY, nonce, data))
    if case == "gcm-256k":
        return (Op.ENCRYPT, Mode.GCM) + _gcm_case(256 * 1024)
    data = bytes(range(256)) * 16  # ECB decryption runs on the pool
    return Op.DECRYPT, Mode.ECB, data, modes.ecb_decrypt(KEY, data)


@pytest.mark.parametrize("case", ["ctr", "gcm-256k", "ecb-decrypt"])
@pytest.mark.parametrize("through_gateway", [False, True],
                         ids=["direct", "gateway"])
def test_half_closed_client_gets_every_reply(case, through_gateway):
    """A client sends LOAD_KEY and one request, then half-closes.  It
    reads both replies and then EOF, and the open-connection gauges
    fall back to their prior values.  Closing on the EOF dropped the
    ECB decryption reply direct, and every reply through the
    gateway."""
    op, mode, payload, expected = _half_close_case(case)
    gauges = [global_registry().get(name) for name in (
        "repro_serve_open_connections", "repro_gateway_open_connections")]

    async def scenario():
        backend = await _backend()
        gateway = await _gateway([backend]) if through_gateway else None
        before = [gauge.value for gauge in gauges]
        try:
            reader, writer = await asyncio.open_connection(
                *(gateway or backend).address)
            try:
                writer.write(encode_frame(Frame(
                    op=Op.LOAD_KEY, request_id=1, payload=KEY)))
                writer.write(encode_frame(Frame(
                    op=op, mode=mode, request_id=2, payload=payload)))
                writer.write_eof()
                replies = []
                while True:
                    reply = await read_frame(reader, timeout=10.0)
                    if reply is None:
                        break
                    replies.append(reply)
            finally:
                writer.close()
            for _ in range(500):
                if [gauge.value for gauge in gauges] == before:
                    break
                await asyncio.sleep(0.01)
            return replies, before, [gauge.value for gauge in gauges]
        finally:
            if gateway is not None:
                await gateway.stop()
            await backend.stop()

    replies, before, after = asyncio.run(scenario())
    assert [(r.request_id, r.status) for r in replies] == [
        (1, Status.OK), (2, Status.OK)], [r.payload for r in replies]
    assert replies[1].payload == expected
    assert after == before
