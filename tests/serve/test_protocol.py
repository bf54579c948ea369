"""Frame codec tests: round-trips and hostile-input rejection."""

import asyncio

import pytest

from repro.serve.protocol import (
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    MAX_PAYLOAD_BYTES,
    TRACE_EXT_BYTES,
    TRACE_VERSION,
    VERSION,
    Frame,
    FrameError,
    Mode,
    Op,
    Status,
    decode_body,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)


class TestRoundTrip:
    def test_every_field_survives(self):
        frame = Frame(op=Op.ENCRYPT, mode=Mode.GCM,
                      status=Status.AUTH_FAILED,
                      session_id=0xDEADBEEF,
                      request_id=0x0123456789ABCDEF,
                      payload=b"\x00\xffpayload")
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize("op", list(Op))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_all_op_mode_combinations(self, op, mode):
        frame = Frame(op=op, mode=mode, payload=b"x" * 37)
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize("status", list(Status))
    def test_all_statuses(self, status):
        frame = Frame(op=Op.PING, status=status)
        assert decode_frame(encode_frame(frame)).status is status

    def test_empty_payload(self):
        frame = Frame(op=Op.SHUTDOWN)
        wire = encode_frame(frame)
        assert len(wire) == 4 + HEADER_BYTES
        assert decode_frame(wire) == frame

    def test_max_payload_round_trips(self):
        frame = Frame(op=Op.PING, payload=b"a" * MAX_PAYLOAD_BYTES)
        assert decode_frame(encode_frame(frame)) == frame

    def test_length_prefix_counts_body(self):
        wire = encode_frame(Frame(op=Op.PING, payload=b"abc"))
        assert int.from_bytes(wire[:4], "big") == len(wire) - 4

    def test_frame_repr_hides_payload(self):
        frame = Frame(op=Op.LOAD_KEY, payload=b"\x13" * 16)
        assert "13" * 8 not in repr(frame)

    def test_trace_context_survives_the_wire(self):
        frame = Frame(op=Op.ENCRYPT, mode=Mode.CTR, request_id=7,
                      payload=b"data", trace_id=0x1122334455667788,
                      parent_span_id=0x99AABBCCDDEEFF00)
        wire = encode_frame(frame)
        # Trace context widens the head by TRACE_EXT_BYTES and bumps
        # the version byte to TRACE_VERSION.
        assert len(wire) == 4 + HEADER_BYTES + TRACE_EXT_BYTES + 4
        assert wire[6] == TRACE_VERSION
        assert decode_frame(wire) == frame

    def test_untraced_frame_stays_version_1(self):
        wire = encode_frame(Frame(op=Op.PING, payload=b"x"))
        assert wire[6] == VERSION
        assert len(wire) == 4 + HEADER_BYTES + 1

    def test_traced_max_payload_round_trips(self):
        frame = Frame(op=Op.PING, payload=b"a" * MAX_PAYLOAD_BYTES,
                      trace_id=1)
        assert decode_frame(encode_frame(frame)) == frame

    def test_response_echoes_identity(self):
        request = Frame(op=Op.ENCRYPT, mode=Mode.CTR, session_id=7,
                        request_id=42, payload=b"data")
        reply = request.response(payload=b"out")
        assert (reply.op, reply.mode) == (request.op, request.mode)
        assert reply.request_id == request.request_id
        assert reply.session_id == request.session_id
        assert reply.status is Status.OK
        error = request.error(Status.NO_KEY, "no key")
        assert error.status is Status.NO_KEY
        assert error.payload == b"no key"


class TestRejection:
    def test_oversized_payload_refused_on_encode(self):
        frame = Frame(op=Op.PING,
                      payload=b"a" * (MAX_PAYLOAD_BYTES + 1))
        with pytest.raises(FrameError):
            encode_frame(frame)

    def test_truncated_frame_unrecoverable(self):
        wire = encode_frame(Frame(op=Op.PING, payload=b"abcdef"))
        with pytest.raises(FrameError) as exc_info:
            decode_frame(wire[:-3])
        assert not exc_info.value.recoverable

    def test_short_prefix_unrecoverable(self):
        with pytest.raises(FrameError) as exc_info:
            decode_frame(b"\x00\x01")
        assert not exc_info.value.recoverable

    def test_oversized_length_prefix_unrecoverable(self):
        wire = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"junk"
        with pytest.raises(FrameError) as exc_info:
            decode_frame(wire)
        assert not exc_info.value.recoverable

    def test_bad_magic_recoverable(self):
        wire = bytearray(encode_frame(Frame(op=Op.PING)))
        wire[4:6] = b"XX"
        with pytest.raises(FrameError) as exc_info:
            decode_frame(bytes(wire))
        assert exc_info.value.recoverable

    def test_version_mismatch_recoverable(self):
        wire = bytearray(encode_frame(Frame(op=Op.PING)))
        assert wire[6] == VERSION
        wire[6] = TRACE_VERSION + 1  # no such version
        with pytest.raises(FrameError) as exc_info:
            decode_frame(bytes(wire))
        assert exc_info.value.recoverable
        assert "version" in str(exc_info.value)

    def test_traced_frame_too_short_for_context_recoverable(self):
        # A version-2 frame whose body cannot hold the 16-byte trace
        # context: well-delimited, so the stream stays aligned.
        wire = bytearray(encode_frame(Frame(op=Op.PING,
                                            payload=b"short")))
        wire[6] = TRACE_VERSION
        with pytest.raises(FrameError) as exc_info:
            decode_frame(bytes(wire))
        assert exc_info.value.recoverable
        assert "trace context" in str(exc_info.value)

    def test_unknown_op_recoverable(self):
        wire = bytearray(encode_frame(Frame(op=Op.PING)))
        wire[7] = 250  # no such Op
        with pytest.raises(FrameError) as exc_info:
            decode_frame(bytes(wire))
        assert exc_info.value.recoverable

    def test_garbage_body_rejected(self):
        body = b"\xde\xad\xbe\xef" * 8
        with pytest.raises(FrameError):
            decode_body(body)

    def test_short_body_rejected(self):
        with pytest.raises(FrameError):
            decode_body(MAGIC + bytes([VERSION]))


class _OneShotStream:
    """Minimal writer stub capturing bytes for read-back."""

    def __init__(self):
        self.buffer = bytearray()

    def write(self, data):
        self.buffer.extend(data)

    async def drain(self):
        pass


class TestStreamIO:
    def _reader_for(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_write_then_read_round_trips(self):
        async def scenario():
            writer = _OneShotStream()
            frame = Frame(op=Op.ENCRYPT, mode=Mode.CTR,
                          request_id=9, payload=b"nonce+data")
            await write_frame(writer, frame, timeout=1.0)
            reader = self._reader_for(bytes(writer.buffer))
            assert await read_frame(reader, timeout=1.0) == frame
            # Clean EOF on the boundary reads as None.
            assert await read_frame(reader, timeout=1.0) is None

        asyncio.run(scenario())

    def test_traced_write_then_read_round_trips(self):
        async def scenario():
            writer = _OneShotStream()
            frame = Frame(op=Op.PING, request_id=3, payload=b"hello",
                          trace_id=0xABCD, parent_span_id=0x1234)
            await write_frame(writer, frame, timeout=1.0)
            reader = self._reader_for(bytes(writer.buffer))
            decoded = await read_frame(reader, timeout=1.0)
            assert decoded == frame
            assert decoded.trace_id == 0xABCD
            assert decoded.parent_span_id == 0x1234

        asyncio.run(scenario())

    def test_eof_mid_frame_unrecoverable(self):
        async def scenario():
            wire = encode_frame(Frame(op=Op.PING, payload=b"abcdef"))
            reader = self._reader_for(wire[:-2])
            with pytest.raises(FrameError) as exc_info:
                await read_frame(reader, timeout=1.0)
            assert not exc_info.value.recoverable

        asyncio.run(scenario())

    def test_eof_mid_prefix_unrecoverable(self):
        async def scenario():
            reader = self._reader_for(b"\x00")
            with pytest.raises(FrameError) as exc_info:
                await read_frame(reader, timeout=1.0)
            assert not exc_info.value.recoverable

        asyncio.run(scenario())

    def test_oversized_prefix_rejected_before_buffering(self):
        async def scenario():
            reader = self._reader_for(
                (1 << 31).to_bytes(4, "big") + b"x"
            )
            with pytest.raises(FrameError) as exc_info:
                await read_frame(reader, timeout=1.0)
            assert not exc_info.value.recoverable
            assert "limit" in str(exc_info.value)

        asyncio.run(scenario())


class _StalledDrain(_OneShotStream):
    """A writer whose transport never drains."""

    async def drain(self):
        await asyncio.Event().wait()


class TestStreamTimeouts:
    BUDGET = 0.1

    def test_read_stalled_mid_header_times_out(self):
        """A prefix and 3 header bytes, then nothing (no EOF): the
        header read fails on its own budget."""

        async def scenario():
            wire = encode_frame(Frame(op=Op.PING, payload=b"abc"))
            reader = asyncio.StreamReader()
            reader.feed_data(wire[:4 + 3])
            loop = asyncio.get_running_loop()
            start = loop.time()
            # The outer scope turns a missing bound into a failure
            # instead of a hang.
            async with asyncio.timeout(10 * self.BUDGET):
                with pytest.raises(asyncio.TimeoutError):
                    await read_frame(reader, timeout=self.BUDGET)
            assert loop.time() - start >= 0.8 * self.BUDGET

        asyncio.run(scenario())

    def test_write_stalled_drain_times_out(self):
        async def scenario():
            writer = _StalledDrain()
            frame = Frame(op=Op.PING, request_id=5, payload=b"stuck")
            loop = asyncio.get_running_loop()
            start = loop.time()
            async with asyncio.timeout(10 * self.BUDGET):
                with pytest.raises(asyncio.TimeoutError):
                    await write_frame(writer, frame,
                                      timeout=self.BUDGET)
            assert loop.time() - start >= 0.8 * self.BUDGET
            # The frame was handed to the transport before the drain.
            assert bytes(writer.buffer) == encode_frame(frame)

        asyncio.run(scenario())
