"""Frame codec tests: round-trips, hostile-input rejection and the
per-task deadline that bounds every codec await."""

import asyncio
import time

import pytest

from repro.obs.metrics import global_registry
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
    deadline,
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

    @pytest.mark.parametrize("excess", [1, TRACE_EXT_BYTES])
    def test_over_cap_v1_payload_recoverable(self, excess):
        # A v1 frame fits MAX_FRAME_BYTES with up to TRACE_EXT_BYTES
        # payload bytes past the cap; the decoder refuses them, and
        # the frame was whole, so the stream stays aligned.
        size = MAX_PAYLOAD_BYTES + excess
        head = encode_frame(Frame(op=Op.PING))
        wire = (HEADER_BYTES + size).to_bytes(4, "big") + head[4:] \
            + bytes(size)
        assert len(wire) - 4 <= MAX_FRAME_BYTES
        with pytest.raises(FrameError) as exc_info:
            decode_frame(wire)
        assert exc_info.value.recoverable
        assert f"payload of {size} bytes" in str(exc_info.value)

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


def _deadline_arms():
    return global_registry().get("repro_serve_deadline_arms_total").value


class TestDeadline:
    """The per-task deadline behind every serve-tier bound, checked
    against ``asyncio.timeout``, whose drop-in it is."""

    BUDGET = 0.1

    @pytest.mark.parametrize("armed_by", ["earlier", "later", "exited"])
    def test_expires_on_time_whatever_armed_the_timer(self, armed_by):
        """The task's timer may have been armed before this scope:
        by an exited scope due earlier (it fires first and re-arms),
        by an enclosing scope due later, or by an exited scope due
        later (this scope re-arms it earlier).  The scope expires at
        its own deadline in each case: not at the stale one."""

        async def scenario():
            loop = asyncio.get_running_loop()
            async with asyncio.timeout(10 * self.BUDGET):
                if armed_by == "earlier":
                    async with deadline(self.BUDGET / 5):
                        pass
                elif armed_by == "exited":
                    async with deadline(100.0):
                        pass
                async with deadline(
                        100.0 if armed_by == "later" else None):
                    start = loop.time()
                    with pytest.raises(TimeoutError):
                        async with deadline(self.BUDGET):
                            await asyncio.sleep(100.0)
                    expired = loop.time() - start
            # Timers may fire up to the clock's resolution early.
            assert 0.9 * self.BUDGET <= expired < 5 * self.BUDGET

        asyncio.run(scenario())

    @staticmethod
    async def _nested(scope, outer_budget, inner_budget):
        """What each level of two nested scopes sees."""
        seen = []
        try:
            async with scope(outer_budget):
                try:
                    async with scope(inner_budget):
                        await asyncio.sleep(100.0)
                except BaseException as exc:
                    seen.append(("inner", type(exc).__name__))
                    raise
        except BaseException as exc:
            seen.append(("outer", type(exc).__name__))
        seen.append(("cancelling", asyncio.current_task().cancelling()))
        return seen

    @pytest.mark.parametrize("outer,inner", [
        (10.0, 0.05), (0.05, 10.0), (0.05, 0.05), (None, 0.05),
        (0.05, None),
    ], ids=["inner-expires", "outer-expires", "same-deadline",
            "outer-unbounded", "inner-unbounded"])
    def test_nested_scopes_match_asyncio_timeout(self, outer, inner):
        """The scope whose own budget ran out raises TimeoutError,
        and the enclosing scope sees what ``asyncio.timeout`` shows
        it: the inner TimeoutError, or a CancelledError it converts
        itself."""
        expected = asyncio.run(
            self._nested(asyncio.timeout, outer, inner))
        assert asyncio.run(self._nested(deadline, outer, inner)) \
            == expected
        assert ("outer", "TimeoutError") in expected

    @staticmethod
    async def _cancelled_inside(scope, also_expire):
        """An outside cancel of a task waiting in a scope, alone or
        landing with the scope's own expiry."""
        loop = asyncio.get_running_loop()

        async def victim():
            async with scope(0.05):
                await asyncio.sleep(100.0)

        task = loop.create_task(victim())
        await asyncio.sleep(0.01)
        if also_expire:
            # Hold the loop past the deadline: on the next turn the
            # cancel runs, then the due timer, before the task resumes.
            time.sleep(0.06)
            loop.call_soon(task.cancel)
        else:
            task.cancel()
        try:
            await task
        except BaseException as exc:
            return type(exc).__name__, task.cancelling()
        return "returned", task.cancelling()

    @pytest.mark.parametrize("also_expire", [False, True],
                             ids=["alone", "with-expiry"])
    def test_outside_cancel_stays_cancelled(self, also_expire):
        """``stop()`` cancelling a worker inside its handler scope
        must end the worker, not read as a request timeout."""
        expected = asyncio.run(
            self._cancelled_inside(asyncio.timeout, also_expire))
        assert expected[0] == "CancelledError"
        assert asyncio.run(
            self._cancelled_inside(deadline, also_expire)) == expected

    def test_none_budget_never_expires(self):
        """Alone it arms nothing; inside a bounded scope it keeps
        that scope's deadline (the ``inner-unbounded`` case above)."""

        async def scenario():
            before = _deadline_arms()
            async with deadline(None):
                await asyncio.sleep(2 * self.BUDGET)
            assert _deadline_arms() == before

        asyncio.run(scenario())

    def test_finished_task_leaves_no_live_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            armed = []
            call_at = loop.call_at

            def recording(when, callback, *args, **kwargs):
                armed.append(call_at(when, callback, *args, **kwargs))
                return armed[-1]

            loop.call_at = recording

            async def served():
                async with deadline(100.0):
                    await asyncio.sleep(0)
                async with deadline(10.0):  # re-arms earlier
                    pass

            await loop.create_task(served())
            await asyncio.sleep(0)  # let the done callbacks run
            assert len(armed) == 2
            assert all(handle.cancelled() for handle in armed)

        asyncio.run(scenario())

    def test_arms_are_counted(self):
        """One arm for the task's first scope, none for a scope due
        later, one for a scope due earlier."""

        async def scenario():
            before = _deadline_arms()
            async with deadline(10.0):
                pass
            async with deadline(20.0):
                async with deadline(30.0):
                    pass
            assert _deadline_arms() - before == 1
            async with deadline(1.0):
                pass
            assert _deadline_arms() - before == 2

        asyncio.run(scenario())
