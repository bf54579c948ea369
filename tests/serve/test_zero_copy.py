"""Zero-copy codec regressions: the copy tax must not come back.

Three properties, each of which held false before the split codec:

- ``encode_frame_views`` passes an immutable payload through as the
  *same object* — no defensive ``bytes()`` copy, no concatenation.
- The send path (``write_frame``) writes head and payload as two
  parts, and a reply's tail as a third; the payload buffer on the
  transport *is* the frame's.
- The streaming read path (a ``FrameStream``, the serve tier's frame
  connection) adopts ``readexactly``'s buffer into the decoded frame
  without a reassembly slice, and parses the length prefix exactly
  once (``decode_payload``).

The allocation-count test pins the whole send path with tracemalloc:
encoding a frame must not allocate anything proportional to the
payload.
"""

import asyncio
import tracemalloc

import pytest

from repro.serve.protocol import (
    HEADER_BYTES,
    Frame,
    FrameError,
    Mode,
    Op,
    Status,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_frame_views,
    read_frame,
    write_frame,
)
from tests.serve.test_frame_stream import feed, fed_stream


def _frame(payload: bytes) -> Frame:
    return Frame(op=Op.ENCRYPT, mode=Mode.GCM, status=Status.OK,
                 session_id=7, request_id=99, payload=payload)


class _CollectingWriter:
    """StreamWriter stand-in recording every buffer written."""

    def __init__(self):
        self.buffers = []

    def write(self, data):
        self.buffers.append(data)

    async def drain(self):
        pass


class TestEncodeViews:
    def test_payload_passes_through_unc_copied(self):
        payload = bytes(range(256)) * 64
        head, out = encode_frame_views(_frame(payload))
        assert out is payload, "payload was copied on encode"

    def test_head_is_prefix_plus_header(self):
        frame = _frame(b"abc")
        head, payload = encode_frame_views(frame)
        assert len(head) == 4 + HEADER_BYTES
        assert head + payload == encode_frame(frame)

    def test_views_roundtrip_through_decode(self):
        frame = _frame(b"payload-bytes")
        head, payload = encode_frame_views(frame)
        assert decode_frame(head + payload) == frame

    def test_mutable_payload_still_copied(self):
        # The defensive copy survives for the one case that needs
        # it: a caller handing in a mutable buffer.
        payload = bytearray(b"mutable")
        head, out = encode_frame_views(
            _frame(payload))  # type: ignore[arg-type]
        assert isinstance(out, bytes)
        payload[0] = 0
        assert out == b"mutable"

    def test_oversized_payload_rejected(self):
        from repro.serve.protocol import MAX_PAYLOAD_BYTES
        with pytest.raises(FrameError):
            encode_frame_views(_frame(bytes(MAX_PAYLOAD_BYTES + 1)))

    @pytest.mark.parametrize("trace", [(0, 0), (5, 6)],
                             ids=["plain", "traced"])
    def test_tail_encodes_as_the_joined_payload(self, trace):
        # A reply's tail goes on the wire as the rest of its payload:
        # the peer decodes one payload, and never a tail.
        trace_id, parent_span_id = trace
        ciphertext, tag = bytes(range(200)), bytes(range(16))
        fields = dict(op=Op.ENCRYPT, mode=Mode.GCM, request_id=99,
                      trace_id=trace_id, parent_span_id=parent_span_id)
        joined = Frame(payload=ciphertext + tag, **fields)
        split = Frame(payload=ciphertext, tail=tag, **fields)
        assert split.wire_payload_bytes == len(ciphertext + tag)
        assert encode_frame(split) == encode_frame(joined)
        assert decode_frame(encode_frame(split)) == joined
        head, payload = encode_frame_views(split)
        assert payload is ciphertext
        assert head + payload + tag == encode_frame(joined)

    def test_tail_counts_toward_the_frame_limit(self):
        from repro.serve.protocol import MAX_PAYLOAD_BYTES
        fits = Frame(op=Op.ENCRYPT, payload=bytes(MAX_PAYLOAD_BYTES - 16),
                     tail=bytes(16))
        assert len(encode_frame(fits)) == 4 + HEADER_BYTES \
            + MAX_PAYLOAD_BYTES
        with pytest.raises(FrameError):
            encode_frame_views(Frame(
                op=Op.ENCRYPT, payload=bytes(MAX_PAYLOAD_BYTES - 15),
                tail=bytes(16)))

    def test_no_payload_sized_allocation_on_encode(self):
        """Allocation-count regression: encoding must cost O(head),
        not O(payload)."""
        payload = bytes(512 * 1024)
        frame = _frame(payload)
        encode_frame_views(frame)  # warm anything lazy
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(8):
                encode_frame_views(frame)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 8 encodes of a 512 KiB payload would have copied 4 MiB;
        # heads plus bookkeeping stay well under 64 KiB.
        assert peak - before < 64 * 1024


class TestSendPath:
    def test_write_frame_writes_payload_object(self):
        payload = b"x" * 4096
        frame = _frame(payload)
        writer = _CollectingWriter()
        asyncio.run(write_frame(writer, frame, timeout=1.0))
        assert len(writer.buffers) == 2
        assert writer.buffers[1] is payload, \
            "send path copied the payload"
        assert b"".join(writer.buffers) == encode_frame(frame)

    def test_write_frame_writes_tail_object_unjoined(self):
        payload, tail = b"x" * 4096, b"t" * 16
        frame = Frame(op=Op.ENCRYPT, mode=Mode.GCM, payload=payload,
                      tail=tail)
        writer = _CollectingWriter()
        asyncio.run(write_frame(writer, frame, timeout=1.0))
        assert len(writer.buffers) == 3
        assert writer.buffers[1] is payload
        assert writer.buffers[2] is tail
        assert b"".join(writer.buffers) == encode_frame(frame)

    def test_write_frame_skips_empty_payload(self):
        frame = _frame(b"")
        writer = _CollectingWriter()
        asyncio.run(write_frame(writer, frame, timeout=1.0))
        assert len(writer.buffers) == 1
        assert writer.buffers[0] == encode_frame(frame)


class TestReadPath:
    @staticmethod
    def _read(wire: bytes):
        async def scenario():
            stream, transport = fed_stream()
            feeder = asyncio.ensure_future(feed(stream, transport, [wire]))
            try:
                return await read_frame(stream, timeout=1.0)
            finally:
                feeder.cancel()
        return asyncio.run(scenario())

    def test_roundtrip(self):
        frame = _frame(b"p" * 1000)
        assert self._read(encode_frame(frame)) == frame

    def test_payload_is_one_bytes_copy(self):
        """The payload comes out of the receive buffer as immutable
        ``bytes`` (one copy), never a view into memory the next
        receive overwrites."""
        payload = bytes(range(256)) * 400
        decoded = self._read(encode_frame(_frame(payload)))
        assert type(decoded.payload) is bytes
        assert decoded.payload == payload

    def test_decode_payload_parses_length_exactly_once(self):
        frame = _frame(b"abcdef")
        wire = encode_frame(frame)
        header, payload = wire[4:4 + HEADER_BYTES], \
            wire[4 + HEADER_BYTES:]
        decoded = decode_payload(header, payload)
        assert decoded == frame
        assert decoded.payload is payload, \
            "decode_payload copied the payload buffer"

    def test_decode_payload_rejects_bad_header_split(self):
        with pytest.raises(FrameError) as info:
            decode_payload(b"short", b"")
        assert info.value.recoverable

    def test_undersized_body_still_recoverable(self):
        # body_len < HEADER_BYTES goes through decode_body and must
        # classify exactly as before the split reader.
        wire = (5).to_bytes(4, "big") + b"RJxyz"
        with pytest.raises(FrameError) as info:
            self._read(wire)
        assert info.value.recoverable
        assert "shorter" in str(info.value)
