"""The wire protocol of the crypto service: versioned binary frames.

The paper's deployment story (§2) is a network link protected by the
Rijndael IP after an asymmetric key exchange; :mod:`repro.serve` is
the software realization of that link, and this module is its
normative wire format — the network analogue of the pin-level bus
protocol in ``docs/protocol.md``.

A frame is a 4-byte big-endian length prefix followed by a fixed
18-byte header and a payload::

    +--------+-------+---------+----+------+--------+
    | length | magic | version | op | mode | status |
    | 4      | 2     | 1       | 1  | 1    | 1      |
    +--------+-------+---------+----+------+--------+
    | session id | request id | payload |
    | 4          | 8          | ...     |
    +------------+------------+---------+

The length prefix counts the header plus payload (never itself).
Limits are explicit and enforced *before* any allocation or crypto,
in the same up-front style as :func:`repro.aes.gcm._check_lengths`:
an oversized length prefix is rejected as soon as the 4 bytes are
read, so a hostile peer cannot make the server buffer an arbitrary
payload.  Malformed frames raise :class:`FrameError`; the error's
``recoverable`` flag tells the connection loop whether the byte
stream is still framed (bad magic inside a well-sized frame) or
desynchronized beyond repair (truncation, oversized prefix).

Requests carry ``status == Status.OK``; responses echo the request's
``op``/``mode``/``request_id`` and set ``status`` to the verdict.
Error responses put a short UTF-8 diagnostic in the payload — never
key material.

Version :data:`TRACE_VERSION` frames additionally carry a 16-byte
trace context (trace id + parent span id) between the header and the
payload, letting a client stitch its ``request`` span to the
server's ``serve.request`` span in one merged Chrome trace.  The
extension is negotiated downward: a version-1 peer answers a traced
frame with a well-delimited ``BAD_FRAME``, and the client falls back
to plain frames for the rest of the connection.
"""

from __future__ import annotations

import asyncio
import contextvars
import enum
import math
import struct
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Coroutine, List, Optional, Tuple, \
    Union

from repro.obs.metrics import global_registry

#: Two magic bytes opening every frame body ("RJ" for Rijndael).
MAGIC = b"RJ"

#: Protocol version this module speaks.  A peer announcing any other
#: version is rejected with a recoverable :class:`FrameError` — the
#: frame is well-delimited, so the connection survives.
VERSION = 1

#: Negotiated extension version: identical to :data:`VERSION` frames
#: except that a 16-byte trace context (trace id + parent span id,
#: two big-endian u64s) sits between the header and the payload.  A
#: peer that only speaks version 1 rejects such a frame with a
#: well-delimited BAD_FRAME response, which the client takes as the
#: signal to fall back to plain version-1 frames — so tracing is
#: strictly opt-in on the wire and v1 deployments interoperate.
TRACE_VERSION = 2

#: Frame header layout past the length prefix: magic, version, op,
#: mode, status, session id, request id.
_HEADER = struct.Struct(">2sBBBBIQ")
HEADER_BYTES = _HEADER.size

#: The optional trace-context extension of :data:`TRACE_VERSION`
#: frames: trace id, then parent span id.
_TRACE_EXT = struct.Struct(">QQ")
TRACE_EXT_BYTES = _TRACE_EXT.size

#: Hard cap on one frame's payload.  Mirrors the up-front operand
#: limits of :func:`repro.aes.gcm._check_lengths`: the bound is
#: checked on lengths alone, before any buffer exists.  1 MiB per
#: frame keeps the server's worst-case buffering bounded while still
#: covering the bench payload sizes; bulk transfers chunk client-side.
MAX_PAYLOAD_BYTES = 1 << 20

#: Largest legal length-prefix value (header + trace extension +
#: payload) — sized so a traced frame still carries a full payload.
MAX_FRAME_BYTES = HEADER_BYTES + TRACE_EXT_BYTES + MAX_PAYLOAD_BYTES


class Op(enum.IntEnum):
    """Request operations the service understands."""

    LOAD_KEY = 1     #: payload = 16-byte AES-128 session key
    ENCRYPT = 2      #: payload per :class:`Mode`, returns ciphertext
    DECRYPT = 3      #: payload per :class:`Mode`, returns plaintext
    PING = 4         #: payload echoed back verbatim
    SHUTDOWN = 5     #: ask the server to drain and stop


class Mode(enum.IntEnum):
    """Cipher mode selector for ENCRYPT/DECRYPT frames.

    Payload conventions (all lengths in bytes):

    - ``ECB`` — payload is the 16-aligned data; response is the
      transformed data.
    - ``CTR`` — payload is an 8-byte nonce followed by data of any
      length; encrypt and decrypt are the same operation.
    - ``GCM`` — encrypt: 12-byte IV + plaintext, response is
      ciphertext + 16-byte tag; decrypt: 12-byte IV + ciphertext +
      16-byte tag, response is the plaintext (or an ``AUTH_FAILED``
      error frame releasing nothing).
    """

    RAW = 0          #: no cipher mode (LOAD_KEY / PING / SHUTDOWN)
    ECB = 1
    CTR = 2
    GCM = 3


class Status(enum.IntEnum):
    """Response verdicts (requests always carry ``OK``)."""

    OK = 0
    BAD_FRAME = 1        #: frame failed to decode
    BAD_REQUEST = 2      #: frame decoded but the payload is invalid
    NO_KEY = 3           #: crypto op before any LOAD_KEY
    AUTH_FAILED = 4      #: GCM tag verification failed
    TIMEOUT = 5          #: per-request execution budget exhausted
    OVERLOADED = 6       #: bounded request queue is full
    SHUTTING_DOWN = 7    #: server is draining; no new work accepted
    INTERNAL = 8         #: unexpected server-side failure


#: Statuses a client may transparently retry: transient server-side
#: conditions where the request itself was well-formed.
RETRYABLE_STATUSES = frozenset(
    {Status.TIMEOUT, Status.OVERLOADED, Status.SHUTTING_DOWN}
)

#: GCM geometry shared by client and server: IV and tag sizes.
GCM_IV_BYTES = 12
GCM_TAG_BYTES = 16
CTR_NONCE_BYTES = 8
KEY_BYTES = 16


class FrameError(ValueError):
    """A frame failed to decode.

    ``recoverable`` is True when the byte stream is still framed
    (the bad bytes were confined to one well-delimited frame) and the
    connection loop may answer with a ``BAD_FRAME`` response and keep
    reading; False when the stream is desynchronized (truncated read,
    oversized length prefix) and the connection must close.
    """

    def __init__(self, message: str,
                 recoverable: bool = True) -> None:
        super().__init__(message)
        self.recoverable = recoverable


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame.

    ``trace_id`` / ``parent_span_id`` are the optional trace context:
    both zero on plain version-1 frames; either nonzero makes the
    frame encode as a :data:`TRACE_VERSION` frame carrying the
    16-byte extension.  Responses echo the request's context so the
    client can stitch its span to the server's.

    ``tail`` is sent right after ``payload`` under the same length
    prefix, so a reply built from two buffers (a GCM seal's
    ciphertext and tag) goes out without joining them.  The peer
    reads both as one payload: decoders never produce a tail.
    """

    op: Op
    mode: Mode = Mode.RAW
    status: Status = Status.OK
    session_id: int = 0
    request_id: int = 0
    payload: bytes = field(default=b"", repr=False)
    trace_id: int = 0
    parent_span_id: int = 0
    tail: bytes = field(default=b"", repr=False)

    @property
    def wire_payload_bytes(self) -> int:
        """The payload bytes this frame puts on the wire: its payload,
        then its tail."""
        return len(self.payload) + len(self.tail)

    def response(self, status: Status = Status.OK,
                 payload: bytes = b"", tail: bytes = b"") -> "Frame":
        """The response frame answering this request."""
        return Frame(op=self.op, mode=self.mode, status=status,
                     session_id=self.session_id,
                     request_id=self.request_id, payload=payload,
                     trace_id=self.trace_id,
                     parent_span_id=self.parent_span_id, tail=tail)

    def error(self, status: Status, message: str = "") -> "Frame":
        """An error response; the diagnostic rides in the payload."""
        return self.response(status, message.encode("utf-8"))


#: Length prefix and header packed as one struct, so the send path
#: materializes the fixed-size head in a single allocation and never
#: concatenates it with the payload.
_WIRE_HEAD = struct.Struct(">I2sBBBBIQ")

#: The traced variant: prefix, header and the 16-byte trace context
#: in one 38-byte pack — still a single allocation for the head.
_WIRE_HEAD_TRACE = struct.Struct(">I2sBBBBIQQQ")


def encode_frame_views(frame: Frame) -> Tuple[bytes, bytes]:
    """Serialize ``frame`` as ``(head, payload)`` — the zero-copy form.

    ``head`` is the 4-byte length prefix and 18-byte header in one
    22-byte buffer (38 bytes when the frame carries a trace context);
    ``payload`` is the frame's own payload object, untouched, when it
    is already immutable ``bytes`` (the codec's one defensive copy
    happens only for mutable payload types).  The length prefix and
    the frame limit count the frame's ``tail`` too.  Writing both
    parts and then the tail back to back puts exactly
    ``encode_frame``'s bytes on the wire without ever building the
    concatenation.
    """
    payload = frame.payload
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    size = len(payload) + len(frame.tail)
    if size > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"payload of {size} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    if frame.trace_id or frame.parent_span_id:
        head = _WIRE_HEAD_TRACE.pack(
            HEADER_BYTES + TRACE_EXT_BYTES + size,
            MAGIC, TRACE_VERSION, int(frame.op), int(frame.mode),
            int(frame.status), frame.session_id & 0xFFFFFFFF,
            frame.request_id & 0xFFFFFFFFFFFFFFFF,
            frame.trace_id & 0xFFFFFFFFFFFFFFFF,
            frame.parent_span_id & 0xFFFFFFFFFFFFFFFF,
        )
        return head, payload
    head = _WIRE_HEAD.pack(
        HEADER_BYTES + size,
        MAGIC, VERSION, int(frame.op), int(frame.mode),
        int(frame.status), frame.session_id & 0xFFFFFFFF,
        frame.request_id & 0xFFFFFFFFFFFFFFFF,
    )
    return head, payload


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to one length-prefixed wire buffer.

    Compatibility entry point for callers that want a single
    ``bytes``; the streaming send path uses
    :func:`encode_frame_views` and never joins the parts.
    """
    head, payload = encode_frame_views(frame)
    return b"".join((head, payload, frame.tail))


def decode_payload(header: bytes, payload: bytes,
                   trace: Optional[Tuple[int, int]] = None) -> Frame:
    """Decode a frame from its 18-byte header and payload, already
    split by the transport — the length was parsed exactly once by
    the caller and the payload buffer is adopted as-is (no copy).

    ``trace`` is the already-split 16-byte trace context of a
    :data:`TRACE_VERSION` frame as ``(trace_id, parent_span_id)``;
    when the transport did not split it (``None``), the extension is
    taken from the front of ``payload`` instead.

    Raises :class:`FrameError` on any malformation; every failure
    here is *recoverable* — the caller consumed exactly the framed
    byte count, so the stream stays aligned.
    """
    if len(header) != HEADER_BYTES:
        raise FrameError(
            f"header split must be exactly {HEADER_BYTES} bytes, "
            f"got {len(header)}"
        )
    magic, version, op, mode, status, session_id, request_id = \
        _HEADER.unpack(header)
    if magic != MAGIC:
        # Diagnostics carry lengths and enum values only — echoing
        # the received bytes would reflect attacker-controlled data
        # back onto the wire in the BAD_FRAME response.
        raise FrameError(f"bad magic (want {MAGIC!r})")
    if version != VERSION and version != TRACE_VERSION:
        raise FrameError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {VERSION} "
            f"(or {TRACE_VERSION} with the trace extension)"
        )
    trace_id = parent_span_id = 0
    if version == TRACE_VERSION:
        if trace is None:
            if len(payload) < TRACE_EXT_BYTES:
                raise FrameError(
                    f"traced frame carries {len(payload)} body "
                    f"bytes past the header, too few for the "
                    f"{TRACE_EXT_BYTES}-byte trace context"
                )
            trace = _TRACE_EXT.unpack_from(payload)
            payload = payload[TRACE_EXT_BYTES:]
        trace_id, parent_span_id = trace
    if len(payload) > MAX_PAYLOAD_BYTES:
        # MAX_FRAME_BYTES leaves room for the trace context, which a
        # version-1 frame does not carry: the cap is checked here.
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    try:
        frame_op = Op(op)
        frame_mode = Mode(mode)
        frame_status = Status(status)
    except ValueError as exc:
        raise FrameError(f"unknown field value: {exc}") from None
    return Frame(op=frame_op, mode=frame_mode, status=frame_status,
                 session_id=session_id, request_id=request_id,
                 payload=payload, trace_id=trace_id,
                 parent_span_id=parent_span_id)


def decode_body(body: bytes) -> Frame:
    """Decode a frame body (everything after the length prefix).

    Raises :class:`FrameError` on any malformation; every failure
    here is *recoverable* — the caller consumed exactly the framed
    byte count, so the stream stays aligned.
    """
    if len(body) < HEADER_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    return decode_payload(body[:HEADER_BYTES], body[HEADER_BYTES:])


def decode_frame(data: bytes) -> Frame:
    """Decode one complete length-prefixed frame from ``data``.

    The byte count must match the prefix exactly; this is the
    non-streaming entry point the codec tests exercise.
    """
    if len(data) < 4:
        raise FrameError("frame shorter than the length prefix",
                         recoverable=False)
    body_len = int.from_bytes(data[:4], "big")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"length prefix {body_len} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
            recoverable=False,
        )
    if len(data) - 4 != body_len:
        raise FrameError(
            f"frame truncated: prefix promises {body_len} bytes, "
            f"got {len(data) - 4}",
            recoverable=False,
        )
    return decode_body(data[4:])


_DEADLINE_ARMS = global_registry().counter(
    "repro_serve_deadline_arms_total",
    "Event-loop timers armed by serve-tier deadline scopes",
)


class _TaskDeadline:
    """One task's bound: its innermost open scope and the single
    timer handle armed for it (``armed`` is that handle's loop time,
    infinite when none is armed)."""

    __slots__ = ("task", "loop", "top", "handle", "armed")

    def __init__(self, task: "asyncio.Task[object]",
                 loop: asyncio.AbstractEventLoop) -> None:
        self.task = task
        self.loop = loop
        self.top: Optional[_Deadline] = None
        self.handle: Optional[asyncio.TimerHandle] = None
        self.armed = math.inf

    def arm(self, when: float) -> None:
        if self.handle is not None:
            self.handle.cancel()
        self.handle = self.loop.call_at(when, self._fire)
        self.armed = when
        _DEADLINE_ARMS.inc()

    def forget(self, task: "asyncio.Task[object]") -> None:
        """Done callback: a finished task keeps no live timer."""
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def _fire(self) -> None:
        self.handle = None
        self.armed = math.inf
        top = self.top
        if top is None:
            return  # every scope has exited: stay unarmed
        now = self.loop.time()
        if top.when > now:
            # Armed for a scope that has since exited: move on to the
            # deadline in force now.
            self.arm(top.when)
            return
        # Expired.  The outermost scope whose deadline has passed owns
        # the expiry, as the outermost expired asyncio.timeout would.
        owner = top
        while owner.outer is not None and owner.outer.when <= now:
            owner = owner.outer
        # The owner and every scope inside it stop bounding anything:
        # a scope entered while the cancel unwinds (a cleanup await)
        # is bounded by its own budget and the enclosing deadlines.
        live = math.inf if owner.outer is None else owner.outer.when
        scope: Optional[_Deadline] = top
        while scope is not None and scope is not owner:
            scope.when = live
            scope = scope.outer
        owner.when = live
        owner.expired = True
        self.task.cancel()
        if live < math.inf:
            self.arm(live)


#: Each task's :class:`_TaskDeadline`.  A task runs in its own copy of
#: the context it was created in, so a state inherited from the
#: creating task is recognized by its ``task`` and replaced.
_TASK_DEADLINE: contextvars.ContextVar[Optional[_TaskDeadline]] = (
    contextvars.ContextVar("repro_serve_task_deadline", default=None))


class _Deadline:
    """One :func:`deadline` scope (see there)."""

    __slots__ = ("budget", "state", "outer", "when", "cancelling",
                 "expired")

    def __init__(self, budget: Optional[float]) -> None:
        self.budget = budget

    async def __aenter__(self) -> "_Deadline":
        task = asyncio.current_task()
        if task is None:
            raise RuntimeError("deadline() needs a running task")
        state = _TASK_DEADLINE.get()
        if state is None or state.task is not task:
            state = _TaskDeadline(task, asyncio.get_running_loop())
            _TASK_DEADLINE.set(state)
            task.add_done_callback(state.forget)
        outer = state.top
        when = math.inf if outer is None else outer.when
        if self.budget is not None:
            when = min(when, state.loop.time() + self.budget)
        self.state = state
        self.outer = outer
        self.when = when
        self.cancelling = task.cancelling()
        self.expired = False
        state.top = self
        if when < state.armed:
            state.arm(when)
        return self

    async def __aexit__(self, exc_type: Optional[type],
                        exc: Optional[BaseException],
                        tb: Optional[TracebackType]) -> None:
        self.state.top = self.outer
        # asyncio.Timeout's bookkeeping: the expiry's own cancel is
        # withdrawn, and only a cancel nobody else requested becomes
        # TimeoutError; an outside cancel stays a CancelledError.
        if (self.expired
                and self.state.task.uncancel() <= self.cancelling
                and exc_type is not None
                and issubclass(exc_type, asyncio.CancelledError)):
            raise TimeoutError from exc


def deadline(budget: Optional[float]) -> _Deadline:
    """Bound the awaits of an ``async with`` body by ``budget``
    seconds (``None``: no bound of its own).

    The drop-in for ``asyncio.timeout`` on the serving layer's hot
    path.  Expiry cancels the task, and the scope whose budget ran
    out turns that cancel into :class:`TimeoutError`; an outside
    cancel stays a :class:`asyncio.CancelledError`.  Unlike
    ``asyncio.timeout``, which arms and cancels one loop timer per
    scope, each task keeps one deadline, ``min(enclosing deadline,
    now + budget)`` inside a scope, and at most one armed timer.
    Entering a scope re-arms it only if the new deadline falls before
    the armed one, and leaving a scope leaves it armed.  A timer that
    fires before the deadline in force re-arms at that deadline (or
    drops if no scope is open), so a bound expires on time, never
    late.  A warm task serving back-to-back requests therefore arms
    no timer at all (``repro_serve_deadline_arms_total`` counts every
    arm).
    """
    return _Deadline(budget)


#: The receive buffer a :class:`FrameStream` starts with, and the room
#: it keeps for one receive past a pending read.
RECV_BYTES = 64 * 1024

_READ_PAUSES = global_registry().counter(
    "repro_serve_read_pauses_total",
    "Transport read pauses on frame connections (receive buffer full "
    "with no read waiting)",
)


#: What an accepted frame connection runs as its task.
OnConnect = Callable[["FrameStream"], Coroutine[Any, Any, None]]


class FrameStream(asyncio.BufferedProtocol):
    """One frame connection: the transport's protocol, its reader and
    its writer in one object.

    The transport receives straight into the connection's one buffer,
    and :meth:`readexactly` copies exactly the bytes asked for out of
    it as ``bytes``: a frame read that finds its bytes buffered makes
    one allocation and one copy of them.  The buffer starts at
    :data:`RECV_BYTES` and grows only when a read is waiting for more
    than it can hold, to that read plus one receive; it never
    shrinks.  So the largest frame a connection has read sets its
    size for the connection's life, at most one maximum frame plus
    one receive (:data:`MAX_FRAME_BYTES` + :data:`RECV_BYTES`).
    Reading pauses only when the buffer is full and no read is
    waiting, and resumes when a read has to wait;
    ``repro_serve_read_pauses_total`` counts the pauses.

    The reader half keeps ``asyncio.StreamReader``'s semantics: EOF
    raises :class:`asyncio.IncompleteReadError` with the partial
    bytes, and a lost connection raises its error in a waiting read
    and in :meth:`drain`.  A half-close from the peer leaves the write
    side open, so replies owed to it can still be written.
    ``on_connect``, when given, runs as the connection's task as soon
    as the transport is up (the accept side).  The connection also
    counts the requests it has accepted and not yet answered
    (:meth:`owe`, :meth:`answered`), so that after a half-close it
    can wait for them (:meth:`wait_answered`) before it closes.
    """

    def __init__(self, on_connect: Optional[OnConnect] = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._on_connect = on_connect
        self._task: Optional["asyncio.Task[None]"] = None
        self._transport: Optional[asyncio.Transport] = None
        self._buf = bytearray(RECV_BYTES)
        self._view = memoryview(self._buf)
        #: Unread bytes are ``_buf[_start:_end]``.
        self._start = 0
        self._end = 0
        #: Bytes the waiting read needs buffered; 0 when none waits.
        self._want = 0
        self._waiter: Optional["asyncio.Future[None]"] = None
        self._paused = False
        self._eof = False
        self._exc: Optional[BaseException] = None
        self._write_paused = False
        self._drain_waiters: List["asyncio.Future[None]"] = []
        #: Done once the connection is lost.
        self._closed: "asyncio.Future[None]" = (
            self._loop.create_future())
        #: Requests accepted on this connection and not yet answered.
        self._owed = 0
        self._settled: Optional["asyncio.Future[None]"] = None

    # ------------------------------------------------ transport side
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        if self._on_connect is not None:
            # Held here: the loop keeps only weak references to tasks.
            self._task = self._loop.create_task(self._on_connect(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == len(self._buf):
            # Move the unread bytes to the front.  The buffer is never
            # all unread here: reading pauses first (buffer_updated).
            unread = self._end - self._start
            self._view[:unread] = self._view[self._start:self._end]
            self._start, self._end = 0, unread
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        if self._want and self._end - self._start >= self._want:
            self._wake()
        if not self._want and self._end - self._start == len(self._buf):
            assert self._transport is not None
            self._paused = True
            self._transport.pause_reading()
            _READ_PAUSES.inc()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the write side open for owed replies

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if exc is None:
            self._eof = True
        else:
            self._exc = exc
        self._wake()
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_exception(
                    exc or ConnectionResetError("Connection lost"))
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _wake(self) -> None:
        self._want = 0
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            if self._exc is not None:
                waiter.set_exception(self._exc)
            else:
                waiter.set_result(None)

    # --------------------------------------------------- reader half
    async def readexactly(self, n: int) -> bytes:
        """Exactly ``n`` bytes, as ``asyncio.StreamReader`` reads
        them."""
        if self._exc is not None:
            raise self._exc
        if self._waiter is not None:
            raise RuntimeError("readexactly() called while another "
                               "read is waiting")
        while self._end - self._start < n:
            if self._eof:
                partial = bytes(self._view[self._start:self._end])
                self._start = self._end = 0
                raise asyncio.IncompleteReadError(partial, n)
            self._reserve(n)
            self._want = n
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
                self._want = 0
        start = self._start
        data = bytes(self._view[start:start + n])
        if start + n == self._end:
            self._start = self._end = 0
        else:
            self._start = start + n
        return data

    def _reserve(self, n: int) -> None:
        """Let the transport fill the buffer for a read of ``n``
        bytes, first growing it to ``n`` plus one receive if ``n``
        bytes do not fit."""
        if n > len(self._buf):
            unread = self._end - self._start
            grown = bytearray(n + RECV_BYTES)
            grown[:unread] = self._view[self._start:self._end]
            self._buf, self._view = grown, memoryview(grown)
            self._start, self._end = 0, unread
        if self._paused:
            self._paused = False
            assert self._transport is not None
            self._transport.resume_reading()

    # --------------------------------------------------- writer half
    @property
    def transport(self) -> asyncio.Transport:
        assert self._transport is not None
        return self._transport

    def write(self, data: bytes) -> None:
        self.transport.write(data)

    def close(self) -> None:
        self.transport.close()

    async def drain(self) -> None:
        """Wait until the transport takes more writes, as
        ``asyncio.StreamWriter.drain`` does."""
        if self._exc is not None:
            raise self._exc
        if self.transport.is_closing():
            # Let connection_lost() run, so a write to a closed
            # transport reports the loss.
            await asyncio.sleep(0)
        if self._closed.done():
            raise ConnectionResetError("Connection lost")
        if not self._write_paused:
            return
        waiter = self._loop.create_future()
        self._drain_waiters.append(waiter)
        try:
            await waiter
        finally:
            self._drain_waiters.remove(waiter)

    async def wait_closed(self) -> None:
        """Wait until the connection is lost."""
        await asyncio.shield(self._closed)

    # ------------------------------------------------ owed replies
    def owe(self) -> None:
        """Count one accepted request this connection must answer."""
        self._owed += 1

    def answered(self) -> None:
        """Count one owed request as answered (or given up on)."""
        self._owed -= 1
        settled = self._settled
        if not self._owed and settled is not None and not settled.done():
            settled.set_result(None)

    async def wait_answered(self, timeout: Optional[float]) -> None:
        """Wait until every owed request is answered or the connection
        is lost, at most ``timeout`` seconds: how a half-closed
        connection gets its replies before it is closed."""
        if self._owed and not self._closed.done():
            self._settled = self._loop.create_future()
            await asyncio.wait((self._settled, self._closed),
                               timeout=timeout,
                               return_when=asyncio.FIRST_COMPLETED)


async def open_frame_stream(host: str, port: int,
                            timeout: Optional[float]) -> FrameStream:
    """Dial ``host:port`` as a :class:`FrameStream`, bounded by
    ``timeout``."""
    loop = asyncio.get_running_loop()
    async with deadline(timeout):
        _, stream = await loop.create_connection(FrameStream, host, port)
    return stream


async def start_frame_server(
        on_connect: OnConnect, host: str,
        port: int) -> asyncio.base_events.Server:
    """Listen on ``host:port``; each accepted connection is a
    :class:`FrameStream` whose task runs ``on_connect(stream)``."""
    loop = asyncio.get_running_loop()
    return await loop.create_server(lambda: FrameStream(on_connect),
                                    host, port)


#: What :func:`read_frame` reads from and :func:`write_frame` writes
#: to: a frame connection, or an asyncio stream.
FrameReader = Union[asyncio.StreamReader, FrameStream]
FrameWriter = Union[asyncio.StreamWriter, FrameStream]


async def _readexactly(reader: FrameReader, count: int,
                       timeout: Optional[float]) -> bytes:
    """``reader.readexactly(count)`` bounded by ``timeout``.

    The :func:`deadline` scope bounds the await in place, so bytes
    the reader already holds come back with no new Task, no extra
    event-loop turn and, on a warm task, no timer.
    """
    async with deadline(timeout):
        return await reader.readexactly(count)


async def read_frame(reader: FrameReader,
                     timeout: Optional[float] = None) -> Optional[Frame]:
    """Read one frame from a stream; ``None`` on clean EOF.

    ``reader`` is a :class:`FrameStream` on every serve-tier
    connection, where each read below copies exactly its bytes out of
    the connection's one receive buffer; an ``asyncio.StreamReader``
    reads the same frames with the same errors.  Every read is
    bounded by ``timeout`` on its own, in a :func:`deadline` scope
    (``None`` waits forever — callers on untrusted sockets pass a real
    number).  EOF *between* frames returns ``None``; EOF inside a
    frame raises an unrecoverable :class:`FrameError`, as does an
    oversized length prefix — in both cases the stream cannot be
    re-synchronized and the connection must close.
    """
    try:
        prefix = await _readexactly(reader, 4, timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF on a frame boundary
        raise FrameError("connection closed mid-prefix",
                         recoverable=False) from None
    body_len = int.from_bytes(prefix, "big")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"length prefix {body_len} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
            recoverable=False,
        )
    try:
        if body_len < HEADER_BYTES:
            # Undersized frames go through decode_body so the
            # failure classifies exactly as before (recoverable:
            # the promised byte count was fully consumed).
            body = await _readexactly(reader, body_len, timeout)
            return decode_body(body)
        header = await _readexactly(reader, HEADER_BYTES, timeout)
        remaining = body_len - HEADER_BYTES
        trace: Optional[Tuple[int, int]] = None
        if header[2] == TRACE_VERSION and remaining >= TRACE_EXT_BYTES:
            # The trace context is read as its own 16-byte chunk so
            # the payload buffer below is still adopted unsliced; an
            # undersized traced frame skips this read and classifies
            # in decode_payload (recoverable — fully consumed).
            ext = await _readexactly(reader, TRACE_EXT_BYTES, timeout)
            trace = _TRACE_EXT.unpack(ext)
            remaining -= TRACE_EXT_BYTES
        payload = await _readexactly(reader, remaining, timeout)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame",
                         recoverable=False) from None
    # The length was parsed exactly once (above); the payload bytes
    # land in the frame as the very object readexactly produced.
    return decode_payload(header, payload, trace)


async def write_frame(writer: FrameWriter, frame: Frame,
                      timeout: Optional[float] = None) -> None:
    """Serialize ``frame`` and drain the transport, bounded by a
    ``timeout`` :func:`deadline` so a stalled peer cannot wedge the
    writer.

    Head, payload and tail are written as separate parts — the
    transport buffers them back to back, so no joined copy of the
    frame is ever built (see :func:`encode_frame_views`).
    """
    head, payload = encode_frame_views(frame)
    writer.write(head)
    if payload:
        writer.write(payload)
    if frame.tail:
        writer.write(frame.tail)
    async with deadline(timeout):
        await writer.drain()


#: How long closing one transport (or ``stop()`` waiting for handlers
#: still closing theirs) may take before a stuck peer is given up on.
CLOSE_TIMEOUT_S = 5.0


async def close_writer(writer: FrameWriter) -> None:
    """Close a transport, waiting at most :data:`CLOSE_TIMEOUT_S` (a
    :func:`deadline` scope) for it to close, so a stuck peer cannot
    wedge the closer."""
    writer.close()
    try:
        async with deadline(CLOSE_TIMEOUT_S):
            await writer.wait_closed()
    except (asyncio.TimeoutError, ConnectionError):
        pass


__all__ = [
    "CLOSE_TIMEOUT_S",
    "CTR_NONCE_BYTES",
    "GCM_IV_BYTES",
    "GCM_TAG_BYTES",
    "HEADER_BYTES",
    "KEY_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_PAYLOAD_BYTES",
    "RECV_BYTES",
    "RETRYABLE_STATUSES",
    "TRACE_EXT_BYTES",
    "TRACE_VERSION",
    "VERSION",
    "Frame",
    "FrameError",
    "FrameStream",
    "Mode",
    "Op",
    "Status",
    "close_writer",
    "decode_body",
    "decode_frame",
    "decode_payload",
    "deadline",
    "encode_frame",
    "encode_frame_views",
    "open_frame_stream",
    "read_frame",
    "start_frame_server",
    "write_frame",
]
