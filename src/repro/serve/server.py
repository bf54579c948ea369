"""The asyncio crypto server: BatchEngine traffic over TCP.

The batching layer (:mod:`repro.perf`) and the observability layer
(:mod:`repro.obs`) behind one TCP service.  The design follows the
same discipline as the hardware bus protocol — explicit limits,
bounded buffering, measured behaviour:

- **Sessions** — each connection owns a :class:`Session`; its key
  arrives via a ``LOAD_KEY`` frame and lives only in that object
  (never logged, redacted from ``repr``), the software analogue of
  the IP's write-only key register.
- **Backpressure** — requests flow through one bounded
  :class:`asyncio.Queue`; when it is full the server answers
  ``OVERLOADED`` instead of buffering without bound, exactly as the
  device's one-deep Data_In buffer drops (and counts) overruns.
- **Timeouts** — every await on a socket is bounded, and each
  request's execution gets ``request_timeout`` seconds before the
  worker abandons it with a ``TIMEOUT`` error frame (the connection
  survives).  A request served on the event loop (below) is bounded
  by the 1 MiB frame limit instead.  Each bound is a
  :func:`~repro.serve.protocol.deadline` scope: a task keeps one
  deadline and at most one armed timer, so the requests of a warm
  connection arm none.  The ``serve.missing-timeout`` lint rule
  enforces the socket half of this mechanically.
- **Receive path** — each connection is one
  :class:`~repro.serve.protocol.FrameStream`: the transport receives
  into the connection's one buffer, and a frame's payload is one copy
  out of it.  The buffer grows to the largest frame read plus one
  64 KiB receive and is kept for the connection's life (at most one
  maximum frame plus 64 KiB; ``io_timeout`` closes an idle
  connection), and reading pauses only while it is full with no read
  waiting (``repro_serve_read_pauses_total``).
- **Half-close** — after a clean EOF a connection reads no more, but
  answers the requests it has already queued (waiting at most
  ``io_timeout``) before it closes.
- **Graceful shutdown** — :meth:`CryptoServer.stop` stops accepting,
  drains the queued requests (bounded by ``drain_timeout``), then
  closes connections; a ``SHUTDOWN`` frame triggers the same path
  remotely, which is how ``repro-aes loadgen --shutdown`` and the CI
  smoke end a serve process cleanly.
- **One frame loop** — the listener, each connection's read loop,
  the reply path and the stop skeleton are :class:`FrameServer`,
  which the cluster's :class:`~repro.serve.gateway.Gateway` runs too;
  the server adds its sessions, its queue and its drain.

Crypto runs through :func:`repro.perf.engine.default_engine` (via the
mode layer).  Where that engine's backend has native modes, a CTR
request, a GCM seal or open, or an ECB encryption is one libcrypto
call over at most one frame's payload, measured cheaper than a
thread-pool round trip at every size up to that limit, so it runs on
the event loop.  The rest runs on a small thread pool, where the
loop keeps reading frames: ECB decryption (the golden per-block
cipher) and every request on the ``sliced`` fallback.  Everything is
instrumented into the process-global :mod:`repro.obs` registry —
request/byte/error counters, an in-flight gauge, a latency histogram
and ``serve.*`` spans.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Generic, List, Optional, \
    Protocol, Set, Tuple, TypeVar, Union

from repro.aes import gcm, modes
from repro.obs.metrics import Counter, Gauge, WindowedQuantileSet, \
    global_registry, render_process_counters
from repro.obs.metrics import render_prometheus as _render_registries
from repro.obs.tracing import format_span_id, trace_record, trace_span
from repro.perf.engine import default_engine, forget_key
from repro.serve.admin import AdminServer
from repro.serve.protocol import (
    CLOSE_TIMEOUT_S,
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    KEY_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    FrameError,
    FrameStream,
    Mode,
    Op,
    Status,
    close_writer,
    deadline,
    read_frame,
    start_frame_server,
    write_frame,
)

_LOG = logging.getLogger(__name__)

_REGISTRY = global_registry()
_REQUESTS = _REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests completed by the crypto server, by op and status",
    labels=("op", "status"),
)
_BYTES = _REGISTRY.counter(
    "repro_serve_bytes_total",
    "Payload bytes through the crypto server, by direction",
    labels=("direction",),
)
_INFLIGHT = _REGISTRY.gauge(
    "repro_serve_inflight",
    "Requests currently queued or executing",
)
_OPEN_CONNECTIONS = _REGISTRY.gauge(
    "repro_serve_open_connections",
    "Connections currently open",
)
_CONNECTIONS = _REGISTRY.counter(
    "repro_serve_connections_total",
    "Connections accepted over the server's lifetime",
)
_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Wall-clock seconds from dequeue to reply built, before the write",
    labels=("op",),
)
_EXECUTOR_HOPS = _REGISTRY.counter(
    "repro_serve_executor_hops_total",
    "Crypto requests handed to the server's thread pool",
)
_BYTES_IN = _BYTES.labels(direction="in")
_BYTES_OUT = _BYTES.labels(direction="out")


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`CryptoServer`.

    The defaults suit a loopback deployment; ``repro-aes serve``
    exposes every field but ``io_timeout``, ``drain_timeout`` and
    ``window_s``.  ``port=0`` asks the OS for a free port (the bound
    address is readable from :attr:`CryptoServer.address` after
    ``start``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Bound of the shared request queue — the backpressure valve.
    queue_depth: int = 64
    #: Worker tasks draining the queue; the thread pool for the
    #: requests not served on the event loop has twice as many threads.
    workers: int = 4
    #: Per-request execution budget, seconds.
    request_timeout: float = 10.0
    #: Socket read/write budget, seconds.
    io_timeout: float = 60.0
    #: How long :meth:`CryptoServer.stop` waits for queued requests.
    drain_timeout: float = 10.0
    #: Port of the admin/scrape plane (``/metrics``, ``/healthz``,
    #: ``/readyz``, ``/quantiles``); ``None`` leaves it off, ``0``
    #: binds a free port (readable from ``admin_address``).
    admin_port: Optional[int] = None
    #: Width of the sliding latency-quantile window, seconds.
    window_s: float = 60.0
    #: Request-latency SLO threshold feeding the burn-rate counters.
    slo_threshold_s: float = 0.25


@dataclass
class Session:
    """Per-connection state.  The key is write-only from outside:
    it is set by a LOAD_KEY frame and read by the handlers — it never
    appears in logs, metrics or ``repr``."""

    session_id: int
    key: Optional[bytes] = field(default=None, repr=False)

    def load(self, key: bytes) -> None:
        """Install ``key``, first forgetting the replaced key's
        derived state as :meth:`close` does."""
        self.close()
        self.key = key

    def close(self) -> None:
        """Session teardown hygiene: forget the key's derived state.

        Drops the session's expanded schedule from the process-wide
        round-key cache and its GHASH tables (both zeroized there),
        so a closed session's key material does not linger in caches
        shared with other tenants.
        """
        key, self.key = self.key, None
        if key is not None:
            forget_key(key)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        loaded = "loaded" if self.key is not None else "absent"
        return f"Session(id={self.session_id}, key={loaded})"


class FrameConfig(Protocol):
    """What the frame loop reads of a service's config; both
    :class:`ServeConfig` and the gateway's config carry it."""

    host: str
    port: int
    admin_port: Optional[int]
    io_timeout: float
    drain_timeout: float


class FrameConn:
    """One accepted frame connection: its stream, and the lock that
    keeps replies written by concurrent tasks whole on the wire."""

    def __init__(self, stream: FrameStream) -> None:
        self.stream = stream
        self.write_lock = asyncio.Lock()

    async def close(self) -> None:
        """Close the transport (waiting at most ``CLOSE_TIMEOUT_S``)."""
        await close_writer(self.stream)


ConfigT = TypeVar("ConfigT", bound=FrameConfig)
ConnT = TypeVar("ConnT", bound=FrameConn)


class FrameServer(Generic[ConfigT, ConnT]):
    """The frame-serving loop :class:`CryptoServer` and the gateway
    share: the listener and admin plane, each connection's handler
    and read loop, the one reply path and the skeleton of
    :meth:`stop`.

    A service supplies what differs, as the methods the loop calls:
    :meth:`_begin` (its own tasks), :meth:`_open` (the state of one
    connection), :meth:`_dispatch` (one admitted request) and
    :meth:`_drain`; the server also counts what the loop reads and
    answers (:meth:`_received`, :meth:`_count`).  ``on_shutdown`` is
    what a SHUTDOWN frame stops: the server itself, or through the
    gateway the whole cluster.
    """

    #: Connections accepted over the service's lifetime, and open now.
    _connections: Counter
    _open_connections: Gauge

    def __init__(self, config: ConfigT,
                 on_shutdown: Callable[[], Awaitable[None]]) -> None:
        self.config = config
        self._on_shutdown = on_shutdown
        self._server: Optional[asyncio.base_events.Server] = None
        self._admin: Optional[AdminServer] = None
        self._conns: Set[ConnT] = set()
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # The event loop keeps only weak references to tasks, so the
        # remotely-triggered stop task is pinned here until done.
        self._stop_task: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._stopped = asyncio.Event()
        #: The service's sliding windows by ``/quantiles`` key, in
        #: ``/metrics`` order (each service's admin plane scrapes its
        #: own traffic, and windows age out by wall clock rather than
        #: by registry reset).
        self._windows: Dict[str, WindowedQuantileSet] = {}

    # ------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the service's own tasks, then bind the listener and
        the admin plane."""
        if self._server is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        await self._begin()
        self._server = await start_frame_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.config.admin_port is not None:
            self._admin = AdminServer(
                self.config.host,
                self.config.admin_port,
                metrics_text=self.metrics_text,
                quantiles=self.quantiles_snapshot,
                ready=self._ready,
            )
            await self._admin.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def admin_address(self) -> Tuple[str, int]:
        """The bound admin-plane (host, port)."""
        if self._admin is None:
            raise RuntimeError("admin plane not enabled")
        return self._admin.address

    def _ready(self) -> bool:
        """Drain-aware readiness: serving and not shutting down."""
        return self._server is not None and not self._stopping

    def metrics_text(self) -> str:
        """One ``/metrics`` scrape body: the process-global registry,
        the service's windowed quantile families and the process's
        CPU time and page faults."""
        return (_render_registries([_REGISTRY])
                + "".join(window.render_prometheus()
                          for window in self._windows.values())
                + render_process_counters())

    def quantiles_snapshot(self) -> Dict[str, object]:
        """The ``/quantiles`` JSON body."""
        return {key: window.snapshot()
                for key, window in self._windows.items()}

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain-then-shutdown.

        Stops accepting, answers new requests with ``SHUTTING_DOWN``,
        drains (bounded by ``drain_timeout``), closes connections and
        waits for their handlers, and stops the admin plane last.
        Idempotent.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            try:
                async with deadline(self.config.drain_timeout):
                    await self._server.wait_closed()
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        await self._drain()
        for conn in list(self._conns):
            await conn.close()
        # A handler whose peer closed first has left _conns but may
        # still be closing its transport; asyncio.run would cancel it.
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=CLOSE_TIMEOUT_S)
        if self._admin is not None:
            # Last: /readyz has been answering 503 since _stopping
            # flipped, and a scraper may want the final drain metrics.
            await self._admin.stop()
        self._stopped.set()

    # ----------------------------------------------------- connections
    async def _on_connection(self, stream: FrameStream) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn = self._open(stream)
        self._conns.add(conn)
        self._connections.inc()
        self._open_connections.inc()
        try:
            await self._connection_loop(conn)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # peer vanished or stalled; nothing to answer
        finally:
            self._conns.discard(conn)
            self._open_connections.dec()
            await conn.close()

    async def _connection_loop(self, conn: ConnT) -> None:
        timeout = self.config.io_timeout
        while True:
            try:
                frame = await read_frame(conn.stream, timeout=timeout)
            except FrameError as exc:
                # A malformed frame answers with BAD_FRAME; only a
                # desynchronized stream closes the connection.  The
                # accept loop and every other connection live on.
                await self._send(conn, Frame(op=Op.PING).error(
                    Status.BAD_FRAME, str(exc)))
                if exc.recoverable:
                    continue
                return
            if frame is None:
                # Clean EOF: the peer has half-closed.  Read no more,
                # but answer what it sent before closing.
                await conn.stream.wait_answered(timeout)
                return
            self._received(frame)
            if frame.op is Op.SHUTDOWN:
                # Answered inline, never dispatched: the server's
                # stop() drains its queue, so queueing SHUTDOWN would
                # wait on itself.
                await self._send(conn, frame.response())
                if self._stop_task is None:
                    self._stop_task = (
                        asyncio.get_running_loop()
                        .create_task(self._on_shutdown())
                    )
                continue
            if self._stopping:
                await self._send(conn, frame.error(
                    Status.SHUTTING_DOWN, "draining; no new requests"))
                continue
            await self._dispatch(conn, frame)

    async def _send(self, conn: ConnT, reply: Frame) -> None:
        """The one reply path: write ``reply``, then let the service
        count it.  A peer that is gone or stalled gets nothing."""
        try:
            sent = await self._write(conn, reply)
        except FrameError as exc:
            # A response too large to frame (requests are checked up
            # front, so this is defensive) must not escape into the
            # worker loop: answer with a small error frame so the
            # connection learns the request failed.
            _LOG.warning("unframeable %s response dropped: %s",
                         reply.op.name, exc)
            sent = await self._write(conn, reply.error(
                Status.INTERNAL, "response exceeded the frame limit"))
        self._count(reply, sent)

    async def _write(self, conn: ConnT,
                     frame: Frame) -> Optional[Frame]:
        """``frame`` once written; ``None`` when the peer is gone."""
        try:
            async with conn.write_lock:
                await write_frame(conn.stream, frame,
                                  timeout=self.config.io_timeout)
        except (ConnectionError, asyncio.TimeoutError):
            return None
        return frame

    # ------------------------------------------ what a service supplies
    async def _begin(self) -> None:
        """Start the service's own tasks, before the listener binds."""
        raise NotImplementedError

    def _open(self, stream: FrameStream) -> ConnT:
        """The state of one accepted connection."""
        raise NotImplementedError

    async def _dispatch(self, conn: ConnT, frame: Frame) -> None:
        """Take one admitted request frame."""
        raise NotImplementedError

    async def _drain(self) -> None:
        """Finish the admitted requests (within ``drain_timeout``),
        then end the service's own tasks."""
        raise NotImplementedError

    def _received(self, frame: Frame) -> None:
        """Account one frame read (nothing by default)."""

    def _count(self, reply: Frame, sent: Optional[Frame]) -> None:
        """Account one reply and the frame that went out in its place
        (``None`` if none did); nothing by default."""


class _ServerConn(FrameConn):
    """A server connection: its stream and its :class:`Session`."""

    def __init__(self, stream: FrameStream, session: Session) -> None:
        super().__init__(stream)
        self.session = session

    async def close(self) -> None:
        self.session.close()
        await super().close()


@dataclass
class _WorkItem:
    """One queued request with everything needed to answer it."""

    frame: Frame
    session: Session
    conn: _ServerConn
    #: When the item entered the queue — queue wait is dequeue minus
    #: this, surfaced as a ``serve.queue_wait`` span and a windowed
    #: quantile (the loadgen report prints its max).
    enqueued_at: float = field(default_factory=time.perf_counter)


Handler = Callable[[Session, Frame], Awaitable[Frame]]


class CryptoServer(FrameServer[ServeConfig, _ServerConn]):
    """The asyncio TCP crypto service (see the module docstring): the
    frame loop of :class:`FrameServer`, whose SHUTDOWN frame stops
    this server."""

    _connections = _CONNECTIONS
    _open_connections = _OPEN_CONNECTIONS

    def __init__(self,
                 config: Optional[ServeConfig] = None) -> None:
        super().__init__(config or ServeConfig(), self.stop)
        self._queue: "asyncio.Queue[_WorkItem]" = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._session_ids = itertools.count(1)
        self._workers: List["asyncio.Task[None]"] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._handlers: Dict[Op, Handler] = {
            Op.LOAD_KEY: self._op_load_key,
            Op.ENCRYPT: self._op_xcrypt,
            Op.DECRYPT: self._op_xcrypt,
            Op.PING: self._op_ping,
        }
        self.request_window = WindowedQuantileSet(
            "repro_serve_request_window_seconds",
            "Windowed request latency quantiles, by op and mode",
            label_names=("op", "mode"),
            window_s=self.config.window_s,
            slo_threshold_s=self.config.slo_threshold_s,
        )
        self.queue_wait_window = WindowedQuantileSet(
            "repro_serve_queue_wait_window_seconds",
            "Windowed queue-wait quantiles (enqueue to dequeue)",
            window_s=self.config.window_s,
        )
        self._windows = {"request_seconds": self.request_window,
                         "queue_wait_seconds": self.queue_wait_window}

    # ------------------------------------------------ frame-loop hooks
    async def _begin(self) -> None:
        """Start the thread pool and the worker tasks."""
        # Twice the worker count: a timed-out job's thread cannot be
        # cancelled and runs to completion, so with a pool exactly the
        # worker count a burst of slow requests would leave abandoned
        # jobs holding every thread and cascade fresh requests into
        # further TIMEOUTs.  The headroom lets capacity recover while
        # stragglers finish (see docs/serving.md, "Timeouts").
        self._executor = ThreadPoolExecutor(
            max_workers=2 * max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        # Resolve the engine, and the libcrypto probe behind it, on
        # the pool: _runs_inline then never probes on the event loop.
        await asyncio.get_running_loop().run_in_executor(
            self._executor, default_engine)
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(max(1, self.config.workers))
        ]

    def _open(self, stream: FrameStream) -> _ServerConn:
        return _ServerConn(stream,
                           Session(session_id=next(self._session_ids)))

    def _received(self, frame: Frame) -> None:
        _BYTES_IN.inc(len(frame.payload))

    async def _dispatch(self, conn: _ServerConn, frame: Frame) -> None:
        """Queue one request for the workers; a full queue answers
        ``OVERLOADED``."""
        try:
            self._queue.put_nowait(_WorkItem(frame, conn.session, conn))
        except asyncio.QueueFull:
            await self._send(conn, frame.error(Status.OVERLOADED,
                                               "request queue is full"))
            return
        conn.stream.owe()
        _INFLIGHT.inc()
        # A buffered frame is read without yielding, so yield once
        # here: an idle worker then takes this item before the next
        # frame is read, and queue_depth counts only work no worker
        # has taken.
        await asyncio.sleep(0)

    async def _drain(self) -> None:
        """Wait up to ``drain_timeout`` for the queued requests, then
        stop the workers and the thread pool."""
        try:
            async with deadline(self.config.drain_timeout):
                await self._queue.join()
        except asyncio.TimeoutError:
            pass  # forced: undrained items die with the workers
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def _count(self, reply: Frame, sent: Optional[Frame]) -> None:
        _REQUESTS.labels(op=reply.op.name.lower(),
                         status=reply.status.name.lower()).inc()
        if sent is not None:
            _BYTES_OUT.inc(sent.wire_payload_bytes)

    # --------------------------------------------------------- workers
    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            try:
                await self._process(item)
            except Exception:
                # No single request may kill a worker: _process
                # already shields the handler and the send path, so
                # anything landing here is a server bug — log it and
                # keep draining the queue.  (CancelledError is a
                # BaseException and still ends the task on stop().)
                _LOG.exception("worker failed processing a %s frame",
                               item.frame.op.name)
            finally:
                _INFLIGHT.dec()
                item.conn.stream.answered()
                self._queue.task_done()

    async def _process(self, item: _WorkItem) -> None:
        frame = item.frame
        start = time.perf_counter()
        span_args: Dict[str, object] = {
            "op": frame.op.name.lower(),
            "mode": frame.mode.name.lower(),
            "payload_bytes": len(frame.payload),
        }
        if frame.trace_id:
            # The client's trace context, carried by the wire frame:
            # tagging the server span with the same ids lets one
            # merged Chrome trace join both sides of the request.
            span_args["trace_id"] = format_span_id(frame.trace_id)
            span_args["parent_span_id"] = format_span_id(
                frame.parent_span_id
            )
        trace_record("serve.queue_wait", item.enqueued_at, start,
                     category="serve", **span_args)
        with trace_span("serve.request", category="serve",
                        **span_args):
            handler = self._handlers.get(frame.op)
            if handler is None:
                reply = frame.error(Status.BAD_REQUEST,
                                    f"unhandled op {frame.op.name}")
            else:
                exec_start = time.perf_counter()
                try:
                    async with deadline(self.config.request_timeout):
                        reply = await handler(item.session, frame)
                except asyncio.TimeoutError:
                    reply = frame.error(
                        Status.TIMEOUT,
                        f"request exceeded the "
                        f"{self.config.request_timeout}s budget",
                    )
                except Exception:
                    # Deliberately no detail on the wire: internal
                    # messages can carry state a peer should not see.
                    reply = frame.error(Status.INTERNAL,
                                        "internal error")
                trace_record("serve.execute", exec_start,
                             time.perf_counter(), category="serve",
                             **span_args)
        elapsed = time.perf_counter() - start
        _REQUEST_SECONDS.labels(op=frame.op.name.lower()).observe(
            elapsed
        )
        self.request_window.labels(
            op=frame.op.name.lower(), mode=frame.mode.name.lower()
        ).observe(elapsed)
        self.queue_wait_window.labels().observe(
            start - item.enqueued_at
        )
        send_start = time.perf_counter()
        await self._send(item.conn, reply)
        trace_record("serve.write", send_start, time.perf_counter(),
                     category="serve", **span_args)

    # -------------------------------------------------------- handlers
    async def _op_load_key(self, session: Session,
                           frame: Frame) -> Frame:
        if len(frame.payload) != KEY_BYTES:
            return frame.error(
                Status.BAD_REQUEST,
                f"LOAD_KEY payload must be {KEY_BYTES} bytes",
            )
        session.load(frame.payload)
        return frame.response()

    async def _op_ping(self, session: Session, frame: Frame) -> Frame:
        return frame.response(payload=frame.payload)

    async def _op_xcrypt(self, session: Session,
                         frame: Frame) -> Frame:
        if session.key is None:
            return frame.error(Status.NO_KEY,
                               "no session key loaded")
        work = _CRYPTO_OPS.get((frame.op, frame.mode))
        if work is None:
            return frame.error(
                Status.BAD_REQUEST,
                f"no {frame.mode.name} handler for {frame.op.name}",
            )
        try:
            if _runs_inline(work):
                # Bounded by construction: one libcrypto call over at
                # most one frame (1 MiB), cheaper than a hop.
                out = work(session.key, frame.payload)
            else:
                # _process bounds this await by request_timeout.
                _EXECUTOR_HOPS.inc()
                out = await asyncio.get_running_loop().run_in_executor(
                    self._executor, work, session.key, frame.payload
                )
        except gcm.AuthenticationError:
            # The GCM layer already bumped its auth-failure counter.
            return frame.error(Status.AUTH_FAILED,
                               "GCM tag verification failed")
        except ValueError as exc:
            return frame.error(Status.BAD_REQUEST, str(exc))
        if isinstance(out, tuple):
            # A seal: the tag goes out as the frame's tail, unjoined.
            ciphertext, tag = out
            return frame.response(payload=ciphertext, tail=tag)
        return frame.response(payload=out)


# The crypto table: (op, mode) -> callable(session_key, payload),
# returning the reply payload, or a seal's (ciphertext, tag), which
# the reply writes as payload and tail.
# Every entry routes its bulk work through
# ``repro.perf.default_engine()`` via the mode layer; _runs_inline
# decides whether it runs on the event loop or the thread pool.
# The CTR and GCM entries pass the payload-sized part of a request
# on as a ``memoryview``, not a slice, so the native call allocates
# no copy of it.  (Dispatch through this table also keeps the
# ECB entries out of the ``ct.raw-ecb`` call-site lint — the service
# legitimately exposes ECB as an op.)
def _ctr_split(payload: bytes) -> Tuple[bytes, memoryview]:
    if len(payload) < CTR_NONCE_BYTES:
        raise ValueError(
            f"CTR payload needs a {CTR_NONCE_BYTES}-byte nonce prefix"
        )
    return (payload[:CTR_NONCE_BYTES],
            memoryview(payload)[CTR_NONCE_BYTES:])


#: Largest plaintext a GCM ENCRYPT frame may carry: the response is
#: ciphertext + tag and must itself fit in one frame.  GCM ENCRYPT is
#: the only op whose response outgrows its request, so it is the only
#: one needing a bound tighter than the frame limit.
GCM_MAX_PLAINTEXT_BYTES = MAX_PAYLOAD_BYTES - GCM_TAG_BYTES


def _gcm_encrypt(k: bytes, payload: bytes) -> Tuple[bytes, bytes]:
    if len(payload) < GCM_IV_BYTES:
        raise ValueError(
            f"GCM payload needs a {GCM_IV_BYTES}-byte IV prefix"
        )
    plaintext = memoryview(payload)[GCM_IV_BYTES:]
    if len(plaintext) > GCM_MAX_PLAINTEXT_BYTES:
        # Checked before any crypto so the ciphertext+tag response is
        # always frameable (same up-front style as _check_lengths).
        raise ValueError(
            f"GCM plaintext of {len(plaintext)} bytes exceeds "
            f"{GCM_MAX_PLAINTEXT_BYTES}: the ciphertext plus "
            f"{GCM_TAG_BYTES}-byte tag must fit one frame"
        )
    return gcm.gcm_encrypt(k, payload[:GCM_IV_BYTES], plaintext)


def _gcm_decrypt(k: bytes, payload: bytes) -> bytes:
    if len(payload) < GCM_IV_BYTES + GCM_TAG_BYTES:
        raise ValueError(
            f"GCM payload needs a {GCM_IV_BYTES}-byte IV and a "
            f"{GCM_TAG_BYTES}-byte trailing tag"
        )
    iv = payload[:GCM_IV_BYTES]
    tag = payload[len(payload) - GCM_TAG_BYTES:]
    body = memoryview(payload)[GCM_IV_BYTES:
                               len(payload) - GCM_TAG_BYTES]
    return gcm.gcm_decrypt(k, iv, body, tag)


def _ctr_xcrypt(k: bytes, payload: bytes) -> bytes:
    nonce, data = _ctr_split(payload)
    return modes.ctr_xcrypt(k, nonce, data)


_Reply = Union[bytes, Tuple[bytes, bytes]]

_CRYPTO_OPS: Dict[Tuple[Op, Mode], Callable[[bytes, bytes], _Reply]] = {
    (Op.ENCRYPT, Mode.ECB): modes.ecb_encrypt,
    (Op.DECRYPT, Mode.ECB): modes.ecb_decrypt,
    (Op.ENCRYPT, Mode.CTR): _ctr_xcrypt,
    (Op.DECRYPT, Mode.CTR): _ctr_xcrypt,
    (Op.ENCRYPT, Mode.GCM): _gcm_encrypt,
    (Op.DECRYPT, Mode.GCM): _gcm_decrypt,
}

#: The entries whose whole work is one libcrypto call where the
#: default engine's backend has native modes.  ECB decryption runs
#: the golden per-block cipher, so it is not one of them.
_NATIVE_OPS = frozenset(
    (modes.ecb_encrypt, _ctr_xcrypt, _gcm_encrypt, _gcm_decrypt))


def _runs_inline(work: Callable[[bytes, bytes], _Reply]) -> bool:
    """Whether a request runs on the event loop, not the pool."""
    return work in _NATIVE_OPS and default_engine().backend.native_modes


__all__ = ["GCM_MAX_PLAINTEXT_BYTES", "CryptoServer", "ServeConfig",
           "Session"]
