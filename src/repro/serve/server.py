"""The asyncio crypto server: BatchEngine traffic over TCP.

This is the subsystem the ROADMAP's "heavy traffic" north star has
been building toward: the batching layer (:mod:`repro.perf`) and the
observability layer (:mod:`repro.obs`) meeting real concurrency.  The
design follows the same discipline as the hardware bus protocol —
explicit limits, bounded buffering, measured behaviour:

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
  survives).  The ``serve.missing-timeout`` lint rule enforces the
  socket half of this mechanically.
- **Graceful shutdown** — :meth:`CryptoServer.stop` stops accepting,
  drains the queued requests (bounded by ``drain_timeout``), then
  closes connections; a ``SHUTDOWN`` frame triggers the same path
  remotely, which is how the CI smoke and the bench loopback scenario
  end their runs cleanly.

Crypto executes on a small thread pool through
:func:`repro.perf.engine.default_engine` (via the mode layer), so a
large buffer is batched by the engine while the event loop
stays responsive.  Everything is instrumented into the process-global
:mod:`repro.obs` registry — request/byte/error counters, an in-flight
gauge, a latency histogram and ``serve.*`` spans.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Set, \
    Tuple

from repro.aes import gcm, modes
from repro.obs.metrics import WindowedQuantileSet, global_registry
from repro.obs.metrics import render_prometheus as _render_registries
from repro.perf.engine import forget_key
from repro.obs.tracing import format_span_id, trace_record, trace_span
from repro.serve.admin import AdminServer
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    KEY_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    FrameError,
    Mode,
    Op,
    Status,
    read_frame,
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
    "Wall-clock seconds from dequeue to response written",
    labels=("op",),
)
_BYTES_IN = _BYTES.labels(direction="in")
_BYTES_OUT = _BYTES.labels(direction="out")


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`CryptoServer`.

    The defaults suit a loopback deployment; the CLI exposes each.
    ``port=0`` asks the OS for a free port (the bound address is
    readable from :attr:`CryptoServer.address` after ``start``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Bind with ``SO_REUSEPORT`` so several worker processes can
    #: share one port (the cluster's direct topology).
    reuse_port: bool = False
    #: Bound of the shared request queue — the backpressure valve.
    queue_depth: int = 64
    #: Worker tasks draining the queue (each owns a pool thread).
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


@dataclass
class _WorkItem:
    """One queued request with everything needed to answer it."""

    frame: Frame
    session: Session
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock
    #: When the item entered the queue — queue wait is dequeue minus
    #: this, surfaced as a ``serve.queue_wait`` span and a windowed
    #: quantile (the loadgen report prints its max).
    enqueued_at: float = field(default_factory=time.perf_counter)


Handler = Callable[[Session, Frame], Awaitable[Frame]]


class CryptoServer:
    """The asyncio TCP crypto service (see the module docstring)."""

    def __init__(self,
                 config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._queue: "asyncio.Queue[_WorkItem]" = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._session_ids = itertools.count(1)
        self._workers: List["asyncio.Task[None]"] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # The event loop keeps only weak references to tasks, so the
        # remotely-triggered stop() task is pinned here until done.
        self._stop_task: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._stopped = asyncio.Event()
        self._handlers: Dict[Op, Handler] = {
            Op.LOAD_KEY: self._op_load_key,
            Op.ENCRYPT: self._op_xcrypt,
            Op.DECRYPT: self._op_xcrypt,
            Op.PING: self._op_ping,
        }
        # Per-server sliding windows (not the global registry: each
        # server's admin plane scrapes its own traffic, and windows
        # age out by wall clock rather than by registry reset).
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
        self._admin: Optional[AdminServer] = None

    # ------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listening socket and start the worker tasks."""
        if self._server is not None:
            raise RuntimeError("server already started")
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
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(max(1, self.config.workers))
        ]
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port,
            reuse_port=self.config.reuse_port,
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
            raise RuntimeError("server not started")
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

    # ------------------------------------------------------- exposition
    def metrics_text(self) -> str:
        """One ``/metrics`` scrape body: the process-global registry
        plus this server's windowed quantile families."""
        return (_render_registries([_REGISTRY])
                + self.request_window.render_prometheus()
                + self.queue_wait_window.render_prometheus())

    def quantiles_snapshot(self) -> Dict[str, object]:
        """The ``/quantiles`` JSON body."""
        return {
            "request_seconds": self.request_window.snapshot(),
            "queue_wait_seconds": self.queue_wait_window.snapshot(),
        }

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain-then-shutdown.

        Stops accepting, answers new requests with ``SHUTTING_DOWN``,
        waits up to ``drain_timeout`` for queued requests to finish,
        then tears down workers and connections.  Idempotent.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            try:
                async with asyncio.timeout(self.config.drain_timeout):
                    await self._server.wait_closed()
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        try:
            async with asyncio.timeout(self.config.drain_timeout):
                await self._queue.join()
        except asyncio.TimeoutError:
            pass  # forced: undrained items die with the workers
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for writer in list(self._writers):
            await _close_writer(writer)
        # A handler whose peer closed first has left _writers but may
        # still be closing its transport; asyncio.run would cancel it.
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=_CLOSE_TIMEOUT_S)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._admin is not None:
            # Last: /readyz has been answering 503 since _stopping
            # flipped, and a scraper may want the final drain metrics.
            await self._admin.stop()
        self._stopped.set()

    # ----------------------------------------------------- connections
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        session = Session(session_id=next(self._session_ids))
        write_lock = asyncio.Lock()
        self._writers.add(writer)
        _CONNECTIONS.inc()
        _OPEN_CONNECTIONS.inc()
        try:
            await self._connection_loop(reader, writer, session,
                                        write_lock)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # peer vanished or stalled; nothing to answer
        finally:
            session.close()
            self._writers.discard(writer)
            _OPEN_CONNECTIONS.dec()
            await _close_writer(writer)

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter,
                               session: Session,
                               write_lock: asyncio.Lock) -> None:
        timeout = self.config.io_timeout
        while True:
            try:
                frame = await read_frame(reader, timeout=timeout)
            except FrameError as exc:
                # A malformed frame answers with BAD_FRAME; only a
                # desynchronized stream closes the connection.  The
                # accept loop and every other connection live on.
                reply = Frame(op=Op.PING).error(Status.BAD_FRAME,
                                                str(exc))
                await self._send(writer, write_lock, reply)
                self._count(reply)
                if exc.recoverable:
                    continue
                return
            if frame is None:
                return  # clean EOF
            _BYTES_IN.inc(len(frame.payload))
            if frame.op is Op.SHUTDOWN:
                # Handled inline (not queued): stop() drains the
                # queue, so routing SHUTDOWN through it would wait on
                # itself.
                reply = frame.response()
                await self._send(writer, write_lock, reply)
                self._count(reply)
                if self._stop_task is None:
                    self._stop_task = (
                        asyncio.get_running_loop()
                        .create_task(self.stop())
                    )
                continue
            if self._stopping:
                reply = frame.error(Status.SHUTTING_DOWN,
                                    "server is draining")
                await self._send(writer, write_lock, reply)
                self._count(reply)
                continue
            item = _WorkItem(frame, session, writer, write_lock)
            try:
                self._queue.put_nowait(item)
            except asyncio.QueueFull:
                reply = frame.error(Status.OVERLOADED,
                                    "request queue is full")
                await self._send(writer, write_lock, reply)
                self._count(reply)
                continue
            _INFLIGHT.inc()
            # A buffered frame is read without yielding, so yield once
            # here: an idle worker then takes this item before the
            # next frame is read, and queue_depth counts only work no
            # worker has taken.
            await asyncio.sleep(0)

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, frame: Frame) -> None:
        try:
            async with write_lock:
                await write_frame(writer, frame,
                                  timeout=self.config.io_timeout)
        except (ConnectionError, asyncio.TimeoutError):
            return  # peer gone; the counters already recorded the op
        except FrameError as exc:
            # A response too large to frame (the handlers validate
            # request sizes up front, so this is defensive) must not
            # escape into the worker loop: answer with a small error
            # frame so the connection learns the request failed.
            _LOG.warning("unframeable %s response dropped: %s",
                         frame.op.name, exc)
            frame = frame.error(Status.INTERNAL,
                                "response exceeded the frame limit")
            try:
                async with write_lock:
                    await write_frame(writer, frame,
                                      timeout=self.config.io_timeout)
            except (ConnectionError, asyncio.TimeoutError):
                return
        _BYTES_OUT.inc(len(frame.payload))

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
                    async with asyncio.timeout(
                            self.config.request_timeout):
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
        await self._send(item.writer, item.write_lock, reply)
        trace_record("serve.write", send_start, time.perf_counter(),
                     category="serve", **span_args)
        self._count(reply)

    def _count(self, reply: Frame) -> None:
        _REQUESTS.labels(op=reply.op.name.lower(),
                         status=reply.status.name.lower()).inc()

    # -------------------------------------------------------- handlers
    async def _op_load_key(self, session: Session,
                           frame: Frame) -> Frame:
        if len(frame.payload) != KEY_BYTES:
            return frame.error(
                Status.BAD_REQUEST,
                f"LOAD_KEY payload must be {KEY_BYTES} bytes",
            )
        session.key = frame.payload
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
        loop = asyncio.get_running_loop()
        try:
            # _process already bounds this handler by request_timeout.
            out = await loop.run_in_executor(
                self._executor, work, session.key, frame.payload
            )
        except gcm.AuthenticationError:
            # The GCM layer already bumped its auth-failure counter.
            return frame.error(Status.AUTH_FAILED,
                               "GCM tag verification failed")
        except ValueError as exc:
            return frame.error(Status.BAD_REQUEST, str(exc))
        return frame.response(payload=out)


# The crypto table: (op, mode) -> callable(session_key, payload).
# Every entry runs on the worker thread pool and routes its bulk work
# through ``repro.perf.default_engine()`` via the mode layer, so
# concurrent requests share the engine's batching.  (Dispatch through
# this table also keeps the ECB entries out of the ``ct.raw-ecb``
# call-site lint — the service legitimately exposes ECB as an op.)
def _ctr_split(payload: bytes) -> Tuple[bytes, bytes]:
    if len(payload) < CTR_NONCE_BYTES:
        raise ValueError(
            f"CTR payload needs a {CTR_NONCE_BYTES}-byte nonce prefix"
        )
    return payload[:CTR_NONCE_BYTES], payload[CTR_NONCE_BYTES:]


#: Largest plaintext a GCM ENCRYPT frame may carry: the response is
#: ciphertext + tag and must itself fit in one frame.  GCM ENCRYPT is
#: the only op whose response outgrows its request, so it is the only
#: one needing a bound tighter than the frame limit.
GCM_MAX_PLAINTEXT_BYTES = MAX_PAYLOAD_BYTES - GCM_TAG_BYTES


def _gcm_encrypt(k: bytes, payload: bytes) -> bytes:
    if len(payload) < GCM_IV_BYTES:
        raise ValueError(
            f"GCM payload needs a {GCM_IV_BYTES}-byte IV prefix"
        )
    plaintext = payload[GCM_IV_BYTES:]
    if len(plaintext) > GCM_MAX_PLAINTEXT_BYTES:
        # Checked before any crypto so the ciphertext+tag response is
        # always frameable (same up-front style as _check_lengths).
        raise ValueError(
            f"GCM plaintext of {len(plaintext)} bytes exceeds "
            f"{GCM_MAX_PLAINTEXT_BYTES}: the ciphertext plus "
            f"{GCM_TAG_BYTES}-byte tag must fit one frame"
        )
    ciphertext, tag = gcm.gcm_encrypt(
        k, payload[:GCM_IV_BYTES], plaintext
    )
    return ciphertext + tag


def _gcm_decrypt(k: bytes, payload: bytes) -> bytes:
    if len(payload) < GCM_IV_BYTES + GCM_TAG_BYTES:
        raise ValueError(
            f"GCM payload needs a {GCM_IV_BYTES}-byte IV and a "
            f"{GCM_TAG_BYTES}-byte trailing tag"
        )
    iv = payload[:GCM_IV_BYTES]
    tag = payload[len(payload) - GCM_TAG_BYTES:]
    body = payload[GCM_IV_BYTES:len(payload) - GCM_TAG_BYTES]
    return gcm.gcm_decrypt(k, iv, body, tag)


def _ctr_xcrypt(k: bytes, payload: bytes) -> bytes:
    nonce, data = _ctr_split(payload)
    return modes.ctr_xcrypt(k, nonce, data)


_CRYPTO_OPS: Dict[Tuple[Op, Mode],
                  Callable[[bytes, bytes], bytes]] = {
    (Op.ENCRYPT, Mode.ECB): modes.ecb_encrypt,
    (Op.DECRYPT, Mode.ECB): modes.ecb_decrypt,
    (Op.ENCRYPT, Mode.CTR): _ctr_xcrypt,
    (Op.DECRYPT, Mode.CTR): _ctr_xcrypt,
    (Op.ENCRYPT, Mode.GCM): _gcm_encrypt,
    (Op.DECRYPT, Mode.GCM): _gcm_decrypt,
}


#: How long closing one transport (or stop() waiting for handlers
#: still closing theirs) may take before a stuck peer is given up on.
_CLOSE_TIMEOUT_S = 5.0


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a transport without letting a stuck peer wedge us."""
    writer.close()
    try:
        async with asyncio.timeout(_CLOSE_TIMEOUT_S):
            await writer.wait_closed()
    except (asyncio.TimeoutError, ConnectionError):
        pass


__all__ = ["GCM_MAX_PLAINTEXT_BYTES", "CryptoServer", "ServeConfig",
           "Session"]
