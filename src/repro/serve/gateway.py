"""Session-sharded gateway: consistent-hash routing over workers.

The cluster topology (see ``docs/serving.md``, "Cluster") puts N
single-process :class:`~repro.serve.server.CryptoServer` workers
behind one asyncio router.  The router speaks the existing frame
protocol of :mod:`repro.serve.protocol` on both sides — the trace
extension included, so a traced request is visible end to end — and
routes every frame by its **session id** through a consistent-hash
ring, so a session's keyed state (the worker-side round-key and GHASH
caches) always lands on the same worker.

Design points, in the same bounded/measured discipline as the server:

- **Consistent hashing** (:class:`HashRing`) — ``blake2b``-based so
  placement is deterministic across processes and Python runs
  (``hash()`` is salted per process and would re-shard every
  restart).  Virtual nodes keep the load spread even; removing one
  member remaps only that member's arc of the ring.
- **Affinity** — a frame with a nonzero session id hashes by that id;
  anonymous (session id 0) connections hash by a gateway-assigned
  per-connection id, so a plain client's LOAD_KEY and its follow-up
  requests still land on one worker.
- **Shedding** — each shard has an in-flight cap; beyond it the
  gateway answers ``OVERLOADED`` itself (retryable), the same valve
  as the server's bounded queue, one hop earlier.
- **Health** — backends that expose an admin plane are probed on
  ``/readyz``; a draining or dead worker leaves the ring until the
  probe recovers, and its in-flight requests are answered with
  retryable errors the client's backoff absorbs.
- **Draining** — :meth:`Gateway.stop` flips ``/readyz``, stops
  accepting, waits for in-flight requests, then closes connections.
- **One frame loop** — the client side is the server's own
  :class:`~repro.serve.server.FrameServer` loop (BAD_FRAME, desync,
  half-close, SHUTDOWN, draining); the gateway adds only its routing,
  its per-connection upstreams and its drain.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Set, \
    Tuple

from repro.obs.metrics import BoundSeries, WindowedQuantileSet, \
    global_registry
from repro.serve.protocol import (
    Frame,
    FrameError,
    FrameStream,
    Status,
    close_writer,
    deadline,
    open_frame_stream,
    read_frame,
    write_frame,
)
from repro.serve.server import FrameConn, FrameServer

_LOG = logging.getLogger(__name__)

_REGISTRY = global_registry()
_ROUTED = _REGISTRY.counter(
    "repro_gateway_requests_total",
    "Frames the gateway handled, by shard and outcome",
    labels=("shard", "outcome"),
)
_G_CONNECTIONS = _REGISTRY.counter(
    "repro_gateway_connections_total",
    "Client connections accepted by the gateway",
)
_G_OPEN = _REGISTRY.gauge(
    "repro_gateway_open_connections",
    "Client connections currently open on the gateway",
)
_BACKEND_UP = _REGISTRY.gauge(
    "repro_gateway_backend_up",
    "Whether a backend shard is in the routing ring (1) or not (0)",
    labels=("shard",),
)
_NO_BACKEND = _ROUTED.bind(shard="none", outcome="no_backend")

#: The outcomes of a frame routed to a shard, each bound per shard.
_SHARD_OUTCOMES = ("forwarded", "shed", "unreachable", "backend_lost")


class HashRing:
    """Consistent-hash ring over named members.

    Points come from ``blake2b`` (not the builtin ``hash``, which is
    salted per process): the same members produce the same ring in
    every process, so a restarted gateway — or a test running the
    lookup in a subprocess — places every session identically.  Each
    member contributes ``replicas`` virtual nodes; a key maps to the
    first point clockwise from its own hash, so removing a member
    remaps only the keys on that member's arcs (~1/N of the space).
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._members: Set[str] = set()

    @staticmethod
    def _point(data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def add(self, member: str) -> None:
        """Insert ``member``'s virtual nodes (idempotent)."""
        if member in self._members:
            return
        self._members.add(member)
        for index in range(self.replicas):
            token = f"{member}#{index}".encode("utf-8")
            bisect.insort(self._points, (self._point(token), member))

    def remove(self, member: str) -> None:
        """Remove ``member``'s virtual nodes (idempotent)."""
        if member not in self._members:
            return
        self._members.discard(member)
        self._points = [
            point for point in self._points if point[1] != member
        ]

    def members(self) -> Tuple[str, ...]:
        """The current members, sorted."""
        return tuple(sorted(self._members))

    def lookup(self, sid: int) -> Optional[str]:
        """The member owning session ``sid``; ``None`` on an empty
        ring.  Session ids are routing identifiers, not secrets —
        nothing here is constant-time and nothing needs to be."""
        if not self._points:
            return None
        point = self._point(
            (sid & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        )
        index = bisect.bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


@dataclass(frozen=True)
class BackendSpec:
    """One worker as the gateway sees it.

    ``shard`` is the stable routing identity (``worker-<i>``): a
    restarted worker re-registers under the same shard name even
    though its port changed, so the ring — and every session's
    placement — survives the restart.
    """

    shard: str
    host: str
    port: int
    admin_port: Optional[int] = None


@dataclass
class _BackendState:
    """Mutable per-backend bookkeeping, and the shard's series, bound
    once: its routed-request window and its count of each outcome."""

    spec: BackendSpec
    window: BoundSeries
    routed: Dict[str, BoundSeries]
    healthy: bool = True
    #: Requests forwarded and not yet answered, across all client
    #: connections — the shedding valve reads this.
    inflight: int = 0


@dataclass
class _Pending:
    """One forwarded request awaiting its response."""

    frame: Frame
    started: float = field(default_factory=time.perf_counter)


@dataclass
class _Upstream:
    """One gateway-to-worker connection owned by one client
    connection (connections are not pooled across clients: the
    worker's per-connection Session keys must stay per-client)."""

    shard: str
    stream: FrameStream
    pending: Dict[int, _Pending] = field(default_factory=dict)
    pump_task: Optional["asyncio.Task[None]"] = None


class _GatewayConn(FrameConn):
    """One accepted client connection and its upstream fan-out."""

    def __init__(self, stream: FrameStream, fallback_key: int) -> None:
        super().__init__(stream)
        #: Hash key for session-id-0 frames: per-connection, so an
        #: anonymous connection still pins to one worker.
        self.fallback_key = fallback_key
        self.upstreams: Dict[str, _Upstream] = {}

    async def close(self) -> None:
        """Cancel the pumps and close every transport."""
        pumps = [upstream.pump_task for upstream in self.upstreams.values()
                 if upstream.pump_task is not None]
        for pump in pumps:
            pump.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)
        self.upstreams.clear()
        await super().close()


@dataclass
class GatewayConfig:
    """Tuning knobs of one :class:`Gateway`."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Admin/scrape plane (``/metrics``, ``/readyz``, ...); ``None``
    #: leaves it off, ``0`` binds a free port.
    admin_port: Optional[int] = None
    #: Budget for dialing a worker, seconds.
    connect_timeout: float = 5.0
    #: Socket read/write budget, seconds (both sides).
    io_timeout: float = 60.0
    #: How long :meth:`Gateway.stop` waits for in-flight requests.
    drain_timeout: float = 5.0
    #: Per-shard in-flight cap — the shedding valve.
    shed_inflight: int = 128
    #: Cadence of the ``/readyz`` probes, seconds.
    health_interval_s: float = 0.25
    #: Budget for one probe round-trip, seconds.
    health_timeout_s: float = 2.0
    #: Virtual nodes per ring member.
    ring_replicas: int = 64
    #: Width of the sliding latency-quantile window, seconds.
    window_s: float = 60.0
    #: Routed-request-latency SLO threshold for the burn counters.
    slo_threshold_s: float = 0.25


class Gateway(FrameServer[GatewayConfig, _GatewayConn]):
    """The session-sharded frame router (see the module docstring).

    ``on_shutdown`` runs (once) when a client sends a SHUTDOWN frame.
    It defaults to this gateway's :meth:`stop`; the cluster wires it
    to its own stop, so the remote-drain path of the single-process
    server keeps working one level up.
    """

    _connections = _G_CONNECTIONS
    _open_connections = _G_OPEN

    def __init__(self, config: Optional[GatewayConfig] = None,
                 on_shutdown: Optional[
                     Callable[[], Awaitable[None]]] = None) -> None:
        super().__init__(config or GatewayConfig(),
                         on_shutdown or self.stop)
        self._ring = HashRing(replicas=self.config.ring_replicas)
        self._backends: Dict[str, _BackendState] = {}
        self._conn_keys = itertools.count(0x67570000)
        self._health_task: Optional["asyncio.Task[None]"] = None
        #: Routed-request latency (forward to response), per shard.
        self.request_window = WindowedQuantileSet(
            "repro_gateway_request_window_seconds",
            "Windowed routed-request latency quantiles, by shard",
            label_names=("shard",),
            window_s=self.config.window_s,
            slo_threshold_s=self.config.slo_threshold_s,
        )
        self._windows = {"routed_seconds": self.request_window}

    # ------------------------------------------------------- membership
    def add_backend(self, spec: BackendSpec) -> None:
        """Register (or re-register) a worker under its shard name.

        Re-adding an existing shard replaces its address — how a
        restarted worker with a fresh port rejoins under the same
        ring identity.
        """
        previous = self._backends.get(spec.shard)
        if previous is not None:
            self._ring.remove(spec.shard)
        self._backends[spec.shard] = _BackendState(
            spec=spec,
            window=self.request_window.bind(shard=spec.shard),
            routed={outcome: _ROUTED.bind(shard=spec.shard,
                                          outcome=outcome)
                    for outcome in _SHARD_OUTCOMES},
        )
        self._ring.add(spec.shard)
        _BACKEND_UP.labels(shard=spec.shard).set(1.0)

    def remove_backend(self, shard: str) -> None:
        """Drop a shard from the ring; live connections drain out."""
        self._ring.remove(shard)
        self._backends.pop(shard, None)
        _BACKEND_UP.labels(shard=shard).set(0.0)

    def shard_for(self, session_id: int) -> Optional[str]:
        """Where a (nonzero) session id routes right now."""
        return self._ring.lookup(session_id)

    def shards(self) -> Tuple[str, ...]:
        """Shards currently in the routing ring."""
        return self._ring.members()

    # ------------------------------------------------ frame-loop hooks
    async def _begin(self) -> None:
        """Start the health probes."""
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    def _open(self, stream: FrameStream) -> _GatewayConn:
        return _GatewayConn(stream, fallback_key=next(self._conn_keys))

    async def _drain(self) -> None:
        """Wait up to ``drain_timeout`` for the requests in flight,
        then stop the health probes."""
        loop = asyncio.get_running_loop()
        drain_until = loop.time() + self.config.drain_timeout
        while loop.time() < drain_until and any(
                upstream.pending
                for conn in self._conns
                for upstream in conn.upstreams.values()):
            await asyncio.sleep(0.02)
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task,
                                 return_exceptions=True)
            self._health_task = None

    def _ready(self) -> bool:
        """Drain-aware readiness: accepting and somewhere to route."""
        return super()._ready() and any(
            state.healthy for state in self._backends.values())

    # --------------------------------------------------------- routing
    async def _dispatch(self, conn: _GatewayConn, frame: Frame) -> None:
        """Route one request to its shard, or answer ``OVERLOADED``."""
        key = frame.session_id or conn.fallback_key
        shard = self._ring.lookup(key)
        if shard is None:
            _NO_BACKEND.inc()
            await self._send(conn, frame.error(
                Status.OVERLOADED, "no healthy backend"))
            return
        state = self._backends[shard]
        if state.inflight >= self.config.shed_inflight:
            state.routed["shed"].inc()
            await self._send(conn, frame.error(
                Status.OVERLOADED,
                f"shard {shard} is saturated"))
            return
        upstream = conn.upstreams.get(shard)
        if upstream is None:
            try:
                upstream = await self._dial(conn, state)
            except (OSError, asyncio.TimeoutError):
                # The probe loop will confirm, but the failed dial is
                # evidence enough to stop routing there now.
                state.routed["unreachable"].inc()
                self._set_health(state, False)
                await self._send(conn, frame.error(
                    Status.OVERLOADED,
                    f"shard {shard} is unreachable"))
                return
        upstream.pending[frame.request_id] = _Pending(frame=frame)
        state.inflight += 1
        conn.stream.owe()
        try:
            await write_frame(upstream.stream, frame,
                              timeout=self.config.io_timeout)
        except (ConnectionError, asyncio.TimeoutError):
            # The pump notices the dead transport and answers every
            # pending request (this one included) retryably.
            upstream.stream.close()

    async def _dial(self, conn: _GatewayConn,
                    state: _BackendState) -> _Upstream:
        spec = state.spec
        stream = await open_frame_stream(spec.host, spec.port,
                                         self.config.connect_timeout)
        upstream = _Upstream(shard=spec.shard, stream=stream)
        upstream.pump_task = asyncio.get_running_loop().create_task(
            self._pump(conn, state, upstream)
        )
        conn.upstreams[spec.shard] = upstream
        return upstream

    async def _pump(self, conn: _GatewayConn, state: _BackendState,
                    upstream: _Upstream) -> None:
        """Relay one upstream's responses back to the client."""
        try:
            while True:
                try:
                    response = await read_frame(
                        upstream.stream,
                        timeout=self.config.io_timeout,
                    )
                except asyncio.TimeoutError:
                    if upstream.pending:
                        break  # wedged with work owed: fail it
                    continue  # idle between frames: keep waiting
                if response is None:
                    break  # worker closed the connection
                pending = upstream.pending.pop(response.request_id,
                                               None)
                if pending is not None:
                    state.inflight -= 1
                    state.window.observe(
                        time.perf_counter() - pending.started)
                    state.routed["forwarded"].inc()
                await self._send(conn, response)
                if pending is not None:
                    conn.stream.answered()
        except (ConnectionError, FrameError):
            pass
        finally:
            await self._drop_upstream(conn, state, upstream)

    async def _drop_upstream(self, conn: _GatewayConn,
                             state: _BackendState,
                             upstream: _Upstream) -> None:
        """Close a dead upstream and answer its in-flight requests
        with retryable errors (the client's backoff absorbs them and
        the retry re-dials — possibly a restarted worker)."""
        conn.upstreams.pop(upstream.shard, None)
        await close_writer(upstream.stream)
        if not upstream.pending:
            return
        _LOG.warning(
            "shard %s connection lost with %d request(s) in flight",
            upstream.shard, len(upstream.pending),
        )
        for pending in upstream.pending.values():
            state.inflight -= 1
            state.routed["backend_lost"].inc()
            await self._send(conn, pending.frame.error(
                Status.OVERLOADED,
                f"shard {upstream.shard} connection lost; retry"))
            conn.stream.answered()
        upstream.pending.clear()

    # ---------------------------------------------------------- health
    async def _health_loop(self) -> None:
        # stop() sets _stopping, drains, and only then cancels this
        # task, so a probe can still return while the gateway stops:
        # one that completes during the drain, or one that absorbs
        # the cancel (_probe_ready's timeout scopes pass it on, but a
        # substitute probe may not).  So the flag ends the loop:
        # checked after every probe, before the ring changes or the
        # next backend is probed.
        while not self._stopping:
            await asyncio.sleep(self.config.health_interval_s)
            for state in list(self._backends.values()):
                spec = state.spec
                if spec.admin_port is None:
                    continue  # no admin plane: trust the dial path
                healthy = await _probe_ready(
                    spec.host, spec.admin_port,
                    self.config.health_timeout_s,
                )
                if self._stopping:
                    return
                self._set_health(state, healthy)

    def _set_health(self, state: _BackendState,
                    healthy: bool) -> None:
        if self._backends.get(state.spec.shard) is not state:
            return  # removed (or replaced) while probing
        if healthy == state.healthy:
            return
        state.healthy = healthy
        shard = state.spec.shard
        if healthy:
            self._ring.add(shard)
            _LOG.info("shard %s ready; restored to the ring", shard)
        else:
            self._ring.remove(shard)
            _LOG.warning("shard %s not ready; left the ring", shard)
        _BACKEND_UP.labels(shard=shard).set(1.0 if healthy else 0.0)


async def _probe_ready(host: str, port: int,
                       timeout: float) -> bool:
    """One ``GET /readyz`` against a worker admin plane."""
    try:
        async with deadline(timeout):
            reader, writer = await asyncio.open_connection(host, port)
    except (OSError, asyncio.TimeoutError):
        return False
    try:
        writer.write(b"GET /readyz HTTP/1.1\r\nHost: gateway\r\n"
                     b"Connection: close\r\n\r\n")
        async with deadline(timeout):
            await writer.drain()
        async with deadline(timeout):
            status_line = await reader.readline()
        return b" 200 " in status_line
    except (OSError, asyncio.TimeoutError):
        return False
    finally:
        writer.close()
        try:
            async with deadline(timeout):
                await writer.wait_closed()
        except (OSError, asyncio.TimeoutError):
            pass


__all__ = [
    "BackendSpec",
    "Gateway",
    "GatewayConfig",
    "HashRing",
]
