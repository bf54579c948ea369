"""Multi-process serving: a worker pool under a supervisor.

One asyncio process tops out where the GIL does; this module is the
ROADMAP's answer — N :class:`~repro.serve.server.CryptoServer`
processes, each with its own engine and thread pool, plus the
lifecycle machinery to run them as one service:

- **Workers** — spawned with the ``multiprocessing`` ``spawn`` start
  method (fork would duplicate a live event loop and pool threads;
  spawn re-imports this module cleanly, which is why
  :func:`_worker_main` must stay module-level).  Each worker binds an
  OS-assigned port behind the session-sharded
  :class:`~repro.serve.gateway.Gateway`, reports its bound data and
  admin ports back through a pipe, installs a SIGTERM handler that
  runs the server's drain-then-stop, and exits 0 on a clean stop.
- **Supervisor** — monitors worker processes; a worker that dies with
  a nonzero exit code is restarted under the same shard name with
  exponential backoff (a clean exit 0 is taken as intentional and
  shrinks the pool).  Restarts re-register the new port with the
  gateway, so a session's shard placement survives the crash.
- **Cluster** — the composition the CLI's ``repro-aes cluster``
  runs: supervisor plus gateway, one ``start``/``stop`` pair, with a
  client SHUTDOWN frame at the gateway triggering the whole
  drain-then-stop fan-out (gateway first — ``/readyz`` flips and
  in-flight requests drain — then SIGTERM to every worker).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import global_registry
from repro.serve.gateway import BackendSpec, Gateway, GatewayConfig
from repro.serve.server import CryptoServer, ServeConfig

_LOG = logging.getLogger(__name__)

_REGISTRY = global_registry()
_RESTARTS = _REGISTRY.counter(
    "repro_cluster_restarts_total",
    "Worker processes restarted by the supervisor, by shard",
    labels=("shard",),
)
_WORKERS_UP = _REGISTRY.gauge(
    "repro_cluster_workers",
    "Worker processes currently alive under the supervisor",
)


@dataclass
class ClusterConfig:
    """Tuning knobs of one :class:`Cluster`.

    Worker-facing fields mirror :class:`ServeConfig` (``worker_tasks``
    is the per-worker ``ServeConfig.workers``); the rest parameterize
    the gateway and the supervisor.
    """

    host: str = "127.0.0.1"
    #: Worker processes in the pool.
    workers: int = 2
    #: Gateway listen port (``0`` = OS-assigned).
    gateway_port: int = 0
    #: Gateway admin/scrape plane; ``None`` leaves it off.
    admin_port: Optional[int] = None
    #: Per-worker bounded request queue depth.
    queue_depth: int = 64
    #: Per-worker asyncio worker tasks (``ServeConfig.workers``).
    worker_tasks: int = 4
    request_timeout: float = 10.0
    io_timeout: float = 60.0
    drain_timeout: float = 5.0
    #: Gateway per-shard in-flight cap (the shedding valve).
    shed_inflight: int = 128
    ring_replicas: int = 64
    window_s: float = 60.0
    slo_threshold_s: float = 0.25
    #: Cadence of the gateway's worker ``/readyz`` probes.
    health_interval_s: float = 0.25
    #: Whether workers get their own admin planes (the gateway's
    #: probes and the per-shard CI scrapes need them).
    worker_admin: bool = True
    #: Budget for a spawned worker to report its ports.
    start_timeout_s: float = 30.0
    #: Cadence of the supervisor's liveness sweep.
    monitor_interval_s: float = 0.05
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 2.0
    #: A worker alive longer than this has its backoff reset.
    restart_reset_s: float = 5.0


def _worker_main(index: int, conn: Connection,
                 options: Dict[str, object]) -> None:
    """Worker process entry point (module-level: the ``spawn`` start
    method pickles the target by qualified name and re-imports it)."""
    asyncio.run(_worker_async(index, conn, options))


async def _worker_async(index: int, conn: Connection,
                        options: Dict[str, object]) -> None:
    config = ServeConfig(**options)  # type: ignore[arg-type]
    server = CryptoServer(config)
    await server.start()
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop_requested.set)
    admin_port = (server.admin_address[1]
                  if config.admin_port is not None else 0)
    conn.send((server.address[1], admin_port))
    # Stop on SIGTERM from the supervisor or on a remote SHUTDOWN
    # frame (wait_stopped fires when the frame's stop() completes).
    signal_task = loop.create_task(stop_requested.wait())
    served_task = loop.create_task(server.wait_stopped())
    await asyncio.wait({signal_task, served_task},
                       return_when=asyncio.FIRST_COMPLETED)
    await server.stop()
    for task in (signal_task, served_task):
        task.cancel()
    await asyncio.gather(signal_task, served_task,
                         return_exceptions=True)
    conn.close()


@dataclass
class WorkerHandle:
    """One live worker process as the supervisor tracks it."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    conn: Connection
    host: str
    port: int = 0
    admin_port: int = 0
    #: Consecutive crash-restarts (reset after ``restart_reset_s``).
    restarts: int = 0
    started_at: float = 0.0

    @property
    def shard(self) -> str:
        """The stable routing identity: survives restarts."""
        return f"worker-{self.index}"


class Supervisor:
    """Spawn, watch, restart and stop the worker pool.

    ``on_worker_up`` / ``on_worker_down`` fire on the event loop as
    workers join and leave — the cluster wires them to the gateway's
    backend registry, so ring membership tracks process liveness.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 on_worker_up: Optional[
                     Callable[[WorkerHandle], None]] = None,
                 on_worker_down: Optional[
                     Callable[[WorkerHandle], None]] = None) -> None:
        self.config = config or ClusterConfig()
        self._on_worker_up = on_worker_up
        self._on_worker_down = on_worker_down
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: Dict[int, WorkerHandle] = {}
        self._monitor_task: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._stopped = asyncio.Event()

    def handles(self) -> Tuple[WorkerHandle, ...]:
        """The live worker handles, by index."""
        return tuple(self._handles[index]
                     for index in sorted(self._handles))

    # ------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the pool, wait for every worker, start the watch."""
        if self._monitor_task is not None:
            raise RuntimeError("supervisor already started")
        for index in range(max(1, self.config.workers)):
            handle = await self._spawn(index, restarts=0)
            self._handles[index] = handle
            _WORKERS_UP.inc()
            if self._on_worker_up is not None:
                self._on_worker_up(handle)
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor()
        )

    async def stop(self) -> None:
        """SIGTERM every worker (drain-then-stop inside), then reap;
        stragglers past the drain budget are killed.  Idempotent."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task,
                                 return_exceptions=True)
            self._monitor_task = None
        for handle in self._handles.values():
            if handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + self.config.drain_timeout + 5.0
        for handle in self._handles.values():
            while (handle.process.is_alive()
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.02)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
            handle.process.join(timeout=1.0)
            handle.conn.close()
            _WORKERS_UP.dec()
            if self._on_worker_down is not None:
                self._on_worker_down(handle)
        self._handles.clear()
        self._stopped.set()

    # --------------------------------------------------------- spawning
    def _worker_options(self, index: int) -> Dict[str, object]:
        config = self.config
        return {
            "host": config.host,
            "port": 0,
            "queue_depth": config.queue_depth,
            "workers": config.worker_tasks,
            "request_timeout": config.request_timeout,
            "io_timeout": config.io_timeout,
            "drain_timeout": config.drain_timeout,
            "admin_port": 0 if config.worker_admin else None,
            "window_s": config.window_s,
            "slo_threshold_s": config.slo_threshold_s,
        }

    async def _spawn(self, index: int,
                     restarts: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, child_conn, self._worker_options(index)),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(index=index, process=process,
                              conn=parent_conn,
                              host=self.config.host,
                              restarts=restarts,
                              started_at=time.monotonic())
        deadline = time.monotonic() + self.config.start_timeout_s
        try:
            # poll(0) + sleep: never a blocking recv on the loop.
            while not parent_conn.poll(0):
                if (not process.is_alive()
                        or time.monotonic() > deadline):
                    process.terminate()
                    raise RuntimeError(
                        f"worker {index} failed to start"
                    )
                await asyncio.sleep(0.01)
        except asyncio.CancelledError:
            # Stopped mid-spawn: do not leak the half-started child.
            process.terminate()
            raise
        handle.port, handle.admin_port = parent_conn.recv()
        _LOG.info("worker %d serving on %s:%d (admin port %d)",
                  index, handle.host, handle.port,
                  handle.admin_port)
        return handle

    # ------------------------------------------------------ monitoring
    async def _monitor(self) -> None:
        interval = self.config.monitor_interval_s
        while True:
            await asyncio.sleep(interval)
            for index in sorted(self._handles):
                handle = self._handles[index]
                if handle.process.is_alive():
                    continue
                _WORKERS_UP.dec()
                if self._on_worker_down is not None:
                    self._on_worker_down(handle)
                exitcode = handle.process.exitcode
                if exitcode == 0:
                    # A clean exit is intentional (remote SHUTDOWN):
                    # shrink the pool rather than fight the operator.
                    _LOG.info("worker %d exited cleanly", index)
                    self._handles.pop(index, None)
                    continue
                await self._restart(handle, exitcode)

    async def _restart(self, handle: WorkerHandle,
                       exitcode: Optional[int]) -> None:
        index = handle.index
        restarts = handle.restarts + 1
        if (time.monotonic() - handle.started_at
                > self.config.restart_reset_s):
            restarts = 1
        delay = min(
            self.config.restart_backoff_max_s,
            self.config.restart_backoff_s * (2.0 ** (restarts - 1)),
        )
        _LOG.warning(
            "worker %d died (exit %s); restarting in %.2fs",
            index, exitcode, delay,
        )
        _RESTARTS.labels(shard=handle.shard).inc()
        handle.conn.close()
        await asyncio.sleep(delay)
        if self._stopping:
            return
        try:
            replacement = await self._spawn(index, restarts=restarts)
        except RuntimeError:
            _LOG.error("worker %d failed to restart; giving up",
                       index)
            self._handles.pop(index, None)
            return
        self._handles[index] = replacement
        _WORKERS_UP.inc()
        if self._on_worker_up is not None:
            self._on_worker_up(replacement)


class Cluster:
    """Supervisor plus gateway behind one ``start``/``stop`` pair."""

    def __init__(self,
                 config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.gateway: Gateway = Gateway(
            GatewayConfig(
                host=self.config.host,
                port=self.config.gateway_port,
                admin_port=self.config.admin_port,
                io_timeout=self.config.io_timeout,
                drain_timeout=self.config.drain_timeout,
                shed_inflight=self.config.shed_inflight,
                health_interval_s=self.config.health_interval_s,
                ring_replicas=self.config.ring_replicas,
                window_s=self.config.window_s,
                slo_threshold_s=self.config.slo_threshold_s,
            ),
            on_shutdown=self._shutdown_requested,
        )
        self.supervisor = Supervisor(
            self.config,
            on_worker_up=self._worker_up,
            on_worker_down=self._worker_down,
        )
        self._stopped = asyncio.Event()

    # ------------------------------------------------- worker tracking
    def _worker_up(self, handle: WorkerHandle) -> None:
        self.gateway.add_backend(BackendSpec(
            shard=handle.shard,
            host=handle.host,
            port=handle.port,
            admin_port=handle.admin_port or None,
        ))

    def _worker_down(self, handle: WorkerHandle) -> None:
        self.gateway.remove_backend(handle.shard)

    async def _shutdown_requested(self) -> None:
        await self.stop()

    # ------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spawn the workers, then open the gateway over them."""
        await self.supervisor.start()
        await self.gateway.start()

    async def stop(self) -> None:
        """Drain-then-stop, outside in: gateway first (``/readyz``
        flips, in-flight requests drain), then the worker pool."""
        await self.gateway.stop()
        await self.supervisor.stop()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

    @property
    def address(self) -> Tuple[str, int]:
        """Where clients connect: the gateway."""
        return self.gateway.address


__all__ = [
    "Cluster",
    "ClusterConfig",
    "Supervisor",
    "WorkerHandle",
]
