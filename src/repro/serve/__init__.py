"""The network serving layer: BatchEngine traffic over the wire.

``repro.serve`` turns the repository's crypto stack into a service —
the first subsystem where the batching layer (:mod:`repro.perf`) and
the observability layer (:mod:`repro.obs`) meet real concurrency.
It is stdlib-only asyncio, in five modules (plus the
:mod:`repro.serve.admin` scrape plane the server and the gateway
share):

- :mod:`repro.serve.protocol` — the versioned, length-prefixed
  binary frame format (the network analogue of the pin-level bus
  protocol in ``docs/protocol.md``), with explicit up-front limits
  and a codec that rejects malformed frames without killing the
  connection loop.
- :mod:`repro.serve.server` — the asyncio TCP server: per-connection
  key sessions, a bounded request queue for backpressure, per-request
  timeouts, graceful drain-then-shutdown, and ECB/CTR/GCM executed
  through :func:`repro.perf.engine.default_engine`, instrumented into
  the :mod:`repro.obs` registry.
- :mod:`repro.serve.client` — the async client with connect/request
  timeouts and capped, jittered exponential backoff, plus
  :func:`~repro.serve.client.run_load`, the closed-loop load
  generator of keyed sessions.
- :mod:`repro.serve.gateway` — the session-sharded cluster gateway,
  which runs the server's frame loop: consistent-hash routing of
  session ids over worker backends, with health probes and shedding.
- :mod:`repro.serve.cluster` — multi-process workers under a
  supervisor (spawn, monitor, restart-on-crash, drain-then-stop),
  behind the gateway as one service.

``repro-aes serve``, ``repro-aes cluster`` and ``repro-aes loadgen``
expose the pieces on the command line; ``docs/serving.md`` is the
protocol and semantics reference.
"""

from repro.serve.client import (
    CryptoClient,
    LoadReport,
    RequestFailed,
    RetryPolicy,
    derive_session_key,
    run_load,
)
from repro.serve.cluster import (
    Cluster,
    ClusterConfig,
    Supervisor,
    WorkerHandle,
)
from repro.serve.gateway import (
    BackendSpec,
    Gateway,
    GatewayConfig,
    HashRing,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MAX_PAYLOAD_BYTES,
    VERSION,
    Frame,
    FrameError,
    Mode,
    Op,
    Status,
    decode_frame,
    encode_frame,
)
from repro.serve.server import CryptoServer, ServeConfig, Session

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_PAYLOAD_BYTES",
    "VERSION",
    "BackendSpec",
    "Cluster",
    "ClusterConfig",
    "CryptoClient",
    "CryptoServer",
    "Frame",
    "FrameError",
    "Gateway",
    "GatewayConfig",
    "HashRing",
    "LoadReport",
    "Mode",
    "Op",
    "RequestFailed",
    "RetryPolicy",
    "ServeConfig",
    "Session",
    "Status",
    "Supervisor",
    "WorkerHandle",
    "decode_frame",
    "encode_frame",
    "derive_session_key",
    "run_load",
]
