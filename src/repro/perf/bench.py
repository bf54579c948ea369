"""Software throughput benchmark: the persisted perf trajectory.

This is the harness behind ``repro-aes bench``.  It does three things,
in a fixed order:

1. **Equivalence gate** — every backend is cross-checked bit-for-bit
   against the straightforward model (:class:`repro.aes.cipher.AES128`)
   on random corpora across every batch primitive (ECB, CTR with a
   partial tail, GCTR across the 32-bit counter wrap) *before* any
   timing happens.  A fast wrong answer is worthless; a mismatch
   raises :class:`~repro.perf.engine.BackendMismatch` and the CLI
   exits non-zero, which is what the CI smoke job keys off.
2. **Pinned workload matrix** — backend x mode x message size, the
   software analogue of the area/throughput trade-off tables in the
   MixColumn-architectures literature.  Slow backends are measured on
   a capped prefix of the payload and scaled (per-block cost is size-
   independent for the streaming modes); the cap is recorded honestly
   in ``measured_blocks``.  A serial CBC row rides along as the
   chained-mode reference — the case where, as the paper argues, no
   batching helps and per-block latency is the whole story.
3. **Trajectory record** — the results land in
   ``BENCH_software_throughput.json`` (schema below) so subsequent
   PRs can assert no-regression against a persisted baseline instead
   of folklore.

JSON schema (``repro-aes/software-throughput/v6``)::

    {
      "schema": "repro-aes/software-throughput/v6",
      "created_unix": 1754000000,
      "quick": true,
      "workers": 1,
      "git_rev": "f5387c8..." | "unknown",
      "host": {"platform": ..., "python": ..., "machine": ...,
               "cpu_count": ..., "numpy": "2.4.6" | null,
               "openssl": "OpenSSL 3.x ..." | null},
      "equivalence": {"backends": [...], "primitives": [...],
                      "corpus_blocks": ..., "mismatches": 0,
                      "ghash_providers": [...],
                      "ghash_cases": ..., "ghash_mismatches": 0},
      "workloads": [
        {"backend": "sliced", "vectorized": true, "mode": "ctr",
         "chained": false, "size_bytes": 1048576, "blocks": 65536,
         "measured_blocks": 65536, "reps": 1, "seconds": ...,
         "blocks_per_s": ..., "mb_per_s": ...,
         "speedup_vs_baseline": ...}
      ],
      "ghash": {
        "providers": ["bitwise", "table", "vector"],
        "workloads": [
          {"provider": "table", "vectorized": false,
           "kind": "digest" | "gcm", "size_bytes": ...,
           "blocks": ..., "measured_blocks": ..., "reps": ...,
           "seconds": ..., "blocks_per_s": ..., "mb_per_s": ...,
           "speedup_vs_bitwise": ...}
        ]
      } | null,
      "obs": {"repro_engine_ops_total": {...}, ...},
      "serve": {"clients": 8, "requests_per_client": 16,
                "mode": "ctr", "payload_bytes": 16384,
                "requests": 128, "errors": 0, "seconds": ...,
                "requests_per_s": ..., "mb_per_s": ...,
                "latency": {"p50_s": ..., "p95_s": ...,
                            "p99_s": ..., "max_s": ...} | null
               } | null,
      "cluster": {"mode": "ctr", "payload_bytes": 16384,
                  "sessions": 8, "requests_per_session": 16,
                  "rows": [
                    {"workers": 1, "requests": ..., "errors": 0,
                     "seconds": ..., "requests_per_s": ...,
                     "mb_per_s": ..., "speedup_vs_single": 1.0}
                  ]} | null
    }

v2 added ``git_rev`` (code-revision provenance, best-effort) and the
``obs`` section (a :mod:`repro.obs.metrics` snapshot of the engine
instrumentation accumulated during the run).  v3 added the ``serve``
section: a loopback run of the :mod:`repro.serve` service (in-process
server, :func:`repro.serve.client.run_load` clients) recording what
the *whole stack* — framing, asyncio scheduling, queueing, crypto —
achieves in requests/sec, next to the raw engine rates above it.  v4
added the ``ghash`` section (provider-by-provider GHASH digest and
end-to-end GCM rates, with ``bitwise`` as the denominator), the
GHASH rows of the equivalence gate, and the ``openssl`` host field
recording whether the EVP ceiling backend was available.  v5 added
the serve row's ``latency`` section: client-observed nearest-rank
p50/p95/p99/max request seconds, so a trajectory of bench files
tracks tail latency next to throughput.  v6 added the ``cluster``
section: the same closed-loop load driven through the
:mod:`repro.serve.cluster` gateway against a multi-process worker
pool, one row per worker count, with ``speedup_vs_single`` recording
how requests/s scales as workers are added (on a single-CPU host the
honest answer is "barely" — the row exists to record that, not to
flatter it).  :func:`load_report` reads v1 through v6, normalizing
older shapes (``serve`` / ``ghash`` / ``latency`` / ``cluster``
become ``None`` where a section predates the schema) — so downstream
comparisons never branch on the version.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.aes.cipher import AES128
from repro.aes.vectors import SP800_38A_ECB128_KEY
from repro.perf.backends import (
    Backend,
    available_backends,
    numpy_version,
)
from repro.obs.metrics import global_registry
from repro.obs.tracing import trace_span
from repro.perf.engine import BackendMismatch, BatchEngine

BLOCK = 16

SCHEMA_V1 = "repro-aes/software-throughput/v1"
SCHEMA_V2 = "repro-aes/software-throughput/v2"
SCHEMA_V3 = "repro-aes/software-throughput/v3"
SCHEMA_V4 = "repro-aes/software-throughput/v4"
SCHEMA_V5 = "repro-aes/software-throughput/v5"
SCHEMA = "repro-aes/software-throughput/v6"

DEFAULT_OUT = "BENCH_software_throughput.json"

#: The pinned message sizes (bytes) of the full and quick matrices.
FULL_SIZES = (16384, 262144, 1048576)
QUICK_SIZES = (16384, 1048576)

#: Parallelizable modes every backend is timed on.
BATCH_MODES = ("ecb", "ctr")

#: Measurement caps, in blocks, per backend name.  The baseline runs
#: ~1.5k blocks/s in CPython, so timing a full 1 MiB through it would
#: dominate the whole bench; a capped prefix gives the same per-block
#: cost.  ``measured_blocks`` records what actually ran.
_MEASURE_CAPS = {"baseline": 2048}
_MEASURE_CAPS_QUICK = {"baseline": 512}

#: Same discipline for the GHASH section: the bitwise provider runs
#: ~50k blocks/s, so it is timed on a capped prefix and scaled.
_GHASH_CAPS = {"bitwise": 4096}
_GHASH_CAPS_QUICK = {"bitwise": 1024}

#: Seed for every corpus/payload this harness generates — pinned so
#: the trajectory compares like against like across PRs.
_SEED = 2003


# ------------------------------------------------------- golden model
def _serial_ecb(key: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + BLOCK])
                    for i in range(0, len(data), BLOCK))


def _serial_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (index // BLOCK).to_bytes(8, "big")
        stream = aes.encrypt_block(nonce + counter)
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


def _serial_gctr(key: bytes, icb: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    head, start = icb[:12], int.from_bytes(icb[12:], "big")
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (start + index // BLOCK) & 0xFFFFFFFF
        stream = aes.encrypt_block(head + counter.to_bytes(4, "big"))
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


# --------------------------------------------------- equivalence gate
def cross_check(backends: Optional[Dict[str, Backend]] = None,
                corpus_blocks: int = 48,
                seed: int = _SEED) -> Dict[str, object]:
    """Verify every backend against the straightforward model.

    Raises :class:`BackendMismatch` naming the first divergent
    (backend, primitive) pair; returns the summary recorded in the
    bench JSON when everything agrees.
    """
    if backends is None:
        backends = available_backends()
    rng = random.Random(seed)
    keys = [SP800_38A_ECB128_KEY,
            bytes(rng.randrange(256) for _ in range(16))]
    aligned = rng.randbytes(corpus_blocks * BLOCK)
    ragged = rng.randbytes(corpus_blocks * BLOCK - 7)
    nonce = rng.randbytes(8)
    # An ICB 2 blocks short of the 32-bit wrap: the corpus crosses it.
    icb = rng.randbytes(12) + (0xFFFFFFFE).to_bytes(4, "big")

    primitives: Dict[
        str, Callable[[BatchEngine, bytes], Sequence[bytes]]
    ] = {
        "ecb": lambda eng, key: (eng.xcrypt_ecb(key, aligned),
                                 _serial_ecb(key, aligned)),
        "ctr": lambda eng, key: (eng.xcrypt_ctr(key, nonce, ragged),
                                 _serial_ctr(key, nonce, ragged)),
        "gctr": lambda eng, key: (eng.gctr(key, icb, ragged),
                                  _serial_gctr(key, icb, ragged)),
    }
    for name, backend in sorted(backends.items()):
        engine = BatchEngine(backend)
        for primitive, run in primitives.items():
            for key in keys:
                got, want = run(engine, key)
                if got != want:
                    raise BackendMismatch(
                        f"backend {name!r} diverges from the "
                        f"straightforward model on {primitive} "
                        f"(corpus {corpus_blocks} blocks, "
                        f"seed {seed})"
                    )
    return {
        "backends": sorted(backends),
        "primitives": sorted(primitives),
        "corpus_blocks": corpus_blocks,
        "keys": len(keys),
        "mismatches": 0,
    }


def cross_check_ghash(providers: Optional[Dict[str, object]] = None,
                      seed: int = _SEED) -> Dict[str, object]:
    """Verify every GHASH provider against the golden ``_ghash``.

    The corpus sweeps message lengths 0..3 blocks ± 1 byte, a
    multi-part split (GCM's AAD/ciphertext/lengths layout), and a
    buffer long enough to cross the vector provider's lane
    threshold.  Raises :class:`BackendMismatch` on the first
    divergence; returns the summary merged into the bench JSON's
    ``equivalence`` section.
    """
    from repro.aes import ghash as ghash_mod
    from repro.aes.gcm import _ghash as golden

    if providers is None:
        providers = dict(ghash_mod.available_providers())
    rng = random.Random(seed)
    subkeys = [rng.getrandbits(128) for _ in range(2)]
    lengths = sorted({
        max(0, n * BLOCK + d)
        for n in range(4) for d in (-1, 0, 1)
    } | {2 * ghash_mod.VECTOR_LANES * BLOCK + 5})
    cases = 0
    for subkey in subkeys:
        for length in lengths:
            data = rng.randbytes(length)
            want = golden(
                data=data + bytes((-length) % BLOCK), h=subkey)
            split = rng.randrange(length + 1)
            layouts = [(data,), (data[:split], data[split:])]
            for parts in layouts:
                padded = b"".join(
                    p + bytes((-len(p)) % BLOCK) for p in parts)
                expect = golden(subkey, padded) \
                    if len(parts) > 1 else want
                for name, provider in sorted(providers.items()):
                    cases += 1
                    got = provider.digest(subkey, parts)
                    if got != expect:
                        raise BackendMismatch(
                            f"ghash provider {name!r} diverges from "
                            f"the golden _ghash on a {length}-byte "
                            f"message split {tuple(len(p) for p in parts)} "
                            f"(seed {seed})"
                        )
    return {
        "ghash_providers": sorted(providers),
        "ghash_cases": cases,
        "ghash_mismatches": 0,
    }


# ------------------------------------------------------------- timing
def host_fingerprint() -> Dict[str, object]:
    """Where these numbers were measured (trajectories only compare
    within a fingerprint; CI hosts vary run to run)."""
    from repro.perf.evp import openssl_version
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version(),
        "openssl": openssl_version(),
    }


def git_revision(root: Optional[Path] = None) -> str:
    """The commit hash these numbers were measured at, best-effort.

    Returns ``"unknown"`` when git is absent, the tree is not a
    repository, or anything else goes wrong — provenance must never
    fail a bench run.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    if proc.returncode == 0 and rev:
        return rev
    return "unknown"


# ----------------------------------------------------- serve scenario
def serve_scenario(quick: bool = False,
                   clients: Optional[int] = None,
                   requests: Optional[int] = None,
                   payload_bytes: Optional[int] = None
                   ) -> Dict[str, object]:
    """Loopback serve run: in-process server, closed-loop clients.

    The workload matrix above times the engine primitives alone; this
    scenario times the whole service stack — frame codec, asyncio
    scheduling, the bounded queue, executor hand-off and the crypto —
    as a client fleet sees it.  Runs entirely on loopback inside one
    process (no subprocess, no fixed port), so it is as pinned as the
    matrix: same seed, same payload discipline.
    """
    import asyncio

    from repro.serve.client import run_load
    from repro.serve.protocol import Mode
    from repro.serve.server import CryptoServer, ServeConfig

    if clients is None:
        clients = 4 if quick else 8
    if requests is None:
        requests = 8 if quick else 16
    if payload_bytes is None:
        payload_bytes = 4096 if quick else 16384
    session_key = random.Random(_SEED).randbytes(16)

    async def _run() -> Dict[str, object]:
        server = CryptoServer(ServeConfig(port=0))
        await server.start()
        try:
            host, port = server.address
            report = await run_load(
                host, port, session_key,
                clients=clients, requests=requests,
                mode=Mode.CTR, payload_bytes=payload_bytes,
                seed=_SEED,
            )
        finally:
            await server.stop()
        return {
            "clients": clients,
            "requests_per_client": requests,
            "mode": report.mode,
            "payload_bytes": payload_bytes,
            "requests": report.requests,
            "errors": report.errors,
            "seconds": round(report.seconds, 6),
            "requests_per_s": round(report.requests_per_s, 1),
            "mb_per_s": round(report.mb_per_s, 3),
            # v5: client-observed latency percentiles next to the
            # rates (None when no request completed a round-trip).
            "latency": {
                key: round(value, 6)
                for key, value in report.latency.items()
            } or None,
        }

    with trace_span("bench.serve", clients=clients,
                    requests=requests):
        return asyncio.run(_run())


# --------------------------------------------------- cluster scenario
def cluster_scenario(quick: bool = False,
                     worker_counts: Optional[Sequence[int]] = None,
                     sessions: Optional[int] = None,
                     requests: Optional[int] = None,
                     payload_bytes: Optional[int] = None
                     ) -> Dict[str, object]:
    """Gateway-routed cluster run: requests/s versus worker count.

    The serve scenario above times one server process; this one
    stands up the whole :mod:`repro.serve.cluster` topology — a
    supervisor spawning N worker processes plus the session-sharded
    gateway — and drives :func:`repro.serve.client.run_session_load`
    through the gateway, once per worker count.  Each row records the
    closed-loop rate and ``speedup_vs_single`` against the 1-worker
    row, which is the scaling claim the topology exists to make.  On
    a single-CPU host the speedup saturates near 1.0x; the row
    records whatever the host actually delivers (``host.cpu_count``
    above says why).
    """
    import asyncio

    from repro.serve.client import run_session_load
    from repro.serve.cluster import Cluster, ClusterConfig
    from repro.serve.protocol import Mode

    if worker_counts is None:
        worker_counts = (1, 2) if quick else (1, 2, 4)
    counts = tuple(sorted(set(int(w) for w in worker_counts)))
    if not counts or any(w < 1 for w in counts):
        raise ValueError("worker counts must be positive integers")
    if sessions is None:
        sessions = 4 if quick else 8
    if requests is None:
        requests = 8 if quick else 16
    if payload_bytes is None:
        payload_bytes = 4096 if quick else 16384
    base_key = random.Random(_SEED).randbytes(16)

    async def _run(workers: int) -> Dict[str, object]:
        cluster = Cluster(ClusterConfig(workers=workers,
                                        gateway_port=0))
        await cluster.start()
        try:
            host, port = cluster.address
            report = await run_session_load(
                host, port, base_key,
                sessions=sessions, requests=requests,
                mode=Mode.CTR, payload_bytes=payload_bytes,
                seed=_SEED,
            )
        finally:
            await cluster.stop()
        return {
            "workers": workers,
            "requests": report.requests,
            "errors": report.errors,
            "seconds": round(report.seconds, 6),
            "requests_per_s": round(report.requests_per_s, 1),
            "mb_per_s": round(report.mb_per_s, 3),
        }

    rows: List[Dict[str, object]] = []
    for workers in counts:
        with trace_span("bench.cluster", workers=workers,
                        sessions=sessions):
            rows.append(asyncio.run(_run(workers)))

    single = (float(rows[0]["requests_per_s"])  # type: ignore[arg-type]
              if rows[0]["workers"] == 1 else None)
    for row in rows:
        rate = float(row["requests_per_s"])  # type: ignore[arg-type]
        row["speedup_vs_single"] = (
            round(rate / single, 2) if single else None
        )
    return {
        "mode": "ctr",
        "payload_bytes": payload_bytes,
        "sessions": sessions,
        "requests_per_session": requests,
        "rows": rows,
    }


def ghash_section(quick: bool = False,
                  sizes: Optional[Sequence[int]] = None,
                  reps: Optional[int] = None,
                  provider_names: Optional[Sequence[str]] = None
                  ) -> Dict[str, object]:
    """Time every GHASH provider: raw digests and end-to-end GCM.

    Two row kinds per (provider, size): ``digest`` isolates the
    GF(2^128) fold itself; ``gcm`` runs the golden GCM composition
    (``repro.aes.gcm._seal``) with the process default provider
    pinned to the row's provider — what :func:`repro.aes.gcm.
    gcm_encrypt` runs where the default backend has no native GCM.
    ``bitwise`` — the golden model's cost — is the denominator of
    ``speedup_vs_bitwise`` and is measured on a capped prefix like
    the baseline cipher backend.
    """
    from repro.aes import ghash as ghash_mod
    from repro.aes.gcm import _seal

    providers = dict(ghash_mod.available_providers())
    if provider_names:
        unknown = sorted(set(provider_names) - set(providers))
        if unknown:
            raise ValueError(
                f"unknown ghash providers: {', '.join(unknown)}")
        providers = {name: providers[name]
                     for name in provider_names}
    if "bitwise" not in providers:
        providers["bitwise"] = \
            ghash_mod.available_providers()["bitwise"]

    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    sizes = sorted(set(int(s) for s in sizes))
    if reps is None:
        reps = 1 if quick else 3
    caps = _GHASH_CAPS_QUICK if quick else _GHASH_CAPS

    rng = random.Random(_SEED)
    subkey = rng.getrandbits(128)
    key = SP800_38A_ECB128_KEY
    iv = rng.randbytes(12)
    payload = rng.randbytes(max(sizes))

    rows: List[Dict[str, object]] = []
    previous = ghash_mod.default_provider()
    try:
        for name in sorted(providers):
            provider = providers[name]
            cap = caps.get(name)
            for size in sizes:
                blocks = size // BLOCK
                measured = blocks if cap is None \
                    else min(blocks, cap)
                piece = payload[:measured * BLOCK]
                for kind in ("digest", "gcm"):
                    if kind == "digest":
                        fn: Callable[[], object] = (
                            lambda p=piece, prov=provider:
                            prov.digest(subkey, (p,)))
                    else:
                        ghash_mod.set_default_provider(name)
                        fn = (lambda p=piece: _seal(key, iv, p, b""))
                    with trace_span("bench.ghash", provider=name,
                                    kind=kind, size_bytes=size):
                        seconds = _measure(fn, reps)
                    per_rep = seconds / reps if reps else 0.0
                    rate = (measured / per_rep) if per_rep > 0 \
                        else 0.0
                    rows.append({
                        "provider": name,
                        "vectorized": provider.vectorized,
                        "kind": kind,
                        "size_bytes": size,
                        "blocks": blocks,
                        "measured_blocks": measured,
                        "reps": reps,
                        "seconds": round(seconds, 6),
                        "blocks_per_s": round(rate, 1),
                        "mb_per_s": round(
                            rate * BLOCK / (1024 * 1024), 3),
                    })
    finally:
        ghash_mod.set_default_provider(previous.name)

    base: Dict[object, float] = {}
    for row in rows:
        if row["provider"] == "bitwise":
            base[(row["kind"], row["size_bytes"])] = \
                float(row["blocks_per_s"])  # type: ignore[arg-type]
    for row in rows:
        denom = base.get((row["kind"], row["size_bytes"]))
        rate = float(row["blocks_per_s"])  # type: ignore[arg-type]
        row["speedup_vs_bitwise"] = (
            round(rate / denom, 2) if denom else None
        )
    return {"providers": sorted(providers), "workloads": rows}


def _measure(fn: Callable[[], object], reps: int) -> float:
    fn()  # warm-up: table/array builds, cache fills
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - start


def run_bench(quick: bool = False,
              sizes: Optional[Sequence[int]] = None,
              reps: Optional[int] = None,
              backend_names: Optional[Sequence[str]] = None,
              workers: int = 1,
              corpus_blocks: int = 48,
              serve: bool = True,
              ghash: bool = True,
              ghash_names: Optional[Sequence[str]] = None,
              cluster: bool = True
              ) -> Dict[str, object]:
    """Equivalence-gate then time the pinned workload matrix.

    Returns the full report dict (the JSON payload).  ``sizes`` and
    ``reps`` override the pinned matrix for smoke tests; the defaults
    are the persisted-trajectory configuration.  ``ghash=False``
    skips the GHASH section (``"ghash": null``); ``ghash_names``
    restricts it to specific providers (``bitwise`` always rides
    along as the denominator).  ``cluster=False`` skips the
    multi-process cluster scaling section (``"cluster": null``) —
    useful where spawning worker processes is unwelcome (sandboxes,
    coverage runs).
    """
    all_backends = available_backends()
    if backend_names:
        unknown = sorted(set(backend_names) - set(all_backends))
        if unknown:
            raise ValueError(f"unknown backends: {', '.join(unknown)}")
        backends = {name: all_backends[name]
                    for name in backend_names}
    else:
        backends = all_backends
    if "baseline" not in backends:
        # Speedups are *defined* relative to the straightforward
        # model; it always runs.
        backends["baseline"] = all_backends["baseline"]

    with trace_span("bench.cross_check",
                    backends=",".join(sorted(backends))):
        equivalence = cross_check(backends,
                                  corpus_blocks=corpus_blocks)
        equivalence.update(cross_check_ghash())

    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    sizes = sorted(set(int(s) for s in sizes))
    if any(s < BLOCK or s % BLOCK for s in sizes):
        raise ValueError(
            f"workload sizes must be positive multiples of {BLOCK}"
        )
    if reps is None:
        reps = 1 if quick else 3
    caps = _MEASURE_CAPS_QUICK if quick else _MEASURE_CAPS

    rng = random.Random(_SEED)
    key = SP800_38A_ECB128_KEY
    nonce = rng.randbytes(8)
    iv = rng.randbytes(16)
    payload = rng.randbytes(max(sizes))

    rows: List[Dict[str, object]] = []
    for name in sorted(backends):
        engine = BatchEngine(backends[name], workers=workers)
        cap = caps.get(name)
        for mode in BATCH_MODES:
            for size in sizes:
                blocks = size // BLOCK
                measured = blocks if cap is None else min(blocks, cap)
                piece = payload[:measured * BLOCK]
                if mode == "ecb":
                    fn = lambda p=piece: engine.xcrypt_ecb(key, p)
                else:
                    fn = lambda p=piece: engine.xcrypt_ctr(
                        key, nonce, p)
                with trace_span("bench.workload", backend=name,
                                mode=mode, size_bytes=size):
                    seconds = _measure(fn, reps)
                rows.append(_row(name, backends[name], mode, False,
                                 size, blocks, measured, reps,
                                 seconds))

    # Serial chained-mode reference: CBC through the straightforward
    # model.  No backend can batch it — that is the point.
    from repro.aes.modes import cbc_encrypt
    cbc_size = min(sizes)
    cbc_blocks = cbc_size // BLOCK
    cap = caps.get("baseline")
    measured = cbc_blocks if cap is None else min(cbc_blocks, cap)
    piece = payload[:measured * BLOCK]
    with trace_span("bench.workload", backend="baseline",
                    mode="cbc", size_bytes=cbc_size):
        seconds = _measure(lambda: cbc_encrypt(key, iv, piece), reps)
    rows.append(_row("baseline", backends["baseline"], "cbc", True,
                     cbc_size, cbc_blocks, measured, reps, seconds))

    _attach_speedups(rows)
    ghash_rows = ghash_section(
        quick=quick, sizes=sizes, reps=reps,
        provider_names=ghash_names,
    ) if ghash else None
    serve_row = serve_scenario(quick=quick) if serve else None
    cluster_section = cluster_scenario(quick=quick) if cluster \
        else None
    return {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "quick": bool(quick),
        "workers": int(workers),
        "git_rev": git_revision(),
        "host": host_fingerprint(),
        "equivalence": equivalence,
        "workloads": rows,
        "ghash": ghash_rows,
        "obs": global_registry().snapshot(prefix="repro_engine_"),
        "serve": serve_row,
        "cluster": cluster_section,
    }


def _row(name: str, backend: Backend, mode: str, chained: bool,
         size: int, blocks: int, measured: int, reps: int,
         seconds: float) -> Dict[str, object]:
    per_rep = seconds / reps if reps else 0.0
    blocks_per_s = (measured / per_rep) if per_rep > 0 else 0.0
    return {
        "backend": name,
        "vectorized": backend.vectorized,
        "mode": mode,
        "chained": chained,
        "size_bytes": size,
        "blocks": blocks,
        "measured_blocks": measured,
        "reps": reps,
        "seconds": round(seconds, 6),
        "blocks_per_s": round(blocks_per_s, 1),
        "mb_per_s": round(blocks_per_s * BLOCK / (1024 * 1024), 3),
    }


def _attach_speedups(rows: List[Dict[str, object]]) -> None:
    baseline: Dict[object, float] = {}
    for row in rows:
        if row["backend"] == "baseline":
            baseline[(row["mode"], row["size_bytes"])] = \
                float(row["blocks_per_s"])  # type: ignore[arg-type]
    for row in rows:
        base = baseline.get((row["mode"], row["size_bytes"]))
        rate = float(row["blocks_per_s"])  # type: ignore[arg-type]
        row["speedup_vs_baseline"] = (
            round(rate / base, 2) if base else None
        )


def write_report(report: Dict[str, object], out: Path) -> Path:
    """Persist the trajectory JSON (pretty-printed, trailing newline)."""
    out = Path(out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True)
                   + "\n")
    return out


def load_report(path: Path) -> Dict[str, object]:
    """Read a persisted trajectory file, v1 through v6.

    Older files are normalized to the v6 shape: v1 gains
    ``git_rev="unknown"`` and an empty ``obs``; v1 and v2 gain
    ``serve=None``; v1 through v3 gain ``ghash=None``; v1 through v4
    serve sections gain ``latency=None``; v1 through v5 gain
    ``cluster=None`` (each section predates those schemas) — so
    downstream comparisons never need to branch on the schema.  An
    unrecognized schema raises ``ValueError``.
    """
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema == SCHEMA_V1:
        report.setdefault("git_rev", "unknown")
        report.setdefault("obs", {})
        report.setdefault("serve", None)
        report.setdefault("ghash", None)
    elif schema == SCHEMA_V2:
        report.setdefault("serve", None)
        report.setdefault("ghash", None)
    elif schema == SCHEMA_V3:
        report.setdefault("ghash", None)
    elif schema not in (SCHEMA_V4, SCHEMA_V5, SCHEMA):
        raise ValueError(
            f"unrecognized bench schema {schema!r} in {path} "
            f"(expected {SCHEMA_V1!r}, {SCHEMA_V2!r}, {SCHEMA_V3!r}, "
            f"{SCHEMA_V4!r}, {SCHEMA_V5!r} or {SCHEMA!r})"
        )
    serve = report.get("serve")
    if isinstance(serve, dict):
        # v1–v4 serve rows predate the latency-percentile section.
        serve.setdefault("latency", None)
    # v1–v5 predate the cluster scaling section.
    report.setdefault("cluster", None)
    return report


def render_report(report: Dict[str, object]) -> str:
    """Human-readable table of one bench run."""
    lines = []
    host = report["host"]
    numpy_note = host["numpy"] or "absent"  # type: ignore[index]
    rev = str(report.get("git_rev", "unknown"))[:12]
    lines.append(
        f"software throughput "
        f"({'quick' if report['quick'] else 'full'} matrix, "
        f"workers={report['workers']}, numpy={numpy_note}, "
        f"rev={rev})"
    )
    header = (f"{'backend':<10} {'mode':<5} {'size':>9} "
              f"{'blocks/s':>12} {'MB/s':>9} {'vs baseline':>12}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["workloads"]:  # type: ignore[union-attr]
        speedup = row["speedup_vs_baseline"]
        speedup_text = f"{speedup:.2f}x" if speedup else "-"
        tag = "*" if row["vectorized"] else " "
        lines.append(
            f"{row['backend']:<10}{tag}{row['mode']:<5} "
            f"{_human_size(row['size_bytes']):>9} "
            f"{row['blocks_per_s']:>12,.0f} "
            f"{row['mb_per_s']:>9.2f} {speedup_text:>12}"
        )
    ghash = report.get("ghash")
    if ghash:
        lines.append("ghash (provider, digest | end-to-end gcm):")
        by_key: Dict[object, Dict[str, object]] = {
            (row["provider"], row["kind"], row["size_bytes"]): row
            for row in ghash["workloads"]  # type: ignore[index]
        }
        providers = ghash["providers"]  # type: ignore[index]
        ghash_rows = ghash["workloads"]  # type: ignore[index]
        sizes_seen = sorted({row["size_bytes"]
                             for row in ghash_rows})
        for provider in providers:  # type: ignore[union-attr]
            for size in sizes_seen:
                digest = by_key.get((provider, "digest", size))
                gcm = by_key.get((provider, "gcm", size))
                if digest is None or gcm is None:
                    continue
                speedup = gcm["speedup_vs_bitwise"]
                speedup_text = (f"{speedup:.2f}x"
                                if speedup else "-")
                tag = "*" if digest["vectorized"] else " "
                lines.append(
                    f"  {provider:<8}{tag}{_human_size(size):>9} "
                    f"{digest['mb_per_s']:>9.2f} MB/s | "
                    f"gcm {gcm['mb_per_s']:>9.2f} MB/s "
                    f"{speedup_text:>9} vs bitwise"
                )
    eq: Dict[str, object] = report["equivalence"]  # type: ignore[assignment]
    backends_n = len(eq["backends"])  # type: ignore[arg-type]
    primitives_n = len(eq["primitives"])  # type: ignore[arg-type]
    lines.append(
        f"equivalence: {backends_n} backend(s) "
        f"x {primitives_n} primitive(s) "
        f"x {eq['keys']} key(s), "
        f"{eq['mismatches']} mismatch(es)"
    )
    if "ghash_providers" in eq:
        ghash_providers = eq["ghash_providers"]
        assert isinstance(ghash_providers, list)
        lines.append(
            f"ghash equivalence: "
            f"{len(ghash_providers)} provider(s), "
            f"{eq['ghash_cases']} case(s), "
            f"{eq['ghash_mismatches']} mismatch(es)"
        )
    serve = report.get("serve")
    if serve:
        lines.append(
            f"serve: {serve['clients']} client(s) x "  # type: ignore[index]
            f"{serve['requests_per_client']} req, "  # type: ignore[index]
            f"{serve['mode']} "  # type: ignore[index]
            f"{_human_size(serve['payload_bytes'])}: "  # type: ignore[index]
            f"{serve['requests_per_s']:,.0f} req/s, "  # type: ignore[index]
            f"{serve['mb_per_s']:.2f} MB/s, "  # type: ignore[index]
            f"{serve['errors']} error(s)"  # type: ignore[index]
        )
        latency = serve.get("latency")  # type: ignore[union-attr]
        if latency:
            lines.append(
                "serve latency: "
                + ", ".join(
                    f"{key[:-2]}={latency[key] * 1000:.2f}ms"
                    for key in ("p50_s", "p95_s", "p99_s", "max_s")
                    if latency.get(key) is not None
                )
            )
    cluster = report.get("cluster")
    if cluster:
        sessions = cluster["sessions"]  # type: ignore[index]
        per_sess = cluster["requests_per_session"]  # type: ignore[index]
        mode_name = cluster["mode"]  # type: ignore[index]
        payload = cluster["payload_bytes"]  # type: ignore[index]
        lines.append(
            f"cluster: {sessions} session(s) x {per_sess} req, "
            f"{mode_name} {_human_size(payload)}:"
        )
        for row in cluster["rows"]:  # type: ignore[index]
            speedup = row["speedup_vs_single"]
            speedup_text = f"{speedup:.2f}x" if speedup else "-"
            lines.append(
                f"  {row['workers']} worker(s): "
                f"{row['requests_per_s']:>8,.0f} req/s, "
                f"{row['mb_per_s']:.2f} MB/s, "
                f"{row['errors']} error(s), "
                f"{speedup_text} vs single"
            )
    lines.append("(* = numpy-vectorized; baseline rows may be "
                 "measured on a capped prefix, see measured_blocks)")
    return "\n".join(lines)


def _human_size(size: int) -> str:
    if size % (1024 * 1024) == 0:
        return f"{size // (1024 * 1024)} MiB"
    if size % 1024 == 0:
        return f"{size // 1024} KiB"
    return f"{size} B"


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny direct entry point (``python -m repro.perf.bench``)."""
    report = run_bench(quick="--quick" in (argv or sys.argv[1:]))
    write_report(report, Path(DEFAULT_OUT))
    print(render_report(report))
    return 0
