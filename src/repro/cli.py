"""Command-line interface: ``repro-aes <command>``.

Exposes the reproduction's main flows without writing Python:

.. code-block:: text

    repro-aes tables 2              # regenerate the paper's Table 2
    repro-aes figure 5              # print the S-box figure
    repro-aes encrypt --key 00..0f --data 00..ff
    repro-aes fit --variant both --device Cyclone
    repro-aes sweep --device Acex1K
    repro-aes seu --injections 40 --hardened
    repro-aes power --blocks 8 --family Cyclone
    repro-aes hdl --variant encrypt --outdir build/
    repro-aes vcd --blocks 1 --out wave.vcd
    repro-aes lint --strict --format sarif
    repro-aes sta --variant both --device Acex1K
    repro-aes bench                 # the backend equivalence gate
    repro-aes stats --blocks 4 --format prom
    repro-aes serve --port 9999 --metrics-out serve-metrics.json
    repro-aes loadgen --port 9999 --clients 8 --requests 32
    repro-aes --trace trace.json stats --blocks 2

``--trace FILE`` works with every subcommand: it records spans across
the whole run and writes Chrome-trace JSON on exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.ip.control import Variant


def _hex_bytes(text: str, length: int, what: str) -> bytes:
    try:
        data = bytes.fromhex(text)
    except ValueError as exc:
        raise SystemExit(f"error: {what} is not valid hex: {exc}")
    if len(data) != length:
        raise SystemExit(
            f"error: {what} must be {length} bytes "
            f"({2 * length} hex digits), got {len(data)}"
        )
    return data


def _variant(name: str) -> Variant:
    try:
        return Variant(name)
    except ValueError:
        raise SystemExit(
            f"error: unknown variant {name!r}; "
            f"choose from encrypt/decrypt/both"
        )


# ---------------------------------------------------------------- commands
def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import table1_text, table2_text, \
        table3_text

    which = args.number
    if which in (None, 1):
        print(table1_text())
    if which in (None, 2):
        print(table2_text())
    if which in (None, 3):
        print(table3_text())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.figures import ALL_FIGURES

    key = f"fig{args.number}"
    if key not in ALL_FIGURES:
        raise SystemExit(f"error: figures are 1..9, got {args.number}")
    print(ALL_FIGURES[key]())
    return 0


def cmd_encrypt(args: argparse.Namespace) -> int:
    try:
        key = bytes.fromhex(args.key)
    except ValueError as exc:
        raise SystemExit(f"error: --key is not valid hex: {exc}")
    if len(key) not in (16, 24, 32):
        raise SystemExit("error: --key must be 16, 24 or 32 bytes")
    data = _hex_bytes(args.data, 16, "--data")

    from repro.ip.testbench import Testbench

    if len(key) == 16:
        variant = Variant.DECRYPT if args.decrypt else Variant.ENCRYPT
        bench = Testbench(variant)
        core = "on-the-fly AES-128 core"
    else:
        # Wider keys run on the precomputed-schedule core (the
        # on-the-fly reverse walk is AES-128-only).
        from repro.ip.precomputed import PrecomputedTestbench

        bench = PrecomputedTestbench(len(key) * 8)
        core = f"precomputed-schedule AES-{len(key) * 8} core"
    setup = bench.load_key(key)
    if args.decrypt:
        result, latency = bench.decrypt(data)
    else:
        result, latency = bench.encrypt(data)
    print(f"device   : {core}")
    print(f"key setup: {setup} cycle(s)")
    print(f"result   : {result.hex()}")
    print(f"latency  : {latency} cycles")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from repro.arch.spec import paper_spec
    from repro.fpga.synthesis import compile_spec

    spec = paper_spec(_variant(args.variant), sync_rom=args.sync_rom)
    report = compile_spec(spec, args.device, strict=False)
    print(report.render())
    if not report.fits:
        print("  WARNING: design does not fit this device")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.arch.explorer import explore_widths, knee_design, \
        sweep_report

    reports = explore_widths(args.device, _variant(args.variant))
    print(sweep_report(reports))
    knee = knee_design(reports)
    print(f"\nefficiency knee (fitting designs): {knee.spec.name}")
    return 0


def cmd_seu(args: argparse.Namespace) -> int:
    from repro.analysis.seu import run_campaign

    result = run_campaign(args.injections, seed=args.seed,
                          hardened=args.hardened)
    print(result.render())
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    import random

    from repro.analysis.power import measure_power

    rng = random.Random(args.seed)
    blocks = [bytes(rng.randrange(256) for _ in range(16))
              for _ in range(args.blocks)]
    key = bytes(rng.randrange(256) for _ in range(16))
    report = measure_power(blocks, key, family=args.family)
    print(report.render())
    return 0


def cmd_hdl(args: argparse.Namespace) -> int:
    from repro.hdl import generate_core_vhdl, lint_vhdl

    files = generate_core_vhdl(_variant(args.variant))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        if name.endswith(".vhd"):
            lint_vhdl(text, name)  # refuse to emit broken HDL
        (outdir / name).write_text(text)
        print(f"wrote {outdir / name} ({len(text)} bytes)")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from repro.aes.selftest import run_self_test

    report = run_self_test(include_hardware=not args.fast)
    print(report.render())
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report_gen import generate_report

    text = generate_report(seu_injections=args.injections)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(text)} bytes)")
    else:
        print(text)
    return 0


def _changed_sources(root: Path, base: str) -> Optional[List[Path]]:
    """Lintable .py files changed vs ``base``, plus untracked ones.

    Returns None when git fails (not a repo, unknown ref) — the
    caller reports and exits non-zero.  Only files under the default
    per-file lint trees count: ``--changed`` narrows the usual scan,
    it never widens it.
    """
    import subprocess

    from repro.checks.runner import DEFAULT_SOURCE_DIRS

    names: List[str] = []
    for argv in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            argv, cwd=root, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"error: {' '.join(argv)} failed: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
            return None
        names.extend(proc.stdout.splitlines())
    scoped: List[Path] = []
    for name in sorted(set(names)):
        if not name.endswith(".py"):
            continue
        if not any(name.startswith(d + "/")
                   for d in DEFAULT_SOURCE_DIRS):
            continue
        path = root / name
        if path.is_file():
            scoped.append(path)
    return scoped


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.checks.baseline import Baseline, BaselineError
    from repro.checks.engine import CheckConfig, Severity
    from repro.checks.reporters import render_json, render_rule_table, \
        render_sarif, render_text
    from repro.checks.runner import find_repo_root, run_lint

    if args.list_rules:
        print(render_rule_table())
        return 0

    config = CheckConfig(
        enable=tuple(args.enable) if args.enable else ("*",),
        disable=tuple(args.disable or ()),
    )
    import fnmatch

    from repro.checks.engine import registry
    rule_ids = list(registry())
    for pattern in (*(args.enable or ()), *(args.disable or ())):
        if not any(fnmatch.fnmatch(r, pattern) for r in rule_ids):
            print(f"warning: pattern {pattern!r} matches no rules "
                  f"(see --list-rules)", file=sys.stderr)
    root = find_repo_root(Path(args.root) if args.root else None)
    baseline_path = Path(args.baseline) if args.baseline else None
    source_paths = (
        [Path(p) for p in args.paths] if args.paths else None
    )
    full_flow = False
    if args.changed is not None:
        if source_paths:
            print("error: --changed and explicit paths are "
                  "mutually exclusive", file=sys.stderr)
            return 2
        changed = _changed_sources(root, args.changed)
        if changed is None:
            return 2
        if not changed:
            print("no changed lintable sources "
                  f"vs {args.changed}; nothing to do")
            return 0
        source_paths = changed
        # The whole-program packs stay whole-program: a call chain or
        # a protocol invariant does not stop at the diff boundary.
        full_flow = True
    try:
        result = run_lint(root=root, config=config,
                          baseline_path=baseline_path,
                          source_paths=source_paths,
                          full_flow=full_flow)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or root / "lint-baseline.json"
        Baseline.from_findings(
            result.findings + result.suppressed
        ).save(target)
        print(f"wrote {target}: "
              f"{len(result.findings) + len(result.suppressed)} "
              f"suppression(s)")
        stale = len(result.stale_fingerprints)
        if stale:
            print(f"{stale} stale entr"
                  f"{'y' if stale == 1 else 'ies'} removed")
        return 0

    out_format = "json" if args.json else args.format
    if out_format == "json":
        print(render_json(result.findings, result.suppressed,
                          result.stale_fingerprints))
    elif out_format == "sarif":
        print(render_sarif(result.findings))
    else:
        print(render_text(result.findings, result.suppressed,
                          result.stale_fingerprints,
                          verbose=args.verbose))
    if args.strict and (result.findings or result.stale_fingerprints):
        # Stale suppressions are a strict-mode failure, not a warning:
        # a baseline entry that no longer matches anything means the
        # tree moved and the sanction with it.  CI fails; a local run
        # prunes with --write-baseline.
        if not result.findings and result.stale_fingerprints:
            print("error: stale baseline entries under --strict; "
                  "prune with --write-baseline", file=sys.stderr)
        return 1
    worst = result.worst
    return 1 if worst is Severity.ERROR else 0


def cmd_sta(args: argparse.Namespace) -> int:
    from repro.checks.sta import analyze_design, paper_sta_subjects

    subjects = paper_sta_subjects()
    if args.variant:
        variant = _variant(args.variant)
        subjects = [s for s in subjects
                    if s.spec.variant is variant]
    if args.device:
        want = args.device.lower()
        subjects = [
            s for s in subjects
            if want in (s.device.family.lower(), s.device.name.lower())
        ]
    if not subjects:
        raise SystemExit("error: no design/device matches the filter")
    failed = False
    for subject in subjects:
        report = analyze_design(subject)
        print(report.render())
        print()
        if report.cycles or report.slack_ns < 0:
            failed = True
    return 1 if failed else 0


def cmd_proto(args: argparse.Namespace) -> int:
    from repro.checks.proto import run_proto
    from repro.checks.runner import find_repo_root

    root = find_repo_root(Path(args.root) if args.root else None)
    report = run_proto(str(root))
    print(report.render())
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import cross_check, cross_check_ghash
    from repro.perf.engine import BackendMismatch

    try:
        cipher = cross_check()
        ghash = cross_check_ghash()
    except BackendMismatch as exc:
        # A backend or GHASH provider produced bytes the golden model
        # disagrees with: a fast wrong answer fails the gate.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    backends = cipher["backends"]
    primitives = cipher["primitives"]
    providers = ghash["ghash_providers"]
    assert isinstance(backends, list) and isinstance(primitives, list)
    assert isinstance(providers, list)
    print(f"equivalence: {len(backends)} backend(s) "
          f"x {len(primitives)} primitive(s) x {cipher['keys']} key(s), "
          f"{cipher['mismatches']} mismatch(es)")
    print(f"ghash equivalence: {len(providers)} provider(s), "
          f"{ghash['ghash_cases']} case(s), "
          f"{ghash['ghash_mismatches']} mismatch(es)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.report import collect_stats

    try:
        report = collect_stats(
            variant=args.variant,
            blocks=args.blocks,
            sync_rom=args.sync_rom,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(report.render(args.format), end="")
    return 0


def _run_service(make_service: Callable[[], Any],
                 announce: Callable[[Any], None],
                 serve_seconds: Optional[float]) -> None:
    """Start ``make_service()``, ``announce`` it, and run it until
    Ctrl-C, SIGTERM, its own remote SHUTDOWN (``wait_stopped``) or
    ``serve_seconds``; then drain and stop it."""
    import asyncio
    import signal

    async def _run() -> None:
        service = make_service()
        await service.start()
        announce(service)
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except NotImplementedError:  # pragma: no cover - win32
                pass
        waiters = [
            asyncio.ensure_future(stop_requested.wait()),
            asyncio.ensure_future(service.wait_stopped()),
        ]
        if serve_seconds is not None:
            waiters.append(
                asyncio.ensure_future(asyncio.sleep(serve_seconds))
            )
        _, pending = await asyncio.wait(
            waiters, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass


def _report_shutdown(args: argparse.Namespace, counter: str,
                     summary: str) -> None:
    """Print ``summary`` with the total of the ``counter`` family,
    then write the ``--metrics-out`` snapshot if one was asked for."""
    from repro.obs.metrics import global_registry

    registry = global_registry()
    family = registry.get(counter)
    total = sum(child.value for child in family.children()) \
        if family is not None else 0
    print(summary.format(int(total)))
    if args.metrics_out:
        snapshot = (
            registry.render_prometheus()
            if args.metrics_format == "prom"
            else registry.render_json()
        )
        Path(args.metrics_out).write_text(snapshot)
        print(f"wrote {args.metrics_out} ({len(snapshot)} bytes)")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import CryptoServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.workers,
        request_timeout=args.request_timeout,
        admin_port=args.admin_port,
        slo_threshold_s=args.slo_threshold,
    )

    def announce(server: CryptoServer) -> None:
        host, port = server.address
        print(f"serving on {host}:{port}", flush=True)
        if config.admin_port is not None:
            admin_host, admin_port = server.admin_address
            print(f"admin on {admin_host}:{admin_port}", flush=True)

    _run_service(lambda: CryptoServer(config), announce,
                 args.serve_seconds)
    _report_shutdown(args, "repro_serve_requests_total",
                     "served {} request(s); shut down cleanly")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.serve.cluster import Cluster, ClusterConfig

    config = ClusterConfig(
        host=args.host,
        workers=args.workers,
        gateway_port=args.gateway_port,
        admin_port=args.admin_port,
        queue_depth=args.queue_depth,
        worker_tasks=args.worker_tasks,
        request_timeout=args.request_timeout,
        shed_inflight=args.shed_inflight,
        slo_threshold_s=args.slo_threshold,
    )

    def announce(cluster: Cluster) -> None:
        host, port = cluster.address
        print(f"gateway on {host}:{port}", flush=True)
        if config.admin_port is not None:
            admin_host, admin_port = cluster.gateway.admin_address
            print(f"admin on {admin_host}:{admin_port}", flush=True)
        for handle in cluster.supervisor.handles():
            print(f"worker {handle.index} on "
                  f"{handle.host}:{handle.port} "
                  f"(admin {handle.host}:{handle.admin_port})",
                  flush=True)

    _run_service(lambda: Cluster(config), announce, args.serve_seconds)
    _report_shutdown(args, "repro_gateway_requests_total",
                     "routed {} frame(s); cluster shut down cleanly")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import secrets

    from repro.serve.client import run_load
    from repro.serve.protocol import Mode

    mode = {"ecb": Mode.ECB, "ctr": Mode.CTR,
            "gcm": Mode.GCM}[args.mode]
    if args.key:
        loadgen_key = _hex_bytes(args.key, 16, "--key")
    else:
        loadgen_key = secrets.token_bytes(16)
    try:
        report = asyncio.run(run_load(
            args.host, args.port, loadgen_key,
            clients=args.clients,
            requests=args.requests,
            mode=mode,
            payload_bytes=args.size,
            seed=args.seed,
        ))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"error: cannot reach {args.host}:{args.port}: {exc}"
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(report.render())
    # The shutdown frame is sent only after the admin scrape: the
    # admin plane (and its quantile windows) dies with the server.
    if args.admin_port is not None:
        _loadgen_admin_scrape(args.host, args.admin_port)
    if args.shutdown:
        asyncio.run(_send_shutdown_frame(args.host, args.port))
    if not report.requests:
        # Connection-level failures are per-client inside run_load;
        # zero OK responses means the service was unreachable or
        # rejected every request — say so loudly.
        raise SystemExit(
            f"error: no requests succeeded against "
            f"{args.host}:{args.port}"
        )
    return 0 if not report.errors else 1


async def _send_shutdown_frame(host: str, port: int) -> None:
    """One best-effort SHUTDOWN frame (drains the server cleanly)."""
    import asyncio

    from repro.serve.client import CryptoClient, RequestFailed, \
        RetryPolicy

    closer = CryptoClient(host, port, retry=RetryPolicy(attempts=1))
    try:
        await closer.shutdown()
    except (RequestFailed, ConnectionError, asyncio.TimeoutError):
        pass
    finally:
        await closer.close()


def _loadgen_admin_scrape(host: str, admin_port: int) -> None:
    """Print the server-observed latency view next to the client's,
    and merge the server's trace events when tracing is on."""
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    base = f"http://{host}:{admin_port}"
    try:
        with urlopen(f"{base}/quantiles", timeout=5.0) as response:
            quantiles = json.loads(response.read())
    except (URLError, OSError, ValueError) as exc:
        print(f"  admin     : scrape of {base}/quantiles failed: "
              f"{exc}")
        return
    requests_window = quantiles.get("request_seconds", {})
    samples = requests_window.get("samples", [])
    # The busiest (op, mode) series is the loadgen's own traffic.
    busiest = max(samples, key=lambda s: s.get("count", 0),
                  default=None)
    if busiest and busiest.get("count"):
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(
                busiest.get("labels", {}).items())
        )
        parts = []
        for key in ("p50_s", "p95_s", "p99_s", "max_s"):
            value = busiest.get(key)
            if value is not None:
                parts.append(f"{key[:-2]}={value * 1000:.2f}ms")
        print(f"  server    : {', '.join(parts)} "
              f"({labels}, server-observed, "
              f"{busiest['count']} in window)")
    waits = quantiles.get("queue_wait_seconds", {}).get("samples", [])
    if waits and waits[0].get("max_s") is not None:
        print(f"  queue wait: max={waits[0]['max_s'] * 1000:.2f}ms "
              f"(server-observed)")
    from repro.obs.tracing import active_tracer

    tracer = active_tracer()
    if tracer is None:
        return
    try:
        with urlopen(f"{base}/trace", timeout=5.0) as response:
            body = json.loads(response.read())
    except (URLError, OSError, ValueError) as exc:
        print(f"  admin     : scrape of {base}/trace failed: {exc}")
        return
    if body.get("enabled") and body.get("events"):
        tracer.add_events(body["events"],
                          epoch_unix=body.get("epoch_unix"))
        print(f"  trace     : merged {len(body['events'])} server "
              f"event(s) onto the client timeline")


def cmd_vcd(args: argparse.Namespace) -> int:
    import random

    from repro.ip.testbench import Testbench
    from repro.rtl.trace import Trace
    from repro.rtl.vcd import trace_to_vcd

    rng = random.Random(args.seed)
    key = bytes(rng.randrange(256) for _ in range(16))
    bench = Testbench(Variant.ENCRYPT)
    signals = [bench.core.data_ok, *bench.core.state, *bench.core.out,
               bench.core.top, bench.core.round, bench.core.step]
    trace = Trace(bench.simulator, signals)
    bench.load_key(key)
    for _ in range(args.blocks):
        bench.encrypt(bytes(rng.randrange(256) for _ in range(16)))
    text = trace_to_vcd(trace, clock_ns=14)  # the Acex1K clock
    Path(args.out).write_text(text)
    print(f"wrote {args.out}: {bench.simulator.cycle} cycles, "
          f"{len(signals)} signals")
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aes",
        description="Reproduction of the DATE 2003 low-area Rijndael "
                    "IP paper.",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record spans across the whole command and write "
             "Chrome-trace JSON to FILE (load in chrome://tracing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate paper tables")
    p.add_argument("number", nargs="?", type=int, default=None,
                   choices=(1, 2, 3))
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("number", type=int)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("encrypt",
                       help="run a block through the cycle-accurate IP")
    p.add_argument("--key", required=True,
                   help="16-, 24- or 32-byte key, hex")
    p.add_argument("--data", required=True, help="16-byte block, hex")
    p.add_argument("--decrypt", action="store_true")
    p.set_defaults(fn=cmd_encrypt)

    p = sub.add_parser("fit", help="synthesis estimate for one design")
    p.add_argument("--variant", default="encrypt")
    p.add_argument("--device", default="Acex1K")
    p.add_argument("--sync-rom", action="store_true")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("sweep", help="datapath width design sweep")
    p.add_argument("--device", default="Acex1K")
    p.add_argument("--variant", default="encrypt")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("seu", help="fault injection campaign")
    p.add_argument("--injections", type=int, default=40)
    p.add_argument("--seed", type=int, default=2003)
    p.add_argument("--hardened", action="store_true")
    p.set_defaults(fn=cmd_seu)

    p = sub.add_parser("power", help="toggle-based power estimate")
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--family", default="Acex1K")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("hdl", help="emit the VHDL soft-IP deliverable")
    p.add_argument("--variant", default="both")
    p.add_argument("--outdir", default="hdl_out")
    p.set_defaults(fn=cmd_hdl)

    p = sub.add_parser("selftest",
                       help="power-on self test (known answers)")
    p.add_argument("--fast", action="store_true",
                   help="skip the cycle-accurate hardware check")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("report",
                       help="re-measure everything; emit a markdown "
                            "reproduction report")
    p.add_argument("--out", default=None)
    p.add_argument("--injections", type=int, default=30)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "lint",
        help="static analysis: netlist DRC, FSM checks, constant-time "
             "lint, VHDL structure",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable output "
                        "(alias for --format json)")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "sarif"),
                   help="output format (sarif suits CI code-scanning "
                        "upload)")
    p.add_argument("--verbose", action="store_true",
                   help="also list baseline-suppressed findings")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.add_argument("--enable", action="append", metavar="PATTERN",
                   help="only run rules matching PATTERN (repeatable)")
    p.add_argument("--disable", action="append", metavar="PATTERN",
                   help="skip rules matching PATTERN (repeatable)")
    p.add_argument("--baseline", default=None,
                   help="baseline file (default: lint-baseline.json "
                        "at the repo root, if present)")
    p.add_argument("--write-baseline", action="store_true",
                   help="record current findings as the new baseline")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--changed", nargs="?", const="HEAD",
                   default=None, metavar="BASE",
                   help="lint only files changed vs BASE (default "
                        "HEAD) plus untracked ones; the "
                        "whole-program flow/proto packs still "
                        "analyze the full package")
    p.add_argument("--root", default=None,
                   help="repository root (default: auto-detected)")
    p.add_argument("paths", nargs="*",
                   help="restrict the source lint to these files/dirs")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "sta",
        help="graph static timing report for the paper design points",
    )
    p.add_argument("--variant", default=None,
                   help="restrict to one variant "
                        "(encrypt/decrypt/both)")
    p.add_argument("--device", default=None,
                   help="restrict to one device family or part number")
    p.set_defaults(fn=cmd_sta)

    p = sub.add_parser(
        "proto",
        help="wire-protocol model check: extract the serve-layer "
             "protocol and exhaustively explore the client x server "
             "product state space",
    )
    p.add_argument("--root", default=None,
                   help="repository root (default: auto-detected)")
    p.set_defaults(fn=cmd_proto)

    p = sub.add_parser(
        "bench",
        help="equivalence gate: every backend and GHASH provider "
             "against the golden model, bit for bit (timing lives "
             "in bench/run.py)",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "stats",
        help="run an instrumented workload; report hardware counters "
             "and metrics (text/prom/json/chrome-trace)",
    )
    p.add_argument("--blocks", type=int, default=1,
                   help="blocks to drive through the core")
    p.add_argument("--variant", default="encrypt",
                   choices=("encrypt", "decrypt", "both"),
                   help="device variant to observe")
    p.add_argument("--sync-rom", action="store_true",
                   help="observe the synchronous-ROM build "
                        "(6 cycles/round)")
    p.add_argument("--format", default="text",
                   choices=("text", "prom", "json", "chrome-trace"),
                   help="output format")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="run the asyncio crypto service (frame protocol in "
             "docs/serving.md); Ctrl-C or a SHUTDOWN frame drains "
             "and stops",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = OS-assigned; the chosen port "
                        "is printed on startup)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="bounded request queue: beyond this depth "
                        "requests are answered OVERLOADED")
    p.add_argument("--workers", type=int, default=4,
                   help="worker tasks (and crypto threads)")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   help="per-request execution budget in seconds")
    p.add_argument("--admin-port", type=int, default=None,
                   help="also bind the admin/scrape plane (/metrics, "
                        "/healthz, /readyz, /quantiles) on this port "
                        "(0 = OS-assigned, printed on startup)")
    p.add_argument("--slo-threshold", type=float, default=0.25,
                   help="request-seconds SLO for the windowed "
                        "burn-rate counters (default 0.25)")
    p.add_argument("--serve-seconds", type=float, default=None,
                   help="stop after this many seconds (CI smoke)")
    p.add_argument("--metrics-out", default=None,
                   help="write a metrics snapshot here on shutdown")
    p.add_argument("--metrics-format", default="json",
                   choices=("json", "prom"),
                   help="snapshot format for --metrics-out")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="run N crypto-server worker processes behind a "
             "session-sharded gateway; Ctrl-C or a SHUTDOWN frame "
             "drains and stops",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes in the pool")
    p.add_argument("--gateway-port", type=int, default=0,
                   help="gateway TCP port (0 = OS-assigned, printed "
                        "on startup)")
    p.add_argument("--admin-port", type=int, default=None,
                   help="gateway admin/scrape plane (/metrics, "
                        "/readyz, /quantiles); 0 = OS-assigned")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="per-worker bounded request queue depth")
    p.add_argument("--worker-tasks", type=int, default=4,
                   help="asyncio worker tasks per worker process")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   help="per-request execution budget in seconds")
    p.add_argument("--shed-inflight", type=int, default=128,
                   help="gateway per-shard in-flight cap: beyond it "
                        "frames are answered OVERLOADED")
    p.add_argument("--slo-threshold", type=float, default=0.25,
                   help="routed-request SLO for the gateway's "
                        "windowed burn-rate counters")
    p.add_argument("--serve-seconds", type=float, default=None,
                   help="stop after this many seconds (CI smoke)")
    p.add_argument("--metrics-out", default=None,
                   help="write a gateway metrics snapshot here on "
                        "shutdown")
    p.add_argument("--metrics-format", default="json",
                   choices=("json", "prom"),
                   help="snapshot format for --metrics-out")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load generator against a running serve "
             "instance; reports achieved requests/sec",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port of the serve instance")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent keyed sessions, one connection "
                        "each: client i pins session id i+1, so a "
                        "cluster gateway shards them across workers "
                        "(NO_KEY after a worker restart is absorbed "
                        "by re-loading the key)")
    p.add_argument("--requests", type=int, default=32,
                   help="requests per client")
    p.add_argument("--mode", default="ctr",
                   choices=("ecb", "ctr", "gcm"),
                   help="cipher mode of the generated traffic")
    p.add_argument("--size", type=int, default=1024,
                   help="payload bytes per request")
    p.add_argument("--key", default=None,
                   help="16-byte base key, hex: client i loads the key "
                        "derived from it and session id i+1 (default: "
                        "a fresh random base key from the secrets "
                        "module)")
    p.add_argument("--seed", type=int, default=2003,
                   help="payload/backoff seed (payloads only; keys "
                        "never come from this)")
    p.add_argument("--admin-port", type=int, default=None,
                   help="admin-plane port of the serve instance: "
                        "scrape /quantiles after the run to print "
                        "server-observed latency (and merge /trace "
                        "events when --trace is active)")
    p.add_argument("--shutdown", action="store_true",
                   help="send a SHUTDOWN frame after the run (drains "
                        "the server cleanly)")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("vcd", help="dump a waveform of a real run")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--out", default="rijndael.vcd")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_vcd)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = None
    if args.trace:
        from repro.obs.tracing import enable_tracing
        tracer = enable_tracing()
    try:
        with _command_span(args):
            return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: exit
        # quietly like a well-behaved Unix tool.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if tracer is not None:
            from repro.obs.tracing import disable_tracing
            disable_tracing()
            tracer.write(args.trace)


def _command_span(args: argparse.Namespace):
    """A whole-command span (a no-op unless ``--trace`` enabled it)."""
    from repro.obs.tracing import trace_span
    return trace_span(f"cli.{args.command}", category="cli")


if __name__ == "__main__":
    sys.exit(main())
