"""Observed-run reports for the ``repro-aes stats`` subcommand.

:func:`collect_stats` drives a real :class:`~repro.ip.testbench.Testbench`
run with hardware counters and span tracing enabled, then packages the
evidence as a :class:`StatsReport` that renders in four formats:

- ``text`` — a human-readable summary with the observed-vs-expected
  invariant table (5 events/round, 50 cycles/block, ...);
- ``prom`` — Prometheus text exposition of the per-run hardware
  registry concatenated with the process-global software registry;
- ``json`` — a single JSON document with both registries, the raw
  counter snapshot and the model expectations;
- ``chrome-trace`` — the run's spans as Chrome-trace JSON for
  ``chrome://tracing`` / Perfetto.

The hardware counters go into a *fresh* registry scoped to the one
observed run, so repeated ``stats`` invocations never double-count;
software metrics (mode ops, engine calls) accumulate in the global
registry as usual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ip.control import Variant
from repro.ip.testbench import Testbench
from repro.obs.hwcounters import expected_counters
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    render_prometheus,
)
from repro.obs.tracing import Tracer, trace_span

#: Fixed demo key/plaintext so ``repro-aes stats`` runs are
#: reproducible byte-for-byte (FIPS-197 appendix vectors).
_DEMO_KEY = bytes(range(16))
_DEMO_BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


@dataclass
class StatsReport:
    """Everything observed in one instrumented run."""

    variant: str
    sync_rom: bool
    blocks: int
    setup_latency: int
    hw_snapshot: Dict[str, object]
    expected: Dict[str, int]
    hw_registry: MetricsRegistry
    trace: Tracer

    @property
    def software_registry(self) -> MetricsRegistry:
        """The process-global registry (modes/engine/bench metrics)."""
        return global_registry()

    # -------------------------------------------------------- renderers
    def render_text(self) -> str:
        """The human-readable observed-vs-expected summary."""
        snap = self.hw_snapshot
        exp = self.expected
        lines = [
            f"observed run: variant={self.variant} "
            f"sync_rom={self.sync_rom} blocks={self.blocks}",
            f"key setup latency: {self.setup_latency} cycles",
            "",
            f"{'counter':<20} {'observed':>10} {'expected':>10}",
        ]
        for key in ("blocks", "rounds", "bytesub_cycles", "mix_cycles",
                    "rom_issue_cycles", "run_cycles", "setup_cycles",
                    "key_words"):
            lines.append(
                f"{key:<20} {snap[key]:>10} {exp[key]:>10}"
            )
        records = snap["block_records"]
        cycles = sorted({r["cycles"] for r in records})
        events = sorted({e for r in records
                         for e in r["events_per_round"]})
        lines += [
            "",
            f"per-block latency: {cycles} cycles "
            f"(model: {exp['block_cycles']})",
            f"sub-events per round: {events} "
            f"(model: {exp['events_per_round']})",
            f"bus: overlap={snap['bus_overlap']} "
            f"stalls={snap['bus_stalls']} "
            f"protocol_errors={snap['protocol_errors']}",
        ]
        return "\n".join(lines) + "\n"

    def render_prometheus(self) -> str:
        """Both registries in the Prometheus text format."""
        return render_prometheus(
            [self.hw_registry, self.software_registry]
        )

    def render_json(self) -> str:
        """One JSON document with registries, counters and model."""
        doc = {
            "run": {
                "variant": self.variant,
                "sync_rom": self.sync_rom,
                "blocks": self.blocks,
                "setup_latency": self.setup_latency,
            },
            "hardware": self.hw_snapshot,
            "expected": self.expected,
            "hw_metrics": self.hw_registry.snapshot(),
            "software_metrics": self.software_registry.snapshot(),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render_chrome_trace(self) -> str:
        """The run's spans as Chrome-trace JSON."""
        return self.trace.to_json()

    def render(self, fmt: str) -> str:
        """Dispatch on ``fmt``: text / prom / json / chrome-trace."""
        renderers = {
            "text": self.render_text,
            "prom": self.render_prometheus,
            "json": self.render_json,
            "chrome-trace": self.render_chrome_trace,
        }
        try:
            return renderers[fmt]()
        except KeyError:
            raise ValueError(f"unknown stats format {fmt!r}") from None


def collect_stats(variant: str = "encrypt", blocks: int = 1,
                  sync_rom: bool = False,
                  key: Optional[bytes] = None,
                  data: Optional[bytes] = None) -> StatsReport:
    """Run an instrumented cipher workload and collect the evidence.

    Drives ``blocks`` blocks through a fresh testbench of the given
    device ``variant`` (encrypt-capable variants encrypt; the
    decrypt-only device decrypts), with spans recorded on a local
    tracer and the hardware counters exported to a per-run registry.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    device = Variant(variant)
    tracer = Tracer()
    with trace_span("stats.collect", variant=device.value,
                    blocks=blocks, sync_rom=sync_rom):
        bench = Testbench(variant=device, sync_rom=sync_rom)
        with tracer.span("ip.load_key", category="ip",
                         sync_rom=sync_rom):
            setup_latency = bench.load_key(key or _DEMO_KEY)
        block = data or _DEMO_BLOCK
        results: List[bytes] = []
        for index in range(blocks):
            op = "encrypt" if device.can_encrypt else "decrypt"
            with tracer.span(f"ip.{op}", category="ip", block=index):
                if device.can_encrypt:
                    out, _ = bench.encrypt(block)
                else:
                    out, _ = bench.decrypt(block)
            results.append(out)
        tracer.instant("stats.done", category="ip",
                       blocks=len(results))
    counters = bench.core.counters
    registry = MetricsRegistry()
    counters.export_metrics(registry, variant=device.value)
    registry.gauge(
        "repro_ip_setup_latency_cycles",
        "Observed key-load-to-ready latency of the last key load",
        labels=("variant",),
    ).labels(variant=device.value).set(setup_latency)
    return StatsReport(
        variant=device.value,
        sync_rom=sync_rom,
        blocks=blocks,
        setup_latency=setup_latency,
        hw_snapshot=counters.snapshot(),
        expected=expected_counters(device, sync_rom, blocks),
        hw_registry=registry,
        trace=tracer,
    )


__all__ = ["StatsReport", "collect_stats"]
