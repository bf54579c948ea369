"""Zero-dependency metrics: counters, gauges, histograms, exposition.

The paper's evaluation is a table of *measured* numbers; the software
stack deserves the same discipline.  This module is a deliberately
small re-implementation of the Prometheus data model — just enough to
instrument the repo without pulling in a client library (the install
stays stdlib-only, like everything else here):

- :class:`Counter` — monotonically increasing totals (ops, blocks,
  auth failures);
- :class:`Gauge` — point-in-time values (effective worker count);
- :class:`Histogram` — fixed-boundary bucket counts plus sum/count
  (per-shard latency distributions);
- :class:`MetricsRegistry` — owns metrics, renders the Prometheus
  text exposition format and a JSON snapshot.

Metrics support labels in the Prometheus style: a metric is created
with label *names* and observations go through :meth:`Metric.labels`,
which returns a per-label-set child.  Hot paths bind children once at
import time so the per-call cost is one method call and one integer
add.  All mutation is lock-protected — the batch engine observes from
worker threads.

A process-global registry (:func:`global_registry`) collects the
instrumentation of :mod:`repro.perf.engine`, :mod:`repro.aes.modes`
and :mod:`repro.aes.gcm`; ``repro-aes stats`` renders it.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram boundaries (seconds), tuned for per-shard
#: software latencies: the 50 µs–500 µs decade resolves loopback
#: serve requests (~1 ms at ~780 req/s, where the old 500 µs first
#: bucket swallowed nearly every observation), on up to the
#: multi-second pure-Python baselines.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Raised on invalid metric names, labels or type collisions."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labels: Tuple[Tuple[str, str], ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"  # repr() would render 'nan', which 0.0.4 rejects
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Child:
    """One (metric, label-set) time series."""

    def __init__(self, labels: Tuple[Tuple[str, str], ...]):
        self.label_pairs = labels
        self._lock = threading.Lock()

    def zero(self) -> None:
        """Reset the series to its initial value in place."""
        raise NotImplementedError


class _CounterChild(_Child):
    def __init__(self, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def zero(self) -> None:
        with self._lock:
            self._value = 0.0


class _GaugeChild(_Child):
    def __init__(self, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def zero(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild(_Child):
    def __init__(self, labels: Tuple[Tuple[str, str], ...],
                 boundaries: Tuple[float, ...]):
        super().__init__(labels)
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)  # + [+Inf]
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.boundaries):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    def zero(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.boundaries) + 1)
            self.sum = 0.0
            self.count = 0

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, Prometheus ``le`` semantics."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out


class Metric:
    """One named metric family; observations go through label children.

    Metrics with no label names have a single anonymous child and
    expose its mutators (``inc`` / ``set`` / ``observe``) directly.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = str(help_text)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not self.label_names:
            self._default = self._child_for(())

    def _make_child(self, labels: Tuple[Tuple[str, str], ...]) -> _Child:
        raise NotImplementedError

    def _child_for(self, values: Tuple[str, ...]) -> _Child:
        with self._lock:
            child = self._children.get(values)
            if child is None:
                pairs = tuple(zip(self.label_names, values))
                child = self._make_child(pairs)
                self._children[values] = child
            return child

    def labels(self, **labels: str) -> _Child:
        """The child series for one label-value assignment."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{self.label_names}, got {tuple(sorted(labels))}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        return self._child_for(values)

    def children(self) -> List[_Child]:
        """Every live child series, label-value-sorted.

        Sorted (not creation-ordered) so two registries that saw the
        same observations render identically no matter which label
        set was touched first — scrape diffs stay meaningful.
        """
        with self._lock:
            return [self._children[key]
                    for key in sorted(self._children)]

    def reset_values(self) -> None:
        """Zero every child series in place.

        Children are zeroed rather than dropped so that child handles
        bound at import time (``metric.labels(...)`` stored in a
        module global) keep pointing at the live series after a reset.
        """
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.zero()


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self, labels):
        return _CounterChild(labels)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        self._default.inc(amount)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        """Value of the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        return self._default.value  # type: ignore[attr-defined]


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def _make_child(self, labels):
        return _GaugeChild(labels)

    def set(self, value: float) -> None:
        """Set the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        self._default.set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        self._default.inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabeled series."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Value of the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        return self._default.value  # type: ignore[attr-defined]


class Histogram(Metric):
    """Fixed-boundary bucket counts plus sum and count."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries:
            raise MetricError("histogram needs at least one bucket")
        if list(boundaries) != sorted(boundaries):
            raise MetricError("histogram buckets must be sorted")
        if len(set(boundaries)) != len(boundaries):
            raise MetricError("histogram buckets must be distinct")
        self.boundaries = boundaries
        super().__init__(name, help_text, label_names)

    def _make_child(self, labels):
        return _HistogramChild(labels, self.boundaries)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled series."""
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled; use .labels()"
            )
        self._default.observe(value)  # type: ignore[attr-defined]


#: Geometric bucket ladder of the windowed quantile estimator: 10 µs
#: up through ~100 s at ratio 2**(1/4) (~19% per step).  A reported
#: quantile is interpolated inside one bucket, so its relative error
#: is bounded by a single step: at most ~19% — tight enough to steer
#: an SLO controller, tiny enough to keep every window slot O(1).
QUANTILE_BUCKETS: Tuple[float, ...] = tuple(
    1e-5 * (2.0 ** (step / 4.0)) for step in range(94)
)


class WindowedQuantiles:
    """Sliding-window quantile estimator over fixed-boundary buckets.

    A ring of ``slots`` sub-histograms, each covering
    ``window_s / slots`` seconds of wall-clock time; an observation
    lands in the slot owning its moment, and a query merges the
    slots still inside the window.  Memory is O(buckets × slots) —
    constant, independent of traffic — and both ``observe`` and
    ``quantile`` are O(buckets).  Quantiles are interpolated inside
    the winning bucket, so the error bound is one bucket's relative
    width (see :data:`QUANTILE_BUCKETS`).

    ``slo_threshold_s`` additionally maintains burn-rate accounting:
    each slot counts observations over the threshold, and
    ``burn_rate`` is the windowed breach fraction — the signal an
    error-budget alert (or the roadmap autotuner) consumes.
    """

    def __init__(self, window_s: float = 60.0, slots: int = 6,
                 bounds: Sequence[float] = QUANTILE_BUCKETS,
                 slo_threshold_s: Optional[float] = None) -> None:
        if window_s <= 0 or slots < 1:
            raise MetricError(
                "window_s must be positive and slots >= 1")
        boundaries = tuple(float(b) for b in bounds)
        if list(boundaries) != sorted(boundaries) \
                or len(set(boundaries)) != len(boundaries) \
                or not boundaries:
            raise MetricError(
                "quantile bounds must be sorted, distinct and "
                "non-empty")
        self.window_s = float(window_s)
        self.slots = int(slots)
        self.boundaries = boundaries
        self.slo_threshold_s = slo_threshold_s
        self._slot_s = self.window_s / self.slots
        self._lock = threading.Lock()
        # Per ring slot: the absolute slot index it currently holds,
        # its bucket counts (+ overflow), count, max and breaches.
        self._indices = [-1] * self.slots
        self._counts = [[0] * (len(boundaries) + 1)
                        for _ in range(self.slots)]
        self._totals = [0] * self.slots
        self._maxima = [0.0] * self.slots
        self._breaches = [0] * self.slots

    def _slot_for(self, now: float) -> int:
        """Claim (zeroing if stale) the ring slot owning ``now``."""
        index = int(now / self._slot_s)
        slot = index % self.slots
        if self._indices[slot] != index:
            self._indices[slot] = index
            self._counts[slot] = [0] * (len(self.boundaries) + 1)
            self._totals[slot] = 0
            self._maxima[slot] = 0.0
            self._breaches[slot] = 0
        return slot

    def observe(self, value: float,
                now: Optional[float] = None) -> None:
        """Record one observation (seconds) at wall-clock ``now``."""
        moment = time.time() if now is None else now
        with self._lock:
            slot = self._slot_for(moment)
            counts = self._counts[slot]
            for position, bound in enumerate(self.boundaries):
                if value <= bound:
                    counts[position] += 1
                    break
            else:
                counts[-1] += 1
            self._totals[slot] += 1
            if value > self._maxima[slot]:
                self._maxima[slot] = value
            if self.slo_threshold_s is not None \
                    and value > self.slo_threshold_s:
                self._breaches[slot] += 1

    def _live(self, now: float) -> List[int]:
        """Ring slots still inside the window at ``now``."""
        newest = int(now / self._slot_s)
        oldest = newest - self.slots + 1
        return [slot for slot in range(self.slots)
                if oldest <= self._indices[slot] <= newest]

    def _merged(self, now: float) -> Tuple[List[int], int, float, int]:
        live = self._live(now)
        counts = [0] * (len(self.boundaries) + 1)
        total = 0
        maximum = 0.0
        breaches = 0
        for slot in live:
            for position, count in enumerate(self._counts[slot]):
                counts[position] += count
            total += self._totals[slot]
            maximum = max(maximum, self._maxima[slot])
            breaches += self._breaches[slot]
        return counts, total, maximum, breaches

    def _interpolate(self, counts: List[int], total: int,
                     maximum: float, q: float) -> float:
        """The ``q``-quantile of one merged bucket view."""
        if total == 0:
            return math.nan
        needed = max(1, math.ceil(q * total))
        seen = 0
        for position, count in enumerate(counts):
            if count == 0:
                continue
            if seen + count >= needed:
                if position >= len(self.boundaries):
                    # Overflow bucket: the observed max is the only
                    # finite upper bound available.
                    return maximum
                upper = self.boundaries[position]
                lower = self.boundaries[position - 1] \
                    if position else 0.0
                fraction = (needed - seen) / count
                # The tracked window maximum is a tighter bound than
                # the bucket's upper edge; without the clamp a lone
                # sample can report p99 above its own observed max.
                return min(lower + (upper - lower) * fraction,
                           maximum)
            seen += count
        return maximum  # pragma: no cover - defensive

    def quantile(self, q: float,
                 now: Optional[float] = None) -> float:
        """The windowed ``q``-quantile in seconds (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError("quantile must be within [0, 1]")
        moment = time.time() if now is None else now
        with self._lock:
            counts, total, maximum, _ = self._merged(moment)
        return self._interpolate(counts, total, maximum, q)

    def snapshot(self, now: Optional[float] = None
                 ) -> Dict[str, object]:
        """Windowed count/max/quantiles/burn-rate as one JSON-able
        dict (quantiles are ``None`` while the window is empty)."""
        moment = time.time() if now is None else now
        with self._lock:
            counts, total, maximum, breaches = self._merged(moment)

        def _q(q: float) -> Optional[float]:
            value = self._interpolate(counts, total, maximum, q)
            return None if math.isnan(value) else value

        out: Dict[str, object] = {
            "window_s": self.window_s,
            "count": total,
            "max_s": maximum if total else None,
            "p50_s": _q(0.50),
            "p95_s": _q(0.95),
            "p99_s": _q(0.99),
        }
        if self.slo_threshold_s is not None:
            out["slo_threshold_s"] = self.slo_threshold_s
            out["slo_breaches"] = breaches
            out["burn_rate"] = (breaches / total) if total else 0.0
        return out


class WindowedQuantileSet:
    """A labeled family of :class:`WindowedQuantiles` children with
    Prometheus and JSON exposition — the windowed counterpart of a
    labeled :class:`Histogram`.

    Rendered as gauge families (``<name>{...,quantile="0.99"}``,
    ``<name>_count``, ``<name>_max``, and with an SLO threshold
    ``<name>_slo_breaches`` / ``<name>_burn_rate``), all legal 0.0.4
    text exposition.
    """

    _QUANTILES = (("0.5", "p50_s"), ("0.95", "p95_s"),
                  ("0.99", "p99_s"))

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 window_s: float = 60.0, slots: int = 6,
                 bounds: Sequence[float] = QUANTILE_BUCKETS,
                 slo_threshold_s: Optional[float] = None) -> None:
        self.name = _check_name(name)
        self.help = str(help_text)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        self.label_names = tuple(label_names)
        self.window_s = float(window_s)
        self._slots = int(slots)
        self._bounds = tuple(bounds)
        self.slo_threshold_s = slo_threshold_s
        self._children: Dict[Tuple[str, ...], WindowedQuantiles] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> WindowedQuantiles:
        """The child window for one label-value assignment."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"quantile set {self.name!r} takes labels "
                f"{self.label_names}, got {tuple(sorted(labels))}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = WindowedQuantiles(
                    window_s=self.window_s, slots=self._slots,
                    bounds=self._bounds,
                    slo_threshold_s=self.slo_threshold_s,
                )
                self._children[values] = child
            return child

    def _sorted_children(
            self) -> List[Tuple[Tuple[str, ...], WindowedQuantiles]]:
        with self._lock:
            return [(values, self._children[values])
                    for values in sorted(self._children)]

    def render_prometheus(self, now: Optional[float] = None) -> str:
        """Gauge-family exposition of every child window."""
        moment = time.time() if now is None else now
        quantile_lines: List[str] = []
        count_lines: List[str] = []
        max_lines: List[str] = []
        breach_lines: List[str] = []
        burn_lines: List[str] = []
        for values, child in self._sorted_children():
            pairs = tuple(zip(self.label_names, values))
            snap = child.snapshot(now=moment)
            for text, key in self._QUANTILES:
                value = snap[key]
                if value is None:
                    continue
                labels = _render_labels(pairs,
                                        (("quantile", text),))
                quantile_lines.append(
                    f"{self.name}{labels} "
                    f"{_format_value(float(value))}")  # type: ignore[arg-type]
            base = _render_labels(pairs)
            count_lines.append(
                f"{self.name}_count{base} {snap['count']}")
            if snap["max_s"] is not None:
                max_lines.append(
                    f"{self.name}_max{base} "
                    f"{_format_value(float(snap['max_s']))}")  # type: ignore[arg-type]
            if self.slo_threshold_s is not None:
                breach_lines.append(
                    f"{self.name}_slo_breaches{base} "
                    f"{snap['slo_breaches']}")
                burn_lines.append(
                    f"{self.name}_burn_rate{base} "
                    f"{_format_value(float(snap['burn_rate']))}")  # type: ignore[arg-type]
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} gauge",
            *quantile_lines,
            f"# HELP {self.name}_count Observations inside the "
            f"{_format_value(self.window_s)}s window",
            f"# TYPE {self.name}_count gauge",
            *count_lines,
        ]
        if max_lines:
            lines += [
                f"# HELP {self.name}_max Largest observation inside "
                f"the window",
                f"# TYPE {self.name}_max gauge",
                *max_lines,
            ]
        if breach_lines:
            lines += [
                f"# HELP {self.name}_slo_breaches Windowed "
                f"observations over the SLO threshold",
                f"# TYPE {self.name}_slo_breaches gauge",
                *breach_lines,
                f"# HELP {self.name}_burn_rate Windowed breach "
                f"fraction of the SLO threshold",
                f"# TYPE {self.name}_burn_rate gauge",
                *burn_lines,
            ]
        return "\n".join(lines) + "\n"

    def snapshot(self, now: Optional[float] = None
                 ) -> Dict[str, object]:
        """JSON-able snapshot of every child window."""
        moment = time.time() if now is None else now
        samples: List[Dict[str, object]] = []
        for values, child in self._sorted_children():
            entry: Dict[str, object] = {
                "labels": dict(zip(self.label_names, values)),
            }
            entry.update(child.snapshot(now=moment))
            samples.append(entry)
        return {
            "name": self.name,
            "help": self.help,
            "window_s": self.window_s,
            "samples": samples,
        }


class MetricsRegistry:
    """Owns a namespace of metrics and renders them.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same object (and raises on a
    kind or label-schema mismatch), so independent modules can share
    series without coordination.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str],
                       **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != tuple(label_names):
                    raise MetricError(
                        f"metric {name!r} already registered with "
                        f"labels {existing.label_names}"
                    )
                return existing
            metric = cls(name, help_text, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help_text, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric of that name, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """Every registered metric, name-sorted."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric's series (registrations survive).

        Module-level instrumentation binds metric objects at import
        time, so tests reset *values* rather than replacing the
        registry out from under those references.
        """
        for metric in self.collect():
            metric.reset_values()

    # --------------------------------------------------------- exposition
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self.collect():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for child in metric.children():
                if isinstance(child, _HistogramChild):
                    cumulative = child.cumulative()
                    bounds = [*child.boundaries, math.inf]
                    for bound, count in zip(bounds, cumulative):
                        label_text = _render_labels(
                            child.label_pairs,
                            (("le", _format_value(bound)),),
                        )
                        lines.append(
                            f"{metric.name}_bucket{label_text} {count}"
                        )
                    base = _render_labels(child.label_pairs)
                    lines.append(f"{metric.name}_sum{base} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{metric.name}_count{base} "
                                 f"{child.count}")
                else:
                    label_text = _render_labels(child.label_pairs)
                    lines.append(
                        f"{metric.name}{label_text} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """A JSON-able snapshot of every metric (optionally filtered
        to names starting with ``prefix``)."""
        out: Dict[str, object] = {}
        for metric in self.collect():
            if prefix and not metric.name.startswith(prefix):
                continue
            samples: List[Dict[str, object]] = []
            for child in metric.children():
                labels = dict(child.label_pairs)
                if isinstance(child, _HistogramChild):
                    samples.append({
                        "labels": labels,
                        "buckets": {
                            _format_value(b): c
                            for b, c in zip(
                                [*child.boundaries, math.inf],
                                child.cumulative(),
                            )
                        },
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out

    def render_json(self, prefix: str = "") -> str:
        """:meth:`snapshot`, serialized."""
        return json.dumps(self.snapshot(prefix), indent=2,
                          sort_keys=True) + "\n"


def render_prometheus(registries: Iterable[MetricsRegistry]) -> str:
    """Concatenate the exposition of several registries.

    ``repro-aes stats`` renders a per-run hardware registry alongside
    the process-global software registry in one scrape body.
    """
    parts = [r.render_prometheus() for r in registries]
    return "".join(part for part in parts if part)


def render_process_counters() -> str:
    """This process's CPU seconds (user plus system) and minor page
    faults as two Prometheus counters, read with ``getrusage`` when
    called: a scrape pays for them, a request never does.  Between
    two scrapes, their growth over the requests served gives CPU time
    and page faults per request.  Empty where ``resource`` does not
    import."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX only
        return ""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = _format_value(usage.ru_utime + usage.ru_stime)
    return (
        "# HELP repro_process_cpu_seconds_total CPU seconds this "
        "process has used, user plus system\n"
        "# TYPE repro_process_cpu_seconds_total counter\n"
        f"repro_process_cpu_seconds_total {cpu}\n"
        "# HELP repro_process_minor_page_faults_total Minor page "
        "faults this process has taken\n"
        "# TYPE repro_process_minor_page_faults_total counter\n"
        f"repro_process_minor_page_faults_total {usage.ru_minflt}\n"
    )


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry the library instruments into."""
    return _GLOBAL


def reset_global_registry() -> None:
    """Zero the global registry's series (for tests and fresh runs)."""
    _GLOBAL.reset()
