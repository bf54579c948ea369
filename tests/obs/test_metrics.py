"""Metrics registry: semantics plus Prometheus-exposition validity."""

import json
import math
import re

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    QUANTILE_BUCKETS,
    MetricError,
    MetricsRegistry,
    WindowedQuantiles,
    WindowedQuantileSet,
    global_registry,
    render_prometheus,
    reset_global_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("ops_total", "ops")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self, registry):
        c = registry.counter("ops_total", "ops")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_children_are_independent(self, registry):
        c = registry.counter("ops_total", "ops", labels=("mode",))
        c.labels(mode="ecb").inc(3)
        c.labels(mode="ctr").inc()
        assert c.labels(mode="ecb").value == 3
        assert c.labels(mode="ctr").value == 1

    def test_labeled_metric_rejects_bare_inc(self, registry):
        c = registry.counter("ops_total", "ops", labels=("mode",))
        with pytest.raises(MetricError):
            c.inc()

    def test_label_set_must_match_schema(self, registry):
        c = registry.counter("ops_total", "ops", labels=("mode",))
        with pytest.raises(MetricError):
            c.labels(direction="enc")
        with pytest.raises(MetricError):
            c.bind(direction="enc")


class TestBind:
    def test_bound_series_appears_at_first_observation(self, registry):
        c = registry.counter("ops_total", "ops", labels=("mode",))
        bound = c.bind(mode="ctr")
        assert c.children() == []
        assert "ops_total{" not in registry.render_prometheus()
        bound.inc()
        bound.inc(2)
        assert c.labels(mode="ctr").value == 3
        assert 'ops_total{mode="ctr"} 3' in registry.render_prometheus()

    def test_bound_calls_go_straight_to_the_series(self, registry):
        h = registry.histogram("lat_seconds", "lat", labels=("op",))
        bound = h.bind(op="ping")
        bound.observe(0.01)
        assert bound.observe == h.labels(op="ping").observe
        assert h.labels(op="ping").count == 1

    def test_bound_series_survives_reset(self, registry):
        g = registry.gauge("depth", "depth", labels=("queue",))
        bound = g.bind(queue="a")
        bound.set(4)
        registry.reset()
        bound.inc()
        assert g.labels(queue="a").value == 1

    def test_only_mutators_reach_the_series(self, registry):
        c = registry.counter("ops_total", "ops", labels=("mode",))
        with pytest.raises(AttributeError):
            c.bind(mode="ctr").value
        assert c.children() == []

    def test_bound_window_appears_at_first_observation(self):
        s = WindowedQuantileSet("b_seconds", "b", label_names=("op",))
        bound = s.bind(op="encrypt")
        assert s.snapshot(now=1_000.0)["samples"] == []
        bound.observe(0.002, now=1_000.0)
        sample, = s.snapshot(now=1_000.0)["samples"]
        assert (sample["labels"], sample["count"]) == (
            {"op": "encrypt"}, 1)
        with pytest.raises(MetricError):
            s.bind(wrong="x")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("workers", "worker count")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3


class TestHistogram:
    def test_buckets_cumulative(self, registry):
        h = registry.histogram("lat_seconds", "latency",
                               buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        child = h.children()[0]
        assert child.cumulative() == [1, 2, 3]
        assert child.count == 3
        assert child.sum == pytest.approx(5.55)

    def test_rejects_unsorted_buckets(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("h", "x", buckets=(1.0, 0.1))

    def test_default_buckets_are_sane(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_object(self, registry):
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "x")
        assert a is b

    def test_kind_collision_raises(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(MetricError):
            registry.gauge("x_total", "x")

    def test_label_schema_collision_raises(self, registry):
        registry.counter("x_total", "x", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", "x", labels=("b",))

    def test_invalid_name_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("0bad-name", "x")

    def test_reset_zeroes_but_keeps_registration(self, registry):
        c = registry.counter("x_total", "x")
        c.inc(7)
        registry.reset()
        # The same bound object keeps working from zero.
        assert c.value == 0
        c.inc()
        assert c.value == 1

    def test_global_registry_reset(self):
        g = global_registry()
        c = g.counter("test_global_reset_total", "scratch")
        c.inc(2)
        reset_global_registry()
        assert c.value == 0


# The exposition lines the 0.0.4 text format allows (plus HELP/TYPE).
_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? '
    r'(?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$'
)


def _parse_prometheus(text):
    """A strict little parser for the text exposition format.

    Returns {metric_name: {"type": ..., "samples": [(name, labels,
    value)]}} and raises AssertionError on any malformed line — the
    validity check the acceptance criteria ask for.
    """
    families = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            families.setdefault(name, {"type": None, "samples": []})
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(maxsplit=3)
            assert kind in ("counter", "gauge", "histogram", "untyped")
            families.setdefault(name, {"type": None, "samples": []})
            families[name]["type"] = kind
            current = name
        else:
            assert _SAMPLE_RE.match(line), f"malformed line: {line!r}"
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            value_text = line.rsplit(" ", 1)[1]
            value = math.inf if value_text == "+Inf" \
                else float(value_text)
            labels = {}
            if "{" in line:
                inner = line[line.index("{") + 1:line.rindex("}")]
                for pair in re.findall(
                        r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                        inner):
                    labels[pair[0]] = pair[1]
            assert current is not None
            families[current]["samples"].append((name, labels, value))
    return families


class TestPrometheusExposition:
    def test_render_is_valid_and_complete(self, registry):
        c = registry.counter("req_total", "requests",
                             labels=("mode",))
        c.labels(mode="ecb").inc(2)
        registry.gauge("temp", "temperature").set(21.5)
        h = registry.histogram("lat_seconds", "latency",
                               buckets=(0.1, 1.0))
        h.observe(0.05)
        text = registry.render_prometheus()
        families = _parse_prometheus(text)
        assert families["req_total"]["type"] == "counter"
        assert families["temp"]["type"] == "gauge"
        assert families["lat_seconds"]["type"] == "histogram"
        samples = families["req_total"]["samples"]
        assert ("req_total", {"mode": "ecb"}, 2.0) in samples
        hist = families["lat_seconds"]["samples"]
        buckets = [s for s in hist if s[0] == "lat_seconds_bucket"]
        assert [s[2] for s in buckets] == [1.0, 1.0, 1.0]
        assert buckets[-1][1]["le"] == "+Inf"
        assert ("lat_seconds_count", {}, 1.0) in hist

    def test_label_values_escaped(self, registry):
        c = registry.counter("x_total", "x", labels=("path",))
        c.labels(path='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        _parse_prometheus(text)  # still parses

    def test_multi_registry_concatenation(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("a_total", "a").inc()
        b.counter("b_total", "b").inc()
        families = _parse_prometheus(render_prometheus([a, b]))
        assert set(families) == {"a_total", "b_total"}

    def test_each_escape_class_round_trips(self, registry):
        # One label value per escape class, asserted individually:
        # the combined test above can hide a class regression.
        cases = {"back": "a\\b", "quote": 'a"b', "newline": "a\nb"}
        c = registry.counter("esc_total", "e", labels=("which",))
        for value in cases.values():
            c.labels(which=value).inc()
        text = registry.render_prometheus()
        assert 'which="a\\\\b"' in text
        assert 'which="a\\"b"' in text
        assert 'which="a\\nb"' in text
        assert "\na" not in text.split("# TYPE")[1]  # no raw newline
        families = _parse_prometheus(text)
        assert len(families["esc_total"]["samples"]) == 3

    def test_nonfinite_gauge_values_format(self, registry):
        g = registry.gauge("edge", "edge values", labels=("case",))
        g.labels(case="pinf").set(math.inf)
        g.labels(case="ninf").set(-math.inf)
        g.labels(case="nan").set(math.nan)
        text = registry.render_prometheus()
        assert 'edge{case="pinf"} +Inf' in text
        assert 'edge{case="ninf"} -Inf' in text
        assert 'edge{case="nan"} NaN' in text
        _parse_prometheus(text)  # every line stays 0.0.4-legal

    def test_empty_registry_renders_empty(self):
        registry = MetricsRegistry()
        assert registry.render_prometheus() == ""
        assert _parse_prometheus(registry.render_prometheus()) == {}
        assert json.loads(registry.render_json()) == {}

    def test_registered_but_unobserved_still_renders_header(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", "never incremented",
                         labels=("op",))
        text = registry.render_prometheus()
        # HELP/TYPE appear; no samples until a child exists.
        assert "# TYPE quiet_total counter" in text
        assert "quiet_total{" not in text

    def test_render_deterministic_across_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, order in ((a, ("x", "y", "z")),
                           (b, ("z", "x", "y"))):
            c = reg.counter("det_total", "d", labels=("op",))
            g = reg.gauge("det_gauge", "d", labels=("op",))
            for op in order:
                c.labels(op=op).inc(len(op))
                g.labels(op=op).set(1.5)
        assert a.render_prometheus() == b.render_prometheus()
        assert a.render_json() == b.render_json()


class TestJsonSnapshot:
    def test_round_trips_through_json(self, registry):
        registry.counter("x_total", "x").inc(3)
        h = registry.histogram("h_seconds", "h", buckets=(1.0,))
        h.observe(0.5)
        doc = json.loads(registry.render_json())
        assert doc["x_total"]["samples"][0]["value"] == 3
        assert doc["h_seconds"]["samples"][0]["count"] == 1

    def test_prefix_filter(self, registry):
        registry.counter("keep_total", "k").inc()
        registry.counter("drop_total", "d").inc()
        snap = registry.snapshot(prefix="keep_")
        assert set(snap) == {"keep_total"}


class TestWindowedQuantiles:
    def test_quantiles_within_one_bucket_of_truth(self):
        w = WindowedQuantiles(window_s=60.0, slots=6)
        now = 10_000.0
        for i in range(1, 1001):  # 1ms .. 1s uniform
            w.observe(i / 1000.0, now=now)
        # The estimator's documented bound: one geometric step
        # (ratio 2**0.25, ~19%) of relative error.
        for q, truth in ((0.50, 0.500), (0.95, 0.950),
                         (0.99, 0.990)):
            estimate = w.quantile(q, now=now)
            assert truth / 1.2 <= estimate <= truth * 1.2, \
                (q, estimate)

    def test_empty_window_is_nan_and_none(self):
        w = WindowedQuantiles()
        assert math.isnan(w.quantile(0.5, now=123.0))
        snap = w.snapshot(now=123.0)
        assert snap["count"] == 0
        assert snap["p50_s"] is None
        assert snap["max_s"] is None

    def test_observations_age_out_of_the_window(self):
        w = WindowedQuantiles(window_s=60.0, slots=6)
        now = 5_000.0
        w.observe(0.5, now=now)
        assert w.snapshot(now=now)["count"] == 1
        # Still visible inside the window, gone past it.
        assert w.snapshot(now=now + 50.0)["count"] == 1
        assert w.snapshot(now=now + 61.0)["count"] == 0
        assert math.isnan(w.quantile(0.5, now=now + 61.0))

    def test_sliding_not_resetting(self):
        # A ring of sub-histograms slides: old slots drop one at a
        # time, they do not vanish all at once.
        w = WindowedQuantiles(window_s=60.0, slots=6)
        base = 60_000.0
        for slot in range(6):
            w.observe(0.01, now=base + slot * 10.0)
        assert w.snapshot(now=base + 59.0)["count"] == 6
        # 15s later the two oldest 10s slots have aged out.
        assert w.snapshot(now=base + 75.0)["count"] == 4

    def test_overflow_bucket_reports_observed_max(self):
        w = WindowedQuantiles(bounds=(0.001, 0.01))
        now = 777.0
        w.observe(5.0, now=now)  # beyond every bound
        assert w.quantile(0.99, now=now) == 5.0
        assert w.snapshot(now=now)["max_s"] == 5.0

    def test_slo_burn_rate(self):
        w = WindowedQuantiles(slo_threshold_s=0.1)
        now = 900.0
        for value in (0.05, 0.05, 0.2, 0.3):
            w.observe(value, now=now)
        snap = w.snapshot(now=now)
        assert snap["slo_breaches"] == 2
        assert snap["burn_rate"] == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(MetricError):
            WindowedQuantiles(window_s=0.0)
        with pytest.raises(MetricError):
            WindowedQuantiles(bounds=(2.0, 1.0))
        with pytest.raises(MetricError):
            WindowedQuantiles().quantile(1.5)

    def test_default_bounds_are_sane(self):
        assert list(QUANTILE_BUCKETS) == sorted(QUANTILE_BUCKETS)
        assert len(set(QUANTILE_BUCKETS)) == len(QUANTILE_BUCKETS)
        assert QUANTILE_BUCKETS[0] <= 1e-4   # resolves loopback
        assert QUANTILE_BUCKETS[-1] >= 60.0  # covers slow requests


class TestWindowedQuantileSet:
    def test_renders_parseable_gauge_families(self):
        s = WindowedQuantileSet("req_window_seconds", "windowed",
                                label_names=("op",),
                                slo_threshold_s=0.1)
        now = 4_000.0
        s.labels(op="encrypt").observe(0.002, now=now)
        s.labels(op="encrypt").observe(0.3, now=now)
        families = _parse_prometheus(s.render_prometheus(now=now))
        assert families["req_window_seconds"]["type"] == "gauge"
        quantiles = {
            sample[1]["quantile"]
            for sample in families["req_window_seconds"]["samples"]
        }
        assert quantiles == {"0.5", "0.95", "0.99"}
        counts = families["req_window_seconds_count"]["samples"]
        assert counts == [("req_window_seconds_count",
                           {"op": "encrypt"}, 2.0)]
        burn = families["req_window_seconds_burn_rate"]["samples"]
        assert burn[0][2] == pytest.approx(0.5)

    def test_empty_window_renders_no_quantile_samples(self):
        s = WindowedQuantileSet("idle_window_seconds", "windowed")
        s.labels()  # child exists, nothing observed
        families = _parse_prometheus(
            s.render_prometheus(now=1_000_000.0))
        assert families["idle_window_seconds"]["samples"] == []
        counts = families["idle_window_seconds_count"]["samples"]
        assert counts[0][2] == 0.0

    def test_render_deterministic_across_insertion_order(self):
        now = 8_000.0
        a = WindowedQuantileSet("w_seconds", "w", label_names=("op",))
        b = WindowedQuantileSet("w_seconds", "w", label_names=("op",))
        for s, order in ((a, ("x", "y")), (b, ("y", "x"))):
            for op in order:
                s.labels(op=op).observe(0.01, now=now)
        assert a.render_prometheus(now=now) == \
            b.render_prometheus(now=now)
        assert a.snapshot(now=now) == b.snapshot(now=now)

    def test_snapshot_is_json_able(self):
        s = WindowedQuantileSet("j_seconds", "j", label_names=("op",),
                                slo_threshold_s=1.0)
        s.labels(op="ping").observe(0.5, now=2_000.0)
        doc = json.loads(json.dumps(s.snapshot(now=2_000.0)))
        sample = doc["samples"][0]
        assert sample["labels"] == {"op": "ping"}
        assert sample["count"] == 1
        assert sample["burn_rate"] == 0.0

    def test_label_schema_enforced(self):
        s = WindowedQuantileSet("s_seconds", "s", label_names=("op",))
        with pytest.raises(MetricError):
            s.labels(wrong="x")
