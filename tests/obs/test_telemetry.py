"""Unit tests for the streaming telemetry registry and its sketches.

The mergeability contract is the load-bearing property: merging
per-trial snapshots must reproduce the combined instruments
exactly (integer bucket counts) or to float-addition identity (sums
merged in a deterministic order).  A registry is the telemetry sink of a
span tracer: :meth:`MetricsRegistry.fold` turns each finished span into
the instruments it reports.
"""

import json
import math

import pytest

from repro.obs.telemetry import (
    Counter,
    LogHistogram,
    MetricsRegistry,
    find_metrics,
    merge_snapshots,
    metric_key,
    read_telemetry_json,
    validate_snapshot,
    write_telemetry_json,
)


class TestLogHistogram:
    def test_empty(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.sum == 0.0
        with pytest.raises(ValueError):
            hist.quantile(50)

    def test_exact_count_sum_min_max(self):
        hist = LogHistogram()
        values = [0.001, 0.5, 2.0, 37.0, 1e6]
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.min == min(values)
        assert hist.max == max(values)

    def test_zero_values_counted(self):
        hist = LogHistogram()
        hist.observe(0.0)
        hist.observe(1.0)
        assert hist.count == 2
        assert hist.min == 0.0
        assert hist.quantile(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().observe(-1.0)

    def test_quantile_bounded_relative_error(self):
        # Bucket upper bounds over-estimate by at most the growth factor.
        hist = LogHistogram(growth=1.1)
        values = [0.01 * (i + 1) for i in range(1000)]
        for v in values:
            hist.observe(v)
        for q in (10, 50, 90, 99):
            exact = values[max(0, math.ceil(q / 100 * len(values)) - 1)]
            sketch = hist.quantile(q)
            assert exact <= sketch * (1 + 1e-9)
            assert sketch <= exact * 1.1 * (1 + 1e-9)

    def test_quantile_extremes_are_exact(self):
        hist = LogHistogram()
        for v in (3.0, 1.0, 9.0):
            hist.observe(v)
        assert hist.quantile(0) == 1.0
        assert hist.quantile(100) == 9.0

    def test_quantile_out_of_range(self):
        hist = LogHistogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(101)

    def test_single_value(self):
        hist = LogHistogram()
        hist.observe(7.0)
        for q in (0, 50, 100):
            assert hist.quantile(q) == 7.0

    def test_merge_is_exact(self):
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for i, v in enumerate([0.1, 0.2, 5.0, 80.0, 0.0, 2.5]):
            (a if i % 2 else b).observe(v, window=i)
            both.observe(v, window=i)
        a.merge(b)
        assert a.to_dict() == both.to_dict()

    def test_merge_growth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.1).merge(LogHistogram(growth=1.5))

    def test_roundtrip(self):
        hist = LogHistogram()
        for i, v in enumerate([0.0, 0.3, 12.0]):
            hist.observe(v, window=i)
        clone = LogHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.quantile(50) == hist.quantile(50)

    def test_fraction_below(self):
        hist = LogHistogram()
        for v in (0.0, 0.5, 1.0, 10.0):
            hist.observe(v)
        assert hist.fraction_below(100.0) == 1.0
        assert hist.fraction_below(1e-6) == 0.25  # only the zero
        # Conservative: a bucket counts only if its UPPER bound fits.
        assert 0.25 <= hist.fraction_below(0.6) <= 0.75


class TestCounterGauge:
    def test_counter_windows_sum_to_total(self):
        counter = Counter()
        counter.inc(2.0, window=0)
        counter.inc(3.0, window=0)
        counter.inc(1.0, window=4)
        assert counter.total == 6.0
        assert sum(counter.windows.values()) == counter.total

    def test_counter_merge(self):
        a, b = Counter(), Counter()
        a.inc(2.0, window=0)
        b.inc(3.0, window=0)
        b.inc(1.0, window=1)
        a.merge(b)
        assert a.total == 6.0
        assert a.windows == {0: 5.0, 1: 1.0}

    def test_counter_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestRegistry:
    def test_labels_key_instruments(self):
        reg = MetricsRegistry()
        reg.inc("hits", 1.0, node="a")
        reg.inc("hits", 2.0, node="b")
        reg.inc("hits", 3.0, node="a")
        assert reg.counter("hits", node="a").total == 4.0
        assert reg.counter("hits", node="b").total == 2.0
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key(
            "m", {"b": 2, "a": 1}
        )

    def test_emission_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("hits", 1.0, node="a", phase="put")
        reg.inc("hits", 2.0, phase="put", node="a")
        reg.inc("hits", 4.0, node="a", phase="put")
        assert len(reg) == 1
        assert reg.counter("hits", phase="put", node="a").total == 7.0

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0)
        with pytest.raises(ValueError):
            reg.observe("m", 1.0)

    def test_emission_after_clear_or_merge_reaches_the_registry(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0, node="a")
        reg.clear()
        reg.inc("m", 2.0, node="a")
        (entry,) = reg.snapshot()["metrics"]
        assert entry["total"] == 2.0
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        other.inc("m", 3.0, node="a")
        (entry,) = other.snapshot()["metrics"]
        assert entry["total"] == 5.0

    def test_simulated_clock_windows(self):
        now = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: now["t"], window=1.0)
        reg.observe("lat", 0.5)
        now["t"] = 2.7
        reg.observe("lat", 1.5)
        hist = reg.histogram("lat")
        assert set(hist.windows) == {0, 2}

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.inc("z", 1.0, node="b")
        reg.inc("a", 1.0)
        reg.inc("z", 1.0, node="a")
        names = [m["name"] for m in reg.snapshot()["metrics"]]
        assert names == sorted(names)

    def test_snapshot_merge_identity(self):
        # The multi-trial contract: per-trial registries replay the same
        # float additions no matter which worker runs them, so merging
        # trial snapshots in trial order is bit-identical for any --jobs.
        def load(reg, offset):
            for i in range(10):
                reg.observe("lat", 0.1 * (i + offset), wf="x")
                reg.inc("ops", 1.0, wf="x")

        def cells():
            a, b = MetricsRegistry(), MetricsRegistry()
            load(a, 0)
            load(b, 10)
            return [a.snapshot(), b.snapshot()]

        once = merge_snapshots(cells())
        again = merge_snapshots(cells())
        assert json.dumps(once, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        # Against one monolithic registry: counts exact, sums to float
        # tolerance (a single registry adds in a different order).
        whole = MetricsRegistry()
        load(whole, 0)
        load(whole, 10)
        (m_hist, m_ops), (w_hist, w_ops) = (
            sorted(s["metrics"], key=lambda m: m["name"])
            for s in (once, whole.snapshot())
        )
        assert m_hist["count"] == w_hist["count"]
        assert m_hist["buckets"] == w_hist["buckets"]
        assert m_hist["sum"] == pytest.approx(w_hist["sum"], rel=1e-12)
        assert m_ops["total"] == w_ops["total"]

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0)
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot()["metrics"] == []

    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.observe("lat", 0.25, wf="w")
        reg.inc("ops", 2.0)
        path = write_telemetry_json(tmp_path / "t.json", reg)
        snapshot = read_telemetry_json(path)
        assert validate_snapshot(snapshot) == []
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(
            reg.snapshot(), sort_keys=True
        )

    def test_find_metrics(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1.0, wf="a", node="n0")
        reg.inc("ops", 1.0, wf="b", node="n0")
        snapshot = reg.snapshot()
        assert len(find_metrics(snapshot, "ops")) == 2
        assert len(find_metrics(snapshot, "ops", wf="a")) == 1
        assert find_metrics(snapshot, "missing") == []


class TestValidateSnapshot:
    def test_good_snapshot_passes(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1)
        reg.inc("ops", 1.0)
        assert validate_snapshot(reg.snapshot()) == []

    def test_detects_count_mismatch(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1)
        snapshot = reg.snapshot()
        snapshot["metrics"][0]["count"] += 1
        problems = validate_snapshot(snapshot)
        assert problems and any("count" in p for p in problems)

    def test_detects_duplicate_series(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1.0)
        snapshot = reg.snapshot()
        snapshot["metrics"].append(dict(snapshot["metrics"][0]))
        assert any("duplicate" in p for p in validate_snapshot(snapshot))

    def test_detects_wrong_type(self):
        assert validate_snapshot({"type": "spans"}) != []


class TestQuantileCache:
    """Regression: ``quantile`` caches the sorted bucket keys; the
    cache must be invalidated whenever observe/merge can add a bucket,
    or quantiles silently go stale."""

    def _reference(self, values):
        fresh = LogHistogram()
        for v in values:
            fresh.observe(v)
        return fresh

    def test_observe_new_bucket_invalidates(self):
        hist = LogHistogram()
        for v in (0.5, 2.0):
            hist.observe(v)
        assert hist.quantile(99) == self._reference([0.5, 2.0]).quantile(99)
        # A value far above every existing bucket: with a stale cache
        # the p99 would still come off the 2.0 bucket.
        hist.observe(500.0)
        assert hist.quantile(99) == self._reference(
            [0.5, 2.0, 500.0]
        ).quantile(99)
        assert hist.quantile(99) == 500.0  # clamped to exact max

    def test_observe_existing_bucket_keeps_quantiles_exact(self):
        hist = LogHistogram()
        values = [1.0, 1.0, 1.0]
        for v in values:
            hist.observe(v)
        assert hist.quantile(50) == self._reference(values).quantile(50)
        # Same bucket again: counts change, key set does not; every
        # quantile must still match a cache-free computation.
        for _ in range(97):
            hist.observe(1.0)
            values.append(1.0)
        hist.observe(64.0)
        values.append(64.0)
        for q in (1, 50, 98, 99, 100):
            assert hist.quantile(q) == self._reference(values).quantile(q)

    def test_merge_invalidates(self):
        left = LogHistogram()
        for v in (0.1, 0.2):
            left.observe(v)
        assert left.quantile(100) == 0.2
        right = LogHistogram()
        for v in (30.0, 40.0):
            right.observe(v)
        left.merge(right)
        assert left.quantile(100) == 40.0
        assert left.quantile(50) == self._reference(
            [0.1, 0.2, 30.0, 40.0]
        ).quantile(50)

    def test_interleaved_agreement(self):
        """Any interleaving of observe/quantile/merge agrees with a
        histogram built from scratch at every step."""
        hist = LogHistogram()
        seen = []
        batches = ([0.05, 0.8], [12.0], [0.8, 250.0], [3.3])
        for batch in batches:
            for v in batch:
                hist.observe(v)
                seen.append(v)
            for q in (25, 50, 75, 99):
                assert hist.quantile(q) == self._reference(seen).quantile(q)
        other = LogHistogram()
        for v in (1e4, 2e4):
            other.observe(v)
            seen.append(v)
        hist.merge(other)
        for q in (25, 50, 75, 99, 100):
            assert hist.quantile(q) == self._reference(seen).quantile(q)

    def test_empty_merge_preserves_cache_correctness(self):
        hist = LogHistogram()
        hist.observe(5.0)
        assert hist.quantile(50) == 5.0
        hist.merge(LogHistogram())  # nothing to add
        assert hist.quantile(50) == 5.0


class TestFold:
    """The registry as a span sink: each finished span becomes the
    counters and histograms of its kind, at the simulated time it ends."""

    @staticmethod
    def _tracer(retain=False):
        from repro.obs import SpanTracer
        from repro.sim import Environment

        env = Environment()
        registry = MetricsRegistry(clock=lambda: env.now)
        return SpanTracer(env, retain=retain, telemetry=registry), registry

    def test_measured_value_is_folded_not_the_duration(self):
        from repro.obs import SpanKind

        tracer, registry = self._tracer()
        # 0.1 + 0.2 - 0.1 != 0.2 in floating point: a fold of end - start
        # would move the histogram's sum.
        tracer.record(
            SpanKind.QUEUE_WAIT, 0.1, 0.1 + 0.2, workflow="w",
            function="f", node="n", value=0.2, resource="container",
        )
        tracer.record(
            SpanKind.EXECUTE, 0.1, 0.1 + 0.2, workflow="w", function="f",
            node="n",
        )
        wait = registry.histogram(
            "function.queue_wait_seconds",
            workflow="w", function="f", node="n", resource="container",
        )
        execute = registry.histogram(
            "function.execute_seconds",
            workflow="w", function="f", node="n", status="ok",
        )
        assert wait.sum == 0.2
        assert execute.sum == (0.1 + 0.2) - 0.1 != 0.2

    def test_data_spans_fold_phase_and_locality(self):
        from repro.obs import SpanKind

        tracer, registry = self._tracer()
        common = dict(workflow="w", node="n", producer="p", size=8.0)
        tracer.record(SpanKind.PUT, 0.0, value=0.5, local=True, **common)
        tracer.record(
            SpanKind.PUT, 0.0, value=0.25, local=False, eager=True, **common
        )
        tracer.record(SpanKind.GET, 0.0, value=0.125, local=False, **common)
        labels = [
            (m["labels"]["phase"], m["labels"]["local"], m["total"])
            for m in registry.snapshot()["metrics"]
            if m["name"] == "data.bytes"
        ]
        assert sorted(labels) == [
            ("get", "remote", 8.0), ("push", "remote", 8.0),
            ("put", "local", 8.0),
        ]

    def test_kinds_without_instruments_are_ignored(self):
        from repro.obs import SpanKind

        tracer, registry = self._tracer()
        span = tracer.start(SpanKind.FUNCTION, function="f")
        tracer.end(span)
        tracer.event(SpanKind.FAULT, node="n", fault="node-crash")
        tracer.record(SpanKind.STATE_SYNC, 0.0, role="sink-report")
        assert len(registry) == 0

    def test_telemetry_only_tracer_keeps_no_spans(self):
        from repro.obs import SpanKind

        tracer, registry = self._tracer()
        root = tracer.start_invocation(7, workflow="w")
        tracer.event(
            SpanKind.CONTAINER, node="n", function="f", lifecycle="warm-reuse"
        )
        tracer.end(root)  # no outcome value: nothing to fold
        assert len(tracer) == 0
        assert tracer._open == {} and tracer._roots == {}
        assert [m["name"] for m in registry.snapshot()["metrics"]] == [
            "container.warm_reuses"
        ]

    def test_both_sinks_see_the_same_spans(self):
        from repro.obs import SpanKind

        tracer, registry = self._tracer(retain=True)
        tracer.event(
            SpanKind.NET, node="a", transfer="remote", dst="b", size=3.0
        )
        assert [s.kind for s in tracer.all_spans()] == [SpanKind.NET]
        assert registry.counter("net.bytes", node="a", kind="remote").total == 3.0

    def test_measured_value_is_not_exported(self, tmp_path):
        from repro.obs import SpanKind, read_spans_jsonl, write_spans_jsonl

        tracer, _ = self._tracer(retain=True)
        tracer.record(
            SpanKind.GET, 0.0, workflow="w", node="n", value=0.5,
            producer="p", size=1.0, local=True,
        )
        path = write_spans_jsonl(tmp_path / "s.jsonl", tracer)
        assert "value" not in json.loads(path.read_text().splitlines()[1])
        (span,), _ = read_spans_jsonl(path)
        assert span.value is None and span == tracer.spans[0]
