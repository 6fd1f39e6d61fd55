"""Observability tests: registry semantics, merges, tracing, and the
serial == parallel counter property.

The load-bearing guarantees:

* the registry is a safe concurrent sink (no lost increments, stable kinds,
  JSON-clean snapshots);
* ``merge_counters`` round-trips labeled flat names, so worker deltas land
  on the equivalent counters of the parent process;
* span traces are valid JSONL that reconstructs the nesting;
* running the same work with ``workers=4`` reports the same counters as the
  serial run — the property that makes parallel telemetry trustworthy.
"""

import gc
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import ResultCache
from repro.graph import generators
from repro.obs.export import (
    METRICS_SCHEMA,
    load_metrics_json,
    metrics_document,
    prometheus_name,
    render_metrics_table,
    render_prometheus,
    write_metrics_json,
)
from repro.obs.metrics import (
    SIZE_BUCKETS,
    MetricsRegistry,
    component_registry,
    get_registry,
    merge_counters,
    merge_snapshots,
)
from repro.obs.trace import SpanTracer, load_spans, span_tree
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.verify import is_ft_spanner


# --------------------------------------------------------------------------
# Registry semantics
# --------------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("a.b")

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("work")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_labeled_children_flat_keys(self):
        registry = MetricsRegistry()
        counter = registry.counter("dispatch")
        counter.labels(backend="loop").inc(3)
        counter.labels(backend="numpy").inc()
        # Same label combination -> same child; flat view keys are sorted.
        assert counter.labels(backend="loop") is counter.labels(backend="loop")
        assert registry.counters() == {
            'dispatch{backend="loop"}': 3,
            'dispatch{backend="numpy"}': 1,
        }

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 3
        gauge.set(0)
        assert gauge.value == 0

    def test_histogram_buckets_and_snapshot_round_trip_json(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=SIZE_BUCKETS)
        for value in (1, 3, 5000):
            histogram.observe(value)
        snapshot = registry.snapshot()
        # The +Inf bound must encode as a string so strict JSON round-trips.
        assert json.loads(json.dumps(snapshot)) == snapshot
        buckets = dict(tuple(row) for row in snapshot["sizes"]["buckets"])
        assert buckets["+Inf"] == 3
        assert buckets[4096] == 2

    def test_component_registries_fold_into_process_snapshot(self):
        component = component_registry("test-component")
        component.counter("test_component.events").inc(7)
        snapshot = get_registry().snapshot()
        assert snapshot["test_component.events"]["value"] == 7
        # The attachment is weak: once the component dies, it disappears.
        del component
        gc.collect()
        assert "test_component.events" not in get_registry().snapshot()

    def test_reset_zeroes_metrics_and_sources(self):
        registry = MetricsRegistry()
        source = MetricsRegistry()
        registry.attach(source)
        registry.counter("own").inc(2)
        source.counter("theirs").labels(kind="x").inc(4)
        registry.reset()
        assert registry.counters(include_sources=True) == {}

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("races")
        histogram = registry.histogram("laps")

        def hammer():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert histogram.count == 8000

    def test_counters_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("steps")
        counter.inc(2)
        before = registry.counters()
        counter.inc(5)
        registry.counter("fresh").inc(1)
        assert registry.counters_delta(before) == {"steps": 5, "fresh": 1}


# --------------------------------------------------------------------------
# Merges
# --------------------------------------------------------------------------

class TestMerge:
    @given(st.dictionaries(
        st.sampled_from(["a", "b", 'c{k="v"}', 'c{k="w"}']),
        st.integers(min_value=0, max_value=100), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_merge_counters_registry_equals_dict_fold(self, flat):
        """Folding into a registry and into a dict agree on every name."""
        as_dict: dict = {}
        merge_counters(as_dict, flat)
        merge_counters(as_dict, flat)
        registry = MetricsRegistry()
        registry.merge_counters(flat)
        registry.merge_counters(flat)
        assert {name: value for name, value in registry.counters().items()} \
            == {name: value for name, value in as_dict.items() if value}

    def test_merge_counters_labeled_round_trip(self):
        """Flat labeled keys land back on the equivalent labeled children."""
        origin = MetricsRegistry()
        origin.counter("dispatch").labels(backend="loop").inc(3)
        origin.counter("plain").inc(2)
        target = MetricsRegistry()
        merge_counters(target, origin.counters())
        assert target.counters() == origin.counters()

    def test_merge_snapshots_sums_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, values in ((a, (0.001, 0.2)), (b, (0.001,))):
            histogram = registry.histogram("t")
            for value in values:
                histogram.observe(value)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["t"]["count"] == 3
        assert merged["t"]["sum"] == pytest.approx(0.202)


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

class TestTrace:
    def test_disabled_tracer_hands_out_shared_null_span(self):
        tracer = SpanTracer()
        span = tracer.span("anything", ignored=1)
        assert tracer.span("else") is span
        with span as inner:
            inner.set(dropped=True)  # must be a harmless no-op

    def test_spans_round_trip_and_nest(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        registry = MetricsRegistry()
        work = registry.counter("work")
        tracer = SpanTracer(registry)
        tracer.configure(path)
        try:
            with tracer.span("outer", phase="build") as outer:
                work.inc(2)
                with tracer.span("inner") as inner:
                    work.inc(3)
                    inner.set(items=7)
                outer.set(done=True)
            with tracer.span("second-root"):
                pass
        finally:
            tracer.close()
        spans = load_spans(path)
        assert [span["name"] for span in spans] == [
            "inner", "outer", "second-root"]  # exit order
        by_name = {span["name"]: span for span in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attrs"] == {"items": 7}
        assert by_name["outer"]["attrs"] == {"phase": "build", "done": True}
        # Counter attribution: the child sees its own movement, the parent
        # sees the inclusive total.
        assert by_name["inner"]["counters"] == {"work": 3}
        assert by_name["outer"]["counters"] == {"work": 5}
        tree = span_tree(spans)
        assert {span["name"] for span in tree[None]} == {"outer",
                                                         "second-root"}
        assert [span["name"]
                for span in tree[by_name["outer"]["span_id"]]] == ["inner"]
        for span in spans:
            assert span["seconds"] >= 0.0

    def test_close_is_idempotent_and_disables(self, tmp_path):
        tracer = SpanTracer(MetricsRegistry())
        tracer.configure(str(tmp_path / "t.jsonl"))
        assert tracer.enabled
        tracer.close()
        tracer.close()
        assert not tracer.enabled


# --------------------------------------------------------------------------
# Export renderings
# --------------------------------------------------------------------------

class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("engine.kernel_calls", "kernel runs").inc(4)
        registry.counter("kernels.dispatch").labels(backend="loop").inc(2)
        registry.histogram("engine.group_kernel_seconds").observe(0.01)
        return registry

    def test_prometheus_rendering(self):
        body = render_prometheus(self._registry().snapshot())
        assert "# TYPE repro_engine_kernel_calls counter" in body
        assert "repro_engine_kernel_calls 4" in body
        assert 'repro_kernels_dispatch{backend="loop"} 2' in body
        assert 'repro_engine_group_kernel_seconds_bucket{le="+Inf"} 1' in body
        assert "repro_engine_group_kernel_seconds_count 1" in body

    def test_prometheus_name(self):
        assert prometheus_name("engine.kernel_calls") \
            == "repro_engine_kernel_calls"

    def test_metrics_json_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        document = write_metrics_json(path, self._registry(),
                                      meta={"command": "test"})
        loaded = load_metrics_json(path)
        assert loaded == document
        assert loaded["schema"] == METRICS_SCHEMA
        assert loaded["meta"] == {"command": "test"}
        assert loaded["metrics"]["engine.kernel_calls"]["value"] == 4

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"not": "metrics"}), encoding="utf-8")
        with pytest.raises(ValueError, match="repro.metrics/v1"):
            load_metrics_json(str(path))

    def test_table_rendering_lists_children(self):
        table = render_metrics_table(self._registry().snapshot())
        rendered = table.to_ascii()
        assert 'kernels.dispatch{backend="loop"}' in rendered
        assert "engine.group_kernel_seconds" in rendered

    def test_metrics_document_accepts_plain_snapshot(self):
        snapshot = self._registry().snapshot()
        assert metrics_document(snapshot)["metrics"] == snapshot


# --------------------------------------------------------------------------
# The serial == parallel counter property
# --------------------------------------------------------------------------

def _counter_delta(fn):
    """Run ``fn`` and return the process-registry counter movement it caused."""
    gc.collect()  # drop dead component registries before the baseline
    registry = get_registry()
    before = registry.counters(include_sources=True)
    result = fn()
    return result, registry.counters_delta(before, include_sources=True)


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_is_ft_spanner_workers4_counters_equal_serial(seed):
    """Verifying a valid spanner with 4 workers moves the same counters.

    Valid spanner -> no early stop -> every chunk is consumed, so the
    captured worker deltas must reproduce the serial counters exactly (the
    speculative-discard caveat only applies to violating runs).
    """
    graph = generators.gnm(16, 48, rng=seed, connected=True, weighted=True)
    spanner = ft_greedy_spanner(graph, 3, 1).spanner

    report_serial, serial = _counter_delta(
        lambda: is_ft_spanner(graph, spanner, 3.0, 1, workers=1))
    report_parallel, parallel = _counter_delta(
        lambda: is_ft_spanner(graph, spanner, 3.0, 1, workers=4,
                              backend="process"))
    assert report_serial.ok and report_parallel.ok
    assert report_parallel.fault_sets_checked == report_serial.fault_sets_checked
    assert parallel == serial


# --------------------------------------------------------------------------
# Cache stats surface
# --------------------------------------------------------------------------

class TestCacheStats:
    def test_untouched_cache_hit_rate_is_zero(self):
        cache = ResultCache(4, metrics=MetricsRegistry())
        assert cache.hit_rate == 0.0

    def test_stats_expose_evictions_and_invalidations(self):
        cache = ResultCache(4, metrics=MetricsRegistry())
        stats = cache.stats()
        assert stats["evictions"] == 0
        assert stats["invalidations"] == 0
        assert stats["hit_rate"] == 0.0
