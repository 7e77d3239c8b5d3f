"""The metrics registry: exactness, exposition, disabled no-ops.

The counter-exactness test is the load-bearing one: N threads hammer
one counter M times each and the scrape must read exactly N*M — the
instruments take a per-metric lock on every write, so nothing is ever
lost to a read-modify-write race.
"""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    render_exposition,
)
from repro.obs.promcheck import ExpositionError, parse_exposition


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("events_total", "Events.")
        assert counter.total() == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = MetricsRegistry().counter("hits_total", "Hits.")
        counter.inc(route="/stats")
        counter.inc(3, route="/metrics")
        assert counter.value(route="/stats") == 1
        assert counter.value(route="/metrics") == 3
        assert counter.total() == 4

    def test_bound_handle_feeds_the_same_series(self):
        counter = MetricsRegistry().counter("bound_total", "B.")
        bound = counter.bind(cache="distance")
        bound.inc()
        bound.inc(2)
        counter.inc(4, cache="distance")
        assert counter.value(cache="distance") == 7

    def test_callback_backed_series_collects_at_scrape(self):
        registry = MetricsRegistry()
        counter = registry.counter("collected_total", "C.")
        backing = {"n": 5}
        counter.set_function(lambda: backing["n"], cache="d")
        assert counter.value(cache="d") == 5
        backing["n"] = 9
        assert (
            'collected_total{cache="d"} 9'
            in registry.render_prometheus()
        )
        with pytest.raises(ValueError):
            counter.inc(cache="d")  # collectors cannot also be events

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("ticks_total", "Ticks.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_threaded_increments_are_exact(self):
        """8 writer threads x 2500 increments scrape to exactly 20000."""
        counter = MetricsRegistry().counter("stress_total", "Stress.")
        threads_n, per_thread = 8, 2500
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait(timeout=30)
            for _ in range(per_thread):
                counter.inc(worker="w")

        threads = [
            threading.Thread(target=hammer) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert counter.value(worker="w") == threads_n * per_thread


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "Depth.")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value() == 7

    def test_callback_resolved_at_scrape(self):
        registry = MetricsRegistry()
        backing = {"n": 1}
        registry.gauge("live", "Live.").set_function(
            lambda: backing["n"]
        )
        assert "live 1" in registry.render_prometheus()
        backing["n"] = 42
        assert "live 42" in registry.render_prometheus()

    def test_broken_callback_skipped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("flaky", "Flaky.")
        gauge.set_function(lambda: 1 / 0)
        gauge.set(3, kind="static")
        text = registry.render_prometheus()
        assert 'flaky{kind="static"} 3' in text
        parse_exposition(text)  # still a valid exposition


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        lines = registry.render_prometheus().splitlines()
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines

    def test_timer_context_observes(self):
        histogram = MetricsRegistry().histogram(
            "op_seconds", "Ops.", buckets=DEFAULT_LATENCY_BUCKETS
        )
        with histogram.time(op="noop"):
            pass
        assert histogram.count(op="noop") == 1

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram(
                "bad_seconds", "Bad.", buckets=(1.0, 1.0)
            )


class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "C.")
        assert registry.counter("c_total", "C.") is first
        with pytest.raises(ValueError):
            registry.gauge("c_total", "Not a counter.")

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("dead_total", "Dead.")
        counter.inc(100)
        assert counter.total() == 0
        gauge = registry.gauge("dead", "Dead.")
        gauge.set(5)
        assert gauge.value() == 0
        histogram = registry.histogram(
            "dead_seconds", "Dead.", buckets=(1.0,)
        )
        histogram.observe(0.5)
        assert histogram.count() == 0

    def test_prometheus_exposition_is_valid(self):
        """Golden check: rendered text round-trips the checker."""
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests.").inc(
            3, route="/stats", status="200"
        )
        registry.gauge("in_flight", "In flight.").set(2)
        registry.histogram(
            "req_seconds", "Latency.", buckets=(0.1, 1.0)
        ).observe(0.25)
        families = parse_exposition(registry.render_prometheus())
        assert families["reqs_total"]["type"] == "counter"
        assert families["in_flight"]["type"] == "gauge"
        assert families["req_seconds"]["type"] == "histogram"
        samples = {
            name: value
            for name, labels, value in families["reqs_total"]["samples"]
        }
        assert samples["reqs_total"] == 3

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", "Esc.").inc(
            path='a"b\\c\nd'
        )
        parse_exposition(registry.render_prometheus())

    def test_exposition_renders_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.\nsecond \\ line").inc(kind="x")
        registry.gauge("b", "").set_function(lambda: 4)
        registry.histogram(
            "c_seconds", "C.", buckets=(0.1,)
        ).observe(7.0, route="/r")
        text = registry.render_prometheus()
        assert text == render_exposition(registry.snapshot())
        assert "# HELP a_total A.\\nsecond \\\\ line\n" in text
        assert "# HELP b" not in text  # empty help is omitted
        assert 'c_seconds_bucket{route="/r",le="+Inf"} 1\n' in text
        assert render_exposition({}) == ""

    def test_exposition_of_a_merged_snapshot(self):
        """A snapshot carrying extra labels (the cluster's ``worker``)
        renders complete, checker-valid histogram series."""
        registry = MetricsRegistry()
        registry.histogram("d_seconds", "D.", buckets=(1.0,)).observe(2.0)
        family = registry.snapshot()["d_seconds"]
        merged = {
            "d_seconds": {
                **family,
                "samples": [
                    {**sample, "labels": {"worker": str(index)}}
                    for index in range(2)
                    for sample in family["samples"]
                ],
            }
        }
        text = render_exposition(merged)
        assert 'd_seconds_bucket{worker="1",le="+Inf"} 1\n' in text
        parse_exposition(text)

    def test_snapshot_mirrors_exposition(self):
        registry = MetricsRegistry()
        registry.counter("snap_total", "Snap.").inc(2, kind="x")
        snapshot = registry.snapshot()
        assert snapshot["snap_total"]["type"] == "counter"
        [sample] = snapshot["snap_total"]["samples"]
        assert sample["labels"] == {"kind": "x"}
        assert sample["value"] == 2


class TestPromcheck:
    def test_rejects_sample_without_help(self):
        with pytest.raises(ExpositionError):
            parse_exposition("orphan_total 1\n")

    def test_rejects_incomplete_histogram(self):
        bad = (
            "# HELP h_seconds H.\n"
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="+Inf"} 1\n'
            "h_seconds_count 1\n"
        )
        with pytest.raises(ExpositionError):
            parse_exposition(bad)

    def _histogram(self, *lines):
        return (
            "# TYPE h_seconds histogram\n" + "\n".join(lines) + "\n"
        )

    def test_accepts_complete_labelled_histograms(self):
        parse_exposition(self._histogram(
            'h_seconds_bucket{route="/a",le="0.1"} 1',
            'h_seconds_bucket{route="/a",le="+Inf"} 2',
            'h_seconds_sum{route="/a"} 3.5',
            'h_seconds_count{route="/a"} 2',
            'h_seconds_bucket{route="/b",le="0.1"} 0',
            'h_seconds_bucket{route="/b",le="+Inf"} 0',
            'h_seconds_sum{route="/b"} 0',
            'h_seconds_count{route="/b"} 0',
        ))

    def test_rejects_histogram_without_inf_bucket(self):
        with pytest.raises(ExpositionError, match="Inf"):
            parse_exposition(self._histogram(
                'h_seconds_bucket{le="0.1"} 1',
                'h_seconds_bucket{le="10"} 2',
                "h_seconds_sum 3.5",
                "h_seconds_count 2",
            ))

    def test_rejects_one_series_without_inf_bucket(self):
        with pytest.raises(ExpositionError, match="/b"):
            parse_exposition(self._histogram(
                'h_seconds_bucket{route="/a",le="+Inf"} 1',
                'h_seconds_sum{route="/a"} 1',
                'h_seconds_count{route="/a"} 1',
                'h_seconds_bucket{route="/b",le="10"} 1',
                'h_seconds_sum{route="/b"} 1',
                'h_seconds_count{route="/b"} 1',
            ))

    def test_rejects_inf_bucket_differing_from_count(self):
        with pytest.raises(ExpositionError, match="_count"):
            parse_exposition(self._histogram(
                'h_seconds_bucket{le="+Inf"} 2',
                "h_seconds_sum 3.5",
                "h_seconds_count 3",
            ))

    def test_rejects_decreasing_buckets(self):
        with pytest.raises(ExpositionError, match="decreasing"):
            parse_exposition(self._histogram(
                'h_seconds_bucket{le="0.1"} 2',
                'h_seconds_bucket{le="1"} 1',
                'h_seconds_bucket{le="+Inf"} 2',
                "h_seconds_sum 3.5",
                "h_seconds_count 2",
            ))
