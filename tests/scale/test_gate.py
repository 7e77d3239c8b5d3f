"""Regression-gate arithmetic: directions, floors, missing metrics."""

import pytest

from repro.errors import ReproError
from repro.scale.gate import (
    DEFAULT_THRESHOLDS,
    evaluate_gate,
    gate_mode,
    skip_reason,
)


def report(ingest_rps=100.0, cold=10.0, warm=1.0, p50=20.0, p95=40.0):
    return {
        "ingest": {"runs_per_second": ingest_rps},
        "matrix": {"cold_seconds": cold, "warm_seconds": warm},
        "query": {"p50_ms": p50, "p95_ms": p95},
    }


class TestEvaluate:
    def test_identical_reports_pass(self):
        baseline = report()
        assert evaluate_gate(baseline, baseline) == []

    def test_min_direction_catches_throughput_collapse(self):
        findings = evaluate_gate(
            report(ingest_rps=40.0), report(ingest_rps=100.0)
        )
        assert [f.metric for f in findings] == [
            "ingest.runs_per_second"
        ]
        assert "fell below" in findings[0].render()

    def test_max_direction_catches_latency_blowup(self):
        findings = evaluate_gate(report(p95=150.0), report(p95=40.0))
        assert [f.metric for f in findings] == ["query.p95_ms"]
        assert "exceeded" in findings[0].render()

    def test_within_ratio_passes(self):
        # 1.8x cold-matrix growth is under the 2.0 limit.
        assert (
            evaluate_gate(report(cold=18.0), report(cold=10.0)) == []
        )

    def test_noise_floor_skips_tiny_baselines(self):
        # A 0.4ms -> 1.9ms p95 swing is 4.75x but under the floor.
        findings = evaluate_gate(
            report(p95=1.9, p50=0.3), report(p95=0.4, p50=0.2)
        )
        assert findings == []

    def test_missing_metric_skipped(self):
        findings = evaluate_gate({}, report())
        assert findings == []

    def test_bad_direction_rejected(self):
        with pytest.raises(ReproError):
            evaluate_gate(
                report(), report(), {"query.p95_ms": ("sideways", 1.0)}
            )

    def test_cold_ms_is_never_gated(self):
        """The untimed warm-up pass may top up edit scripts, so a
        cold-pass blow-up alone is not a regression."""
        baseline = report()
        baseline["query"]["shapes"] = {"kind": {"cold_ms": 600.0}}
        current = report()
        current["query"]["shapes"] = {"kind": {"cold_ms": 60_000.0}}
        assert evaluate_gate(current, baseline) == []
        assert not any("cold_ms" in m for m in DEFAULT_THRESHOLDS)

    def test_default_thresholds_cover_every_workload(self):
        prefixes = {m.split(".")[0] for m in DEFAULT_THRESHOLDS}
        assert prefixes == {"ingest", "matrix", "query", "family"}

    def test_family_gate_catches_a_quadratic_scan(self):
        """Shaped like the 400-run family before and after its medoid
        went O(N²) per request: every family metric fires."""
        linear = {
            "family": {"medoid_ms": 6.0, "run_open_ms": 12.0, "write_ms": 58.0}
        }
        quadratic = {
            "family": {
                "medoid_ms": 900.0, "run_open_ms": 1100.0, "write_ms": 1200.0
            }
        }
        findings = evaluate_gate(quadratic, linear)
        assert sorted(f.metric for f in findings) == [
            "family.medoid_ms",
            "family.run_open_ms",
            "family.write_ms",
        ]
        assert evaluate_gate(linear, linear) == []


class TestComparability:
    def test_same_corpus_and_cores_is_gated(self):
        baseline = dict(report(), corpus_runs=1000, cpu_cores=2)
        assert skip_reason(dict(baseline), baseline) is None

    def test_cpu_cores_mismatch_skips(self):
        # A regression-sized slowdown on a different core count must
        # not be judged: the gate skips and says why.
        baseline = dict(report(), corpus_runs=1000, cpu_cores=2)
        current = dict(report(p95=400.0), corpus_runs=1000, cpu_cores=8)
        reason = skip_reason(current, baseline)
        assert reason is not None and "cpu_cores" in reason
        assert "2" in reason and "8" in reason

    def test_corpus_runs_mismatch_skips(self):
        baseline = dict(report(), corpus_runs=1000, cpu_cores=2)
        current = dict(report(), corpus_runs=10000, cpu_cores=2)
        assert "corpus_runs" in skip_reason(current, baseline)


    def test_unrecorded_cores_skip(self):
        # A report that does not say its core count cannot be compared
        # with one that does.
        baseline = dict(report(), corpus_runs=1000, cpu_cores=2)
        current = dict(report(), corpus_runs=1000)
        assert "cpu_cores" in skip_reason(current, baseline)


class TestMode:
    def test_default_advisory(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE_GATE", raising=False)
        assert gate_mode() == "advisory"

    def test_hard(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_GATE", "hard")
        assert gate_mode() == "hard"

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_GATE", "sometimes")
        with pytest.raises(ReproError):
            gate_mode()
