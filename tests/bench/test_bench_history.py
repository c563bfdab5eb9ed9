"""bench_history: metric extraction, history ledger, regression gate."""

import json

import pytest

from benchmarks import bench_history


@pytest.fixture
def artifacts(tmp_path):
    """A fake repo root with the four BENCH artifacts at known values."""
    (tmp_path / "BENCH_scale.json").write_text(json.dumps({
        "benchmark": "bench_ablation_scale",
        "engine_speedup": {"speedup": 10.0},
        "vectorized_kernel": {"batches_per_s": 30.0, "speedup": 5.5},
    }))
    (tmp_path / "BENCH_refresh.json").write_text(json.dumps({
        "benchmark": "bench_refresh_cost",
        "incremental_rounds_per_s": 8.0,
    }))
    (tmp_path / "BENCH_concurrency.json").write_text(json.dumps({
        "benchmark": "bench_concurrent_queries",
        "single_thread_qps": 4.0,
        "best_concurrent_qps": 40.0,
    }))
    (tmp_path / "BENCH_topology.json").write_text(json.dumps({
        "benchmark": "bench_topology_scale",
        "head_to_head": {"speedup": 16.0},
    }))
    return tmp_path


def _baseline(tmp_path, benchmarks):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


class TestCollect:
    def test_collects_all_headline_metrics(self, artifacts):
        collected = bench_history.collect(artifacts)
        assert collected == {
            # The scalar/vectorized ratio beside it is reported, not a headline.
            "bench_ablation_scale": {"engine_speedup": 10.0, "vectorized_batches_per_s": 30.0},
            "bench_refresh_cost": {"incremental_rounds_per_s": 8.0},
            "bench_concurrent_queries": {"single_thread_qps": 4.0, "best_concurrent_qps": 40.0},
            "bench_topology_scale": {"head_to_head_speedup": 16.0},
        }

    def test_missing_artifacts_are_skipped(self, tmp_path):
        (tmp_path / "BENCH_refresh.json").write_text(json.dumps({
            "benchmark": "bench_refresh_cost", "incremental_rounds_per_s": 8.0,
        }))
        assert list(bench_history.collect(tmp_path)) == ["bench_refresh_cost"]

    def test_unreadable_artifact_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "BENCH_refresh.json").write_text("{broken")
        assert bench_history.collect(tmp_path) == {}

    def test_non_numeric_metric_is_dropped(self, tmp_path):
        (tmp_path / "BENCH_refresh.json").write_text(json.dumps({
            "benchmark": "bench_refresh_cost", "incremental_rounds_per_s": "fast",
        }))
        assert bench_history.collect(tmp_path) == {}


class TestRecord:
    def test_appends_one_line_per_benchmark(self, artifacts, tmp_path):
        history = tmp_path / "history.jsonl"
        assert bench_history.record(artifacts, history) == 0
        assert bench_history.record(artifacts, history) == 0
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(lines) == 8  # 4 benchmarks x 2 runs
        assert {line["benchmark"] for line in lines} == set(
            bench_history.collect(artifacts)
        )
        assert all({"ts", "sha", "benchmark", "metrics"} <= set(line) for line in lines)

    def test_no_artifacts_fails(self, tmp_path):
        assert bench_history.record(tmp_path, tmp_path / "h.jsonl") == 1


class TestCheck:
    def test_within_tolerance_passes(self, artifacts, tmp_path):
        baseline = _baseline(tmp_path, {
            "bench_refresh_cost": {"incremental_rounds_per_s": 9.0},  # current 8.0 > 9.0*0.8
        })
        assert bench_history.check(artifacts, baseline, tolerance=0.2) == 0

    def test_regression_fails(self, artifacts, tmp_path):
        baseline = _baseline(tmp_path, {
            "bench_refresh_cost": {"incremental_rounds_per_s": 20.0},  # current 8.0 < 20.0*0.8
        })
        assert bench_history.check(artifacts, baseline, tolerance=0.2) == 1

    def test_improvement_always_passes(self, artifacts, tmp_path):
        baseline = _baseline(tmp_path, {
            "bench_refresh_cost": {"incremental_rounds_per_s": 1.0},
        })
        assert bench_history.check(artifacts, baseline, tolerance=0.2) == 0

    def test_missing_current_artifact_is_a_warning_not_a_failure(self, tmp_path):
        (tmp_path / "BENCH_refresh.json").write_text(json.dumps({
            "benchmark": "bench_refresh_cost", "incremental_rounds_per_s": 8.0,
        }))
        baseline = _baseline(tmp_path, {
            "bench_refresh_cost": {"incremental_rounds_per_s": 8.0},
            "bench_topology_scale": {"head_to_head_speedup": 16.0},  # absent now
        })
        assert bench_history.check(tmp_path, baseline, tolerance=0.2) == 0

    def test_no_baseline_fails(self, artifacts, tmp_path):
        assert bench_history.check(artifacts, tmp_path / "missing.json") == 1

    def test_nothing_comparable_fails(self, artifacts, tmp_path):
        baseline = _baseline(tmp_path, {})
        assert bench_history.check(artifacts, baseline) == 1


class TestWriteBaseline:
    def test_round_trip_with_check(self, artifacts, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert bench_history.write_baseline(artifacts, baseline) == 0
        assert bench_history.check(artifacts, baseline) == 0
        doc = json.loads(baseline.read_text())
        assert doc["tolerance"] == 0.2
        assert "bench_refresh_cost" in doc["benchmarks"]


class TestCommittedBaseline:
    def test_repo_baseline_matches_committed_artifacts(self):
        """The gate the CI runs: committed BENCH files vs committed baseline."""
        assert bench_history.BASELINE_PATH.exists()
        assert bench_history.check() == 0

    def test_cli_entrypoint(self, capsys):
        assert bench_history.main(["--check"]) == 0
        assert "within" in capsys.readouterr().out
