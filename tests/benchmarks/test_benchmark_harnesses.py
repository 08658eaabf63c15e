"""Smoke tests for the benchmark harnesses in ``benchmarks/``.

The real benchmarks run at paper scale; these tests import their harness
functions and run them at miniature scale to guarantee they stay executable as
the library evolves.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARK_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(module_name: str):
    path = BENCHMARK_DIR / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


class TestTable1Harness:
    def test_small_run_orders_models_sensibly(self):
        module = _load("bench_table1_value_matching")
        scores = module.run_table1(n_sets=4, values_per_column=25, models=("fasttext", "mistral"))
        assert set(scores) == {"fasttext", "mistral"}
        assert scores["mistral"].f1 >= scores["fasttext"].f1


class TestDownstreamEmHarness:
    def test_small_run_produces_both_methods(self):
        module = _load("bench_downstream_em")
        scores = module.run_downstream_em(n_sets=1, entities_per_set=20)
        assert set(scores) == {"regular_fd", "fuzzy_fd"}
        assert 0.0 <= scores["fuzzy_fd"].f1 <= 1.0


class TestFigure3Harness:
    def test_small_sweep_runs(self):
        module = _load("bench_fig3_runtime")
        points = module.run_runtime_sweep(sizes=[120])
        assert len(points) == 2


class TestAblationHarnesses:
    def test_threshold_ablation(self):
        module = _load("bench_ablation_threshold")
        results = module.run_threshold_ablation(
            thresholds=(0.5, 0.7), n_sets=3, values_per_column=20
        )
        assert set(results) == {0.5, 0.7}

    def test_fd_algorithm_ablation(self):
        module = _load("bench_ablation_fd_algorithms")
        results = module.run_fd_ablation(total_tuples=120, algorithms=("alite", "incremental"))
        assert set(results) == {"alite", "incremental"}
        counts = {stats["output_tuples"] for stats in results.values()}
        assert len(counts) == 1  # all algorithms agree on the result size

    def test_assignment_ablation(self):
        module = _load("bench_ablation_assignment")
        results = module.run_assignment_ablation(n_sets=3, values_per_column=20)
        assert set(results) == {"scipy", "greedy"}

    def test_representative_ablation(self):
        module = _load("bench_ablation_representatives")
        results = module.run_representative_ablation(n_sets=3, values_per_column=20)
        assert set(results) == {"frequency", "first_column", "longest", "shortest"}

    def test_blocking_ablation(self):
        module = _load("bench_ablation_blocking")
        results = module.run_blocking_ablation(n_sets=2, values_per_column=20)
        assert set(results) == {"exhaustive", "blocked"}
        assert results["blocked"]["scored_pair_fraction"] <= 1.0

    def test_blocking_scale_benchmark(self):
        module = _load("bench_ablation_blocking")
        scale = module.run_component_scale_benchmark(n_values=150)
        assert scale["identical_matches"] == 1.0
        assert scale["component_peak_matrix"] <= scale["dense_peak_matrix"]
        assert scale["components"] > 1.0
        assert module.scale_report(scale)


class TestParallelAblationHarness:
    def test_small_run_produces_identical_matches_everywhere(self, tmp_path):
        module = _load("bench_ablation_parallel")
        payload = module.run_all(n_values=150, group_size=4)
        assert payload["singleton_fastpath"]["identical_matches"] == 1.0
        assert payload["end_to_end"]["identical_matches"]
        assert all(run["identical_matches"] for run in payload["worker_scaling"]["runs"])
        assert module.report(payload)
        written = module.write_json(payload, str(tmp_path / "BENCH_parallel.json"))
        assert written.exists()

    def test_workloads_are_deterministic(self):
        module = _load("bench_ablation_parallel")
        assert module.singleton_workload(50) == module.singleton_workload(50)
        assert module.component_workload(48) == module.component_workload(48)
        left, right = module.mixed_workload(60)
        assert len(left) == len(right) == 60


class TestServiceHarness:
    def test_small_run_records_the_serving_claims(self, tmp_path):
        module = _load("bench_service")
        payload = module.run_all(n_requests=6, n_values=30)
        steady = payload["steady_state"]
        assert steady["served"] == steady["requests"]
        assert steady["requests_per_second"] > 0.0
        assert steady["latency_p99_seconds"] >= steady["latency_p50_seconds"]
        cycle = payload["warm_vs_cold"]
        # The acceptance claim: a warm-store service makes zero raw embeds.
        assert cycle["warm_raw_embeds"] == 0.0
        burst = payload["admission_burst"]
        assert burst["rejected"] > 0.0
        assert burst["only_ok_or_overloaded"] == 1.0
        assert burst["accounted"] == 1.0
        assert burst["max_rejection_seconds"] < 0.050
        assert module.report(payload)
        written = module.write_json(payload, str(tmp_path / "BENCH_service.json"))
        assert written.exists()

    def test_workload_cycles_a_distinct_pool(self):
        module = _load("bench_service")
        workload = module.request_workload(8, 20, distinct=2)
        assert len(workload) == 8
        assert workload[0] is workload[2] and workload[1] is workload[3]
        assert workload[0] is not workload[1]
        # Deterministic across calls — benchmarks must be re-runnable.
        again = module.request_workload(8, 20, distinct=2)
        assert workload[0][0].rows == again[0][0].rows


class TestStoreHarnessFloor:
    def test_warm_start_records_a_floor(self):
        module = _load("bench_store")
        warm_start = module.run_warm_start_benchmark(n_values=120)
        assert warm_start["floor_seconds"] >= warm_start["warm_seconds"]
        assert warm_start["floor_seconds"] >= 0.25
        # 120 cities + their 120 one-character variants, each embedded once
        # cold and read back from the store warm.
        assert warm_start["cold_raw_embeds"] == warm_start["published_rows"] == 240.0
        assert warm_start["warm_raw_embeds"] == 0.0
        assert module.warm_start_violations(warm_start) == []

    def test_a_counter_that_never_moves_is_a_violation(self):
        module = _load("bench_store")
        vacuous = {
            "cold_raw_embeds": 0.0,
            "warm_raw_embeds": 0.0,
            "published_rows": 240.0,
            "warm_store_hits": 240.0,
            "identical_output": 1.0,
        }
        assert module.warm_start_violations(vacuous) == ["cold raw embeds != rows published"]

    def test_check_floor_passes_on_a_fresh_record(self, tmp_path, capsys):
        module = _load("bench_store")
        payload = {
            "benchmark": "bench-store",
            "warm_start": module.run_warm_start_benchmark(n_values=120),
        }
        record = tmp_path / "BENCH_store.json"
        module.write_json(payload, str(record))
        assert module.check_floor(str(record)) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_floor_fails_on_a_stale_fast_floor(self, tmp_path):
        module = _load("bench_store")
        payload = {
            "benchmark": "bench-store",
            "warm_start": {"n_values": 120.0, "floor_seconds": 1e-9},
        }
        record = tmp_path / "BENCH_store.json"
        module.write_json(payload, str(record))
        assert module.check_floor(str(record)) == 1


class TestAnnAblationHarness:
    def test_small_run_records_the_acceptance_claims(self, tmp_path):
        module = _load("bench_ablation_ann")
        # probe_values stays small: the >= 5x speedup assert only arms at
        # full scale, and wall-clock ratios are too noisy for a unit test.
        payload = module.run_all(
            n_pairs=80, mixed_pairs=60, top_ks=(1, 3), probe_values=600, exact_values=(300,)
        )
        recall = payload["synonym_recall"]
        # Strict recall improvement at sub-dense cost — the PR's claim.
        assert recall["semantic"]["recall"] > recall["surface"]["recall"]
        assert recall["semantic"]["pairs_scored"] < recall["dense_cells"]
        mixed = payload["mixed_corruption"]
        assert mixed["modes"]["on"]["recall"] > mixed["modes"]["off"]["recall"]
        assert mixed["modes"]["on"]["pairs_scored"] < mixed["dense_cells"]
        probe = payload["probe_speedup"]
        # Byte-identity of the candidate sets is asserted inside the run;
        # the floor recorded here is what --check-floor guards in CI.
        assert probe["identical_pairs"]
        assert probe["floor_seconds"] >= probe["vectorised_seconds"]
        # An identity, not a time: the exact pass equals its loop oracle, and
        # the index it is measured against finds a share of its pairs.
        exact = payload["exact_vs_index"]
        assert exact["identical_to_reference"]
        (row,) = exact["rows"]
        assert set(row["index"]) == {"8", "12", "16"} and row["exact_pairs"] > 0
        assert all(0.0 < run["recall"] <= 1.0 for run in row["index"].values())
        assert row["index"]["8"]["runs_exact_by_default"]
        assert not row["index"]["16"]["runs_exact_by_default"]
        assert module.report(payload)
        written = module.write_json(payload, str(tmp_path / "BENCH_ann.json"))
        assert written.exists()

    def test_check_floor_guards_probe_and_top_k(self, tmp_path, monkeypatch, capsys):
        """``--check-floor`` re-times both the probe and probe + top-k (2x limit each)."""
        module = _load("bench_ablation_ann")
        record = tmp_path / "BENCH_ann.json"
        committed = {"n_values": 600, "floor_seconds": 0.25, "end_to_end_seconds": 1.0}
        module.write_json({"probe_speedup": committed}, str(record))
        assert module.check_floor(str(record)) == 0  # a real, small run is well inside
        assert "probe + top-k floor check" in capsys.readouterr().out
        for current, status in (
            ({"vectorised_seconds": 0.4, "end_to_end_seconds": 1.9}, 0),
            ({"vectorised_seconds": 0.4, "end_to_end_seconds": 2.1}, 1),
            ({"vectorised_seconds": 0.6, "end_to_end_seconds": 1.0}, 1),
        ):
            monkeypatch.setattr(module, "run_probe_speedup_benchmark", lambda current=current, **_: current)
            assert module.check_floor(str(record)) == status

    def test_workloads_are_deterministic(self):
        module = _load("bench_ablation_ann")
        first = module.synonym_vocabulary(30)
        second = module.synonym_vocabulary(30)
        assert first[0] == second[0] and first[1] == second[1]
        mixed_first = module.corruption_workload(40)
        mixed_second = module.corruption_workload(40)
        assert mixed_first[0] == mixed_second[0] and mixed_first[1] == mixed_second[1]

    def test_planted_pairs_share_no_surface(self):
        """The workload's premise: zero surface candidates by construction."""
        from repro.matching.blocking import ValueBlocker

        module = _load("bench_ablation_ann")
        left, right, _ = module.synonym_vocabulary(30)
        blocker = ValueBlocker(use_lexicon=False)
        assert blocker.candidate_pairs(left, right) == []
