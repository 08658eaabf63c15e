"""Tier-1 checks of the pipeline benchmark's own machinery (no timing asserts).

Generator determinism, ``BENCHMARK.json`` against the names the code prints
and against the limits of the benchmark contract, span self-time arithmetic,
the compare verdicts, and one real cold pass in a fork so the gold's column ids
cannot drift away from the engine's unnoticed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def run_module():
    """``run.py`` imported; it pins BLAS threads in ``os.environ``, restored here."""
    saved = dict(os.environ)
    import run

    yield run
    os.environ.clear()
    os.environ.update(saved)


# -- generators ---------------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_tables(name):
    first = workloads.build(name, 5, workloads.SMOKE)
    again = workloads.build(name, 5, workloads.SMOKE)
    other = workloads.build(name, 6, workloads.SMOKE)
    assert workloads.input_digest(first) == workloads.input_digest(again)
    assert workloads.input_digest(first) != workloads.input_digest(other)
    assert len(first.gold) == len(first.requests)


@pytest.mark.parametrize("name", ["imdb_equi", "autojoin_cold", "lake_mixed"])
def test_seed_changes_values_not_shape(name):
    shapes = {
        tuple(tuple((table.num_rows, table.num_columns) for table in request) for request in workload.requests)
        for workload in (workloads.build(name, seed, workloads.SMOKE) for seed in (1, 2, 3))
    }
    assert len(shapes) == 1


def test_rows_digest_ignores_order_and_null_flavour():
    from repro.table.nulls import NULL

    one = workloads.rows_digest(["a", "b"], [("x", NULL), ("y", 1)])
    two = workloads.rows_digest(["b", "a"], [[1, "y"], [None, "x"]])
    assert one == two
    assert one != workloads.rows_digest(["a", "b"], [("x", NULL), ("y", 2)])


# -- BENCHMARK.json -----------------------------------------------------------------
def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])


def test_spec_echoes_the_workloads():
    assert [(entry["name"], entry["why"]) for entry in SPEC["workloads"]] == [
        (name, why) for name, (_generator, why) in workloads.WORKLOADS.items()
    ]


def test_spec_names_are_the_names_the_code_prints(run_module):
    output = run_module.PassOutput(digests=[], f1=1.0, precision=1.0, recall=1.0, rewrites=0)
    printed = run_module.end_to_end([1.0], 1.0, 1, 1, 1.0, 1.0, output)
    assert list(printed) == [entry["name"] for entry in SPEC["end_to_end"]]
    layer_names = {path.name for path in (ROOT / "src" / "repro").iterdir() if path.is_dir()} | {"bench"}
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    assert {name.split(".")[0] for name in declared} <= layer_names
    source = (HERE / "layers.py").read_text() + (HERE / "run.py").read_text()
    pattern = r'"((?:%s)\.[a-z0-9_]+)"\]?\s*[:=]' % "|".join(sorted(layer_names))
    assert set(re.findall(pattern, source)) == declared


# -- spans --------------------------------------------------------------------------
def toy(name, start, end, parent, request_id="r"):
    return {"name": name, "start_s": start, "end_s": end, "parent": parent, "request_id": request_id, "counts": {}}


def test_self_time_subtracts_the_union_of_the_children():
    trace = [
        toy("request", 0.0, 10.0, None),
        toy("a", 1.0, 4.0, 0),
        toy("b", 3.0, 6.0, 0),  # overlaps a: the union 1–6 counts once
        toy("c", 8.0, 11.0, 0),  # runs past its parent: clipped at 10
        toy("leaf", 1.5, 2.5, 1),
        toy("probe", 20.0, 21.0, None, "probe"),
    ]
    own = spans.self_times(trace)
    assert own == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 3.0, 1.0, 1.0])
    assert spans.self_time_by_name(trace, "request") == pytest.approx(
        {"request": 3.0, "a": 2.0, "b": 3.0, "c": 3.0, "leaf": 1.0}
    )
    assert spans.self_time_by_name(trace, "probe") == pytest.approx({"probe": 1.0})


def test_tracer_nests_and_inherits_the_request_id():
    tracer = spans.Tracer()
    with tracer.span("request", request_id="warm-0"):
        with tracer.span("core.match") as inner:
            inner["counts"]["rewrites"] = 3
    assert [span["parent"] for span in tracer.spans] == [None, 0]
    assert [span["request_id"] for span in tracer.spans] == ["warm-0", "warm-0"]
    assert tracer.spans[0]["end_s"] >= tracer.spans[1]["end_s"] >= tracer.spans[1]["start_s"]


# -- compare ------------------------------------------------------------------------
def item(values):
    ordered = sorted(values)
    middle = ordered[len(ordered) // 2]
    return {"values": values, "median": middle, "spread": (ordered[-2] - ordered[1]) / middle}


@pytest.mark.parametrize(
    "base, candidate, better, expected",
    [
        ([1.0, 1.01, 1.02, 0.99, 1.0], [1.03, 1.02, 1.04, 1.03, 1.05], "lower", "same"),
        ([1.0, 1.01, 1.02, 0.99, 1.0], [1.3, 1.31, 1.3, 1.29, 1.3], "lower", "worse"),
        ([1.0, 1.01, 1.02, 0.99, 1.0], [1.3, 1.31, 1.3, 1.29, 1.3], "higher", "better"),
        ([1.0, 1.2, 1.4, 0.8, 1.0], [1.1, 1.3, 0.9, 1.2, 1.1], "lower", "unresolved"),
        ([1.0, 1.2, 1.4, 0.8, 1.0], [0.5, 0.6, 0.7, 0.4, 0.5], "lower", "better"),
    ],
)
def test_verdicts(base, candidate, better, expected):
    assert compare.verdict(item(base), item(candidate), better, 0.1, exempt=False) == expected


def test_setup_spread_is_exempt():
    wide = item([1.0, 1.2, 1.4, 0.8, 1.0])
    assert compare.verdict(wide, wide, "lower", 0.1, exempt=True) == "same"


# -- one real pass ------------------------------------------------------------------
def in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``measure.forked`` forks; pytest's own process may hold threads, so the
    fork happens in an interpreter of its own, under a timeout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=HERE)


def test_forked_cold_pass_scores_against_the_gold():
    done = in_fresh_interpreter(
        "import json, run, workloads\n"
        "workload = workloads.build('autojoin_cold', 3, workloads.SMOKE)\n"
        "print(json.dumps(run.measure.forked(lambda: run.cold_pass(workload))))\n"
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.strip().splitlines()[-1])
    assert child["seconds"] > 0 and child["rss_mb"] > 0
    assert len(child["output"]["digests"]) == workloads.SMOKE.autojoin_sets
    # Gold and engine must name columns alike, or nothing would ever match.
    assert child["output"]["f1"] > 0.5 and child["output"]["rewrites"] > 0


def test_a_failing_fork_is_an_error():
    done = in_fresh_interpreter("import measure\nmeasure.forked(lambda: 1 / 0)\n")
    assert done.returncode != 0 and "forked operation ended" in done.stderr
