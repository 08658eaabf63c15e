"""The counter vocabulary (:mod:`repro.obs`) and the views derived from it.

Five fixed requests — the ``scale`` one cold and warm — were recorded in
``obs_snapshot.json`` before the matcher statistics, ``result.timings``, the
request trace and ``/stats`` became views of one declaration per counter.
``observe`` serves them again through an :class:`IntegrationService` and
keeps, per request, every group's ``ValueMatchingResult.statistics``, the
result's ``timings``, the trace's ``to_dict()`` and the service's
``stats().to_dict()``, minus what is a wall clock (``*_seconds`` keys, stage
times, latencies) or a process id.  Run this file to print them.

The rest checks the vocabulary is closed: every key those views carry is
declared, every traced counter reaches the trace, its report and the docs,
and every ``BlockingStatistics`` counter field has its declaration.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.core import FuzzyFDConfig
from conftest import DownEmbedder
from repro.evaluation import format_cache_statistics, format_request_trace
from repro.matching.blocking import BlockingStatistics
from repro.service import IntegrationService, RequestTrace
from repro.table import Table

HERE = Path(__file__).resolve().parent
SNAPSHOT = HERE / "obs_snapshot.json"

TABLES = [
    Table(
        "T1",
        ["City", "Country"],
        [("Berlinn", "Germany"), ("Toronto", "Canada"), ("Barcelona", "Spain"), ("New Delhi", "India")],
    ),
    Table(
        "T2",
        ["Country", "City", "VaxRate"],
        [("CA", "Toronto", "83%"), ("DE", "Berlin", "63%"), ("ES", "barcelona", "81%"), ("US", "Boston", "62%")],
    ),
    Table(
        "T3",
        ["City", "Country", "Cases"],
        [("Berlin", "Germany", "1.2M"), ("Delhi", "India", "2.0M"), ("Toronto", "Canada", "0.4M")],
    ),
]

#: The trace key that named two things: it carried the count of LSH→IVF
#: fallbacks, while ``BlockingStatistics.ann_bucket_skew`` is a bucket share.
RENAMED_TRACE_KEYS = {"ann_bucket_skew": "ann_skew_fallbacks"}
#: Traced counters the recorded trace summed from the groups' statistics
#: although ``timings`` did not carry them.  The trace now reads every traced
#: counter from ``timings``, so ``timings`` carries them wherever the semantic
#: channel is configured.
TIMINGS_NOW_CARRY = ("blocking_ann_probe_candidates", "blocking_ann_skew_fallbacks")
#: ``BlockingStatistics`` fields that describe a column pair and are not counters.
DESCRIPTIVE_FIELDS = {
    "left_values",
    "right_values",
    "candidate_pairs",
    "component_cells",  # counted as the component-size histogram
    "ann_index_kind",
    "ann_bucket_skew",  # a share, not a count
}
#: ``RequestTrace.to_dict()`` keys that are not counters.
TRACE_FIELDS = {"request_id", "status", "stage_seconds", "queue_wait_seconds", "total_seconds", "deadline_ms"}


def _hard_down(degraded_mode: str) -> FuzzyFDConfig:
    """An engine config whose embedder's backend is down."""
    return FuzzyFDConfig(embedder=DownEmbedder(), degraded_mode=degraded_mode)


def _untimed(counts) -> dict:
    return {key: value for key, value in counts.items() if not key.endswith("_seconds")}


def _serve(config: FuzzyFDConfig) -> dict:
    async def main():
        async with IntegrationService(config) as service:
            return await service.integrate(TABLES), service.stats().to_dict()

    response, stats = asyncio.run(main())
    for key in ("latency_p50_seconds", "latency_p99_seconds"):
        del stats[key]
    for entry in stats["per_process"]:
        del entry["pid"]
    observed = {"status": response.status, "stats": stats}
    if response.status == "ok":
        trace = response.trace.to_dict()
        trace["stage_seconds"] = list(trace["stage_seconds"])
        for key in ("queue_wait_seconds", "total_seconds"):
            del trace[key]
        observed.update(
            statistics={
                group: _untimed(result.statistics)
                for group, result in response.result.value_matching.items()
            },
            timings=_untimed(response.result.timings),
            trace=trace,
        )
    return observed


@functools.lru_cache(maxsize=None)
def observe() -> dict:
    """The six observations: five requests, the ``scale`` one cold and warm."""
    with tempfile.TemporaryDirectory() as store_dir:
        scale = FuzzyFDConfig.preset("scale").replace(store_dir=store_dir)
        return {
            "paper": _serve(FuzzyFDConfig.preset("paper")),
            "semantic": _serve(FuzzyFDConfig(blocking="on", semantic_blocking="on")),
            "scale_cold": _serve(scale),
            "scale_warm": _serve(scale),
            "degraded": _serve(_hard_down("surface")),
            "fail": _serve(_hard_down("off")),
        }


def expected() -> dict:
    """The recorded observations with the two deliberate changes applied."""
    recorded = json.loads(SNAPSHOT.read_text())
    for request in recorded.values():
        if "trace" in request:
            request["trace"] = {
                RENAMED_TRACE_KEYS.get(key, key): value for key, value in request["trace"].items()
            }
        if "blocking_ann_pairs_added" in request.get("timings", {}):
            for name in TIMINGS_NOW_CARRY:
                request["timings"][name] = sum(
                    statistics[name] for statistics in request["statistics"].values()
                )
    return recorded


def test_the_recorded_requests_observe_the_same_counters():
    assert observe() == expected()


def test_every_observed_counter_is_declared():
    for name, request in observe().items():
        for statistics in request.get("statistics", {}).values():
            assert set(statistics) <= set(obs.BY_NAME), name
        assert set(request.get("timings", {})) <= obs.REQUEST, name
        if "trace" in request:
            traced = {counter.trace for counter in obs.TRACED} | {"raw_embed_calls"}
            assert set(request["trace"]) - TRACE_FIELDS == traced, name
        row_counters = set(obs.ROW_COUNTERS) - {"requests_served"}
        assert row_counters <= set(request["stats"]), name
        stats = request["stats"]
        outcomes = sum(stats[outcome] for outcome in obs.TERMINAL_OUTCOMES)
        assert stats["submitted"] == outcomes + stats["in_flight"], name


def test_the_declarations_are_well_formed():
    assert len(obs.BY_NAME) == len(obs.COUNTERS)
    traced = [counter.trace for counter in obs.TRACED]
    assert len(set(traced)) == len(traced)
    for counter in obs.COUNTERS:
        # A counter in timings must never be summed into total_seconds.
        assert not counter.name.endswith("_seconds"), counter
        assert counter.merge in (obs.SUM, obs.MAX, obs.ANY), counter
        assert counter.route in (None, obs.MATCH, obs.BLOCKING, obs.SEMANTIC), counter
        assert counter.request or not counter.trace, counter  # the trace reads timings
    for counter in obs.TRACED + obs.STORAGE:
        assert counter.label, counter


def test_every_traced_counter_reaches_the_trace_and_its_report():
    trace = RequestTrace(request_id=7)
    payload = trace.to_dict()
    report = format_request_trace(trace)
    for counter in obs.TRACED:
        assert counter.trace in payload
        assert getattr(trace, counter.trace) == payload[counter.trace]
        assert counter.label in report
    storage = format_cache_statistics({"cache_hits": 1.0})
    for counter in obs.STORAGE:
        assert counter.label in storage


def test_every_blocking_statistics_counter_field_is_declared():
    fields = {field.name for field in dataclasses.fields(BlockingStatistics)}
    declared = set(obs.SOURCES["pair"])
    assert fields - DESCRIPTIVE_FIELDS <= declared
    assert all(hasattr(BlockingStatistics(1, 1, 1), key) for key in declared)


def test_the_service_docs_list_every_traced_counter():
    text = (HERE.parent / "docs" / "service.md").read_text()
    section = text.split("## The trace", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented |= set(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    traced = {counter.trace for counter in obs.TRACED} | {"raw_embed_calls"}
    assert documented - TRACE_FIELDS == traced


def test_merge_follows_each_rule_and_refuses_undeclared_names():
    into = obs.merge({}, {"cache_hits": 2, "blocking_largest_component": 5, "degraded": 0})
    obs.merge(into, {"cache_hits": 3, "blocking_largest_component": 4, "degraded": 1})
    assert into == {"cache_hits": 5.0, "blocking_largest_component": 5.0, "degraded": 1.0}
    with pytest.raises(KeyError):
        obs.merge(into, {"not_a_counter": 1})
    assert obs.delta({"cache_hits": 4.0}, {"cache_hits": 6.0, "cache_misses": 1.0}) == {
        "cache_hits": 2.0,
        "cache_misses": 1.0,
    }


if __name__ == "__main__":  # prints the observations (the recorded file's format)
    json.dump(observe(), sys.stdout, indent=1, sort_keys=True)
    print()
