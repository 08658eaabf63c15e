"""The traced run: where a request's time goes, layer by layer.

End-to-end metrics are measured with tracing off (``run.py``).  This run
replays the workload's request as ``engine.align`` → ``engine.match`` →
``engine.integrate(MatchStage)`` under a ``request`` span — first on a fresh
engine (cold), then warm, alternating with the untraced one-call form so the
two can be compared — and then times each layer in isolation through its
public functions under a separate ``probe`` root, so a probe is never
mistaken for a child of a request.  A layer is a module under ``src/repro/``
and every metric carries its layer's name.

The spans are recorded here, from outside: the program knows nothing of
them (spans inside ``src/`` are a later change, ROADMAP item 3).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import measure
from measure import OUT, Server, Tally, median, percentile, spread
from repro.core.config import FuzzyFDConfig
from repro.core.engine import IntegrationEngine
from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.matching.ann import SemanticBlocker
from repro.matching.blocking import ValueBlocker
from repro.matching.distance import EmbeddingDistance
from repro.service import IntegrationService
from repro.table.table import Table
from spans import Tracer, duration, self_time_by_name, self_times
from workloads import Workload

#: (group name, the group's columns as the matcher consumes them, their tables)
Group = Tuple[str, List[ColumnValues], List[Table]]


def timed(operation: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    value = operation()
    return time.perf_counter() - start, value


def aligned_groups(engine: IntegrationEngine, tables: Sequence[Table]) -> List[Group]:
    """The multi-table aligned groups of a request, as the match stage sees them."""
    aligned = engine.align(tables)
    by_name = {table.name: table for table in aligned.tables}
    groups = []
    for group in aligned.alignment.multi_table_groups():
        members = [by_name[member.table] for member in group.members]
        columns = []
        for table in members:
            counts: Dict[object, int] = {}
            for value in table.column_values(group.name, dropna=True):
                counts[value] = counts.get(value, 0) + 1
            columns.append(ColumnValues((table.name, group.name), table.distinct_values(group.name), counts))
        if sum(1 for column in columns if column.values) >= 2:
            groups.append((group.name, columns, members))
    return groups


def distinct_values(engine: IntegrationEngine, workload: Workload) -> List[object]:
    """Every distinct value the match stage would embed, over the whole pool."""
    seen: Dict[object, None] = {}
    for tables in workload.requests:
        for _name, columns, _tables in aligned_groups(engine, tables):
            for column in columns:
                seen.update(dict.fromkeys(column.values))
    return list(seen)


def embed_probe(workload: Workload) -> Dict[str, float]:
    """``embeddings``: ``embed_many`` over the pool's values, cold then warm.

    Runs in a child process: the embedders memoise n-gram directions per
    process, so only the first embedding work of a process is cold.
    """
    engine = IntegrationEngine(workload.preset)
    values = distinct_values(engine, workload)
    before = engine.embedding_cache.stats()
    cold_s, _ = timed(lambda: engine.embedder.embed_many(values))
    after = engine.embedding_cache.stats()
    warm_s, _ = timed(lambda: engine.embedder.embed_many(values))
    return {
        "embeddings.cold_embed_many_s": cold_s,
        "embeddings.warm_embed_many_s": warm_s,
        "embeddings.values": len(values),
        "embeddings.raw_calls": after["misses"] - before["misses"],
    }


# -- the request, staged and traced -------------------------------------------------
def staged_pass(engine: IntegrationEngine, workload: Workload, tracer: Tracer, label: str) -> float:
    """One pass over the pool as align → match → FD, each under its span."""
    start = time.perf_counter()
    for index, tables in enumerate(workload.requests):
        with tracer.span("request", request_id=f"{label}-{index}"):
            with tracer.span("schema_matching.align") as span:
                aligned = engine.align(tables)
                span["counts"]["groups"] = len(aligned.alignment.multi_table_groups())
            with tracer.span("core.match") as span:
                matched = engine.match(aligned, **workload.overrides)
                span["counts"].update(
                    rewrites=matched.rewrites_applied(),
                    cache_hits=matched.timings.get("cache_hits", 0.0),
                    cache_misses=matched.timings.get("cache_misses", 0.0),
                )
            with tracer.span("fd.integrate") as span:
                result = engine.integrate(matched, **workload.overrides)
                statistics = result.fd_result.statistics
                span["counts"].update(
                    input_tuples=result.fd_result.input_tuple_count,
                    output_tuples=result.table.num_rows,
                    outer_union_tuples=statistics.get("outer_union_tuples", 0.0),
                    comparisons=statistics.get("complementation_comparisons", 0.0),
                )
    return time.perf_counter() - start


def request_breakdown(tracer: Tracer, label: str, passes: int) -> Dict[str, float]:
    """Seconds per pass of each stage, and the counts, of the ``label`` requests.

    ``gap_s`` is the request spans' self time: what the request spent outside
    the three stage spans.
    """
    totals: Dict[str, float] = {"gap_s": 0.0}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if not (span["request_id"] or "").startswith(label):
            continue
        key = f"{span['name']}_s"
        totals[key] = totals.get(key, 0.0) + duration(span)
        if span["name"] == "request":
            totals["gap_s"] += own
        for name, value in span["counts"].items():
            totals[name] = totals.get(name, 0.0) + value
    return {name: value / passes for name, value in totals.items()}


# -- the layers in isolation ---------------------------------------------------------
def matcher_like(engine: IntegrationEngine) -> ValueMatcher:
    """The matcher the engine builds for its own config."""
    config = engine.config
    return ValueMatcher(
        embedder=engine.embedder, threshold=config.threshold, solver=engine.solver,
        representative_policy=config.representative_policy, exact_first=config.exact_first,
        blocking=config.blocking, blocking_cutoff=config.blocking_cutoff,
        blocking_key_cap=config.blocking_key_cap, semantic_blocking=config.semantic_blocking,
        ann_tables=config.ann_tables, ann_bits=config.ann_bits, ann_top_k=config.ann_top_k,
        ann_index=config.ann_index, max_workers=config.max_workers,
        parallel_backend=config.parallel_backend, degraded_mode=config.degraded_mode,
    )


def matching_probe(engine: IntegrationEngine, group: Group, tracer: Tracer) -> Dict[str, float]:
    """``matching`` and ``table`` on the largest aligned group, warm cache.

    The blockers are built as ``ValueMatcher`` builds them for this engine's
    config, not with hand-picked parameters.
    """
    name, columns, tables = group
    config = engine.config
    left, right = columns[0].values, columns[1].values
    with tracer.span("matching.surface_pairs"):
        surface_s, surface = timed(
            lambda: ValueBlocker(frequent_key_cap=config.blocking_key_cap).candidate_pairs(left, right)
        )
    semantic = SemanticBlocker(
        engine.embedder, top_k=config.ann_top_k, n_tables=config.ann_tables, n_bits=config.ann_bits,
        min_similarity=max(0.0, 1.0 - config.threshold), ann_index=config.ann_index,
    )
    with tracer.span("matching.ann_pairs"):
        ann_s, ann = timed(lambda: semantic.candidate_pairs(left, right))
    matcher = matcher_like(engine)
    with tracer.span("matching.match_columns"):
        match_s, result = timed(lambda: matcher.match_columns(columns))
    cost = EmbeddingDistance(engine.embedder).matrix(left, right)
    with tracer.span("matching.solve"):
        solve_s, _ = timed(lambda: engine.solver.solve(cost))
    statistics = result.statistics
    scored = statistics.get("blocking_pairs_scored", 0.0)
    avoided = statistics.get("blocking_pairs_avoided", 0.0)
    if not scored:
        # The dense matcher reports no counters: it scores every cell of
        # (values so far) × (next column), bounded here from the column sizes.
        seen = len(columns[0])
        for column in columns[1:]:
            scored += seen * len(column)
            seen += len(column)
    with tracer.span("table.distinct_values"):
        distinct_s, _ = timed(lambda: [table.distinct_values(name) for table in tables])
    mappings = [result.rewrite_map(column.column_id) for column in columns]
    with tracer.span("table.replace_values"):
        replace_s, _ = timed(
            lambda: [table.replace_values(name, mapping) for table, mapping in zip(tables, mappings)]
        )
    return {
        "matching.surface_pairs_s": surface_s,
        "matching.surface_pairs": len(surface),
        "matching.ann_pairs_s": ann_s,
        "matching.ann_pairs_added": len(set(ann) - set(surface)),
        "matching.match_s": match_s,
        "matching.solve_s": solve_s,
        "matching.pairs_scored": scored,
        "matching.pairs_avoided_ratio": avoided / (scored + avoided),
        # Zero or absent when blocking did not engage: one dense component.
        "matching.components": statistics.get("blocking_components") or 1.0,
        "matching.largest_component": statistics.get("blocking_largest_component") or scored,
        "matching.accept_ratio": statistics["accepted_matches"] / scored,
        "table.distinct_values_s": distinct_s,
        "table.replace_values_s": replace_s,
    }


def storage_probe(workload: Workload, values: Sequence[object], store_dir: Any, tracer: Tracer) -> Dict[str, float]:
    """``storage``: publish the pool's embeddings, attach them, read them back."""
    config = FuzzyFDConfig.preset(workload.preset).replace(store_dir=str(store_dir), store_mode="readwrite")
    with IntegrationEngine(config) as writer:
        writer.embedder.embed_many(values)
        with tracer.span("storage.publish"):
            publish_s, published = timed(writer.save)
    with tracer.span("storage.attach"):
        attach_s, reader = timed(lambda: IntegrationEngine(config))
    with reader:
        reader.embedder.embed_many(values)
        cache = reader.embedding_cache.stats()
    rows = published["embedding_rows"]
    stored = sum(path.stat().st_size for path in store_dir.rglob("*") if path.is_file())
    lookups = cache["store_hits"] + cache["store_misses"]
    return {
        "storage.publish_s": publish_s,
        "storage.published_rows": rows,
        "storage.attach_s": attach_s,
        "storage.store_hit_ratio": cache["store_hits"] / lookups if lookups else 0.0,
        "storage.bytes_per_value": stored / rows if rows else 0.0,
    }


def service_probe(
    engine: IntegrationEngine, workload: Workload, store_dir: Any, log_dir: Any,
    direct: measure.PassOutput, seconds: float, tally: Tally, tracer: Tracer,
) -> Dict[str, float]:
    """``service``: the pool through the in-process service, then over HTTP.

    The HTTP leg is a real ``repro serve`` booted on the store the storage
    probe published, so no request reaches the raw embedder.  One untimed
    pass warms the server process; on the batch workloads one timed pass
    follows, on the served workload a closed loop.
    """
    service = IntegrationService(engine)

    async def through_service() -> List[float]:
        latencies = []
        for tables in workload.requests:
            start = time.perf_counter()
            response = await service.integrate(tables)
            latencies.append(time.perf_counter() - start)
            if response.status != "ok":
                tally.problem(f"in-process service answered {response.status}")
        return latencies

    with tracer.span("service.inproc"):
        inproc = asyncio.run(through_service())
    bodies = [measure.request_body(tables) for tables in workload.requests]
    with tracer.span("service.http"):
        with Server(workload.preset, store_dir, log_dir / "serve.log") as server:
            for index, body in enumerate(bodies):
                measure.post_integrate(server, index, body, direct.digests[index], tally)
            samples, _wall = measure.closed_loop(server, bodies, direct.digests, tally, seconds)
            stats = json.loads(server.call("GET", "/stats")[1])
    if not samples:
        raise RuntimeError("no served request completed")
    latencies = [sample.latency_s for sample in samples]
    return {
        "service.engine_s": median([sample.total_s - sample.queue_wait_s for sample in samples]),
        "service.queue_wait_s": median([sample.queue_wait_s for sample in samples]),
        "service.http_overhead_s": median([sample.latency_s - sample.total_s for sample in samples]),
        "service.inproc_latency_s": median(inproc),
        "service.latency_p50_s": median(latencies),
        "service.latency_p95_s": percentile(latencies, 95),
        "service.latency_p99_s": percentile(latencies, 99),
        "service.request_bytes": sum(len(body) for body in bodies) / len(bodies),
        "service.response_bytes": sum(sample.response_bytes for sample in samples) / len(samples),
        "service.rejected": stats.get("rejected", 0),
        "service.warm_raw_embed_calls": sum(sample.raw_embed_calls for sample in samples),
    }


# -- the run ------------------------------------------------------------------------
def traced_run(
    workload: Workload, seed: int, smoke: bool, seconds: float, tally: Tally
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every per-layer metric of one workload, and the details to record."""
    tracer = Tracer()
    values: Dict[str, float] = dict(measure.run_child("embed", workload.name, seed, smoke))
    scratch = measure.scratch_dir("trace")
    try:
        with IntegrationEngine(workload.preset) as engine:
            # Nothing has embedded in this process yet, so this pass is cold.
            cold_s = staged_pass(engine, workload, tracer, "cold")
            untraced: List[float] = []
            per_request: List[float] = []
            staged: List[float] = []
            reference = None
            start = time.perf_counter()
            while len(staged) < 2 or time.perf_counter() - start < seconds / 4:
                results = []
                begin = time.perf_counter()
                for tables in workload.requests:
                    request_s, result = timed(lambda: engine.integrate(tables, **workload.overrides))
                    per_request.append(request_s)
                    results.append(result)
                untraced.append(time.perf_counter() - begin)
                tally.attempted += 1
                output = measure.check_pass(workload, results)
                reference = reference or output
                if output.digests != reference.digests:
                    tally.problem("warm passes integrated to different tables")
                staged.append(staged_pass(engine, workload, tracer, "warm"))
            with tracer.span("probe", request_id="probe"):
                groups = [group for tables in workload.requests for group in aligned_groups(engine, tables)]
                largest = max(groups, key=lambda group: sum(len(column) for column in group[1]))
                values.update(matching_probe(engine, largest, tracer))
                with tracer.span("core.preset_workers"):
                    preset_workers_s, _ = timed(
                        lambda: [engine.integrate(tables) for tables in workload.requests]
                    )
                with tracer.span("fd.regular"):
                    regular_s, _ = timed(lambda: measure.integrate_pool(engine, workload, fuzzy=False))
                if workload.preset == "paper":
                    paper_s = median(untraced)
                else:
                    # Shares the warm embedder, so only the preset differs.
                    paper = FuzzyFDConfig.preset("paper").replace(embedder=engine.embedder)
                    with IntegrationEngine(paper) as paper_engine, tracer.span("core.paper_preset"):
                        paper_s, _ = timed(lambda: measure.integrate_pool(paper_engine, workload))
                values.update(storage_probe(workload, distinct_values(engine, workload), scratch / "store", tracer))
                http_seconds = seconds / 4 if workload.mode == "serve" else 0.0
                values.update(
                    service_probe(engine, workload, scratch / "store", scratch, reference, http_seconds, tally, tracer)
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cold = request_breakdown(tracer, "cold", 1)
    warm = request_breakdown(tracer, "warm", len(staged))
    # The shares describe the request the workload times: the cold one for
    # the cold workload, the warm one for the others.
    main = cold if workload.mode == "cold" else warm
    lookups = main["cache_hits"] + main["cache_misses"]
    values.update(
        {
            "schema_matching.align_s": main["schema_matching.align_s"],
            "schema_matching.groups": main["groups"],
            "embeddings.cache_hit_ratio": main["cache_hits"] / lookups if lookups else 0.0,
            "core.match_stage_s": main["core.match_s"],
            "core.match_share": main["core.match_s"] / main["request_s"],
            "core.rewrites": main["rewrites"],
            "core.stage_gap_s": main["gap_s"],
            "core.cold_request_s": cold_s,
            "core.preset_workers_s": preset_workers_s,
            "core.paper_preset_s": paper_s,
            "fd.integrate_s": main["fd.integrate_s"],
            "fd.share": main["fd.integrate_s"] / main["request_s"],
            "fd.input_tuples": main["input_tuples"],
            "fd.output_tuples": main["output_tuples"],
            "fd.outer_union_tuples": main["outer_union_tuples"],
            "fd.comparisons": main["comparisons"],
            "fd.regular_s": regular_s,
            "fd.fuzzy_overhead_ratio": median(untraced) / regular_s,
            "service.direct_latency_s": median(per_request),
            "service.overhead_share": 1.0 - median(per_request) / values["service.latency_p50_s"],
            # Minima: the slow passes of a disturbed machine say nothing
            # about what the spans cost.
            "bench.trace_overhead_ratio": min(staged) / min(untraced),
            "bench.round_spread": spread(untraced),
        }
    )
    tracer.write(OUT / f"trace-{workload.name}.json")
    details = {
        "passes": len(staged), "untraced_pass_s": untraced, "staged_pass_s": staged,
        "cold_breakdown": cold, "warm_breakdown": warm,
        "probe_self_s": self_time_by_name(tracer.spans, "probe"),
    }
    print_breakdown(workload, cold, warm, details["probe_self_s"])
    return values, details


def print_breakdown(workload: Workload, cold: Dict[str, float], warm: Dict[str, float], probes: Dict[str, float]) -> None:
    """Seconds and share per layer of the request, cold and warm, and the probes."""
    print(f"per-layer breakdown of {workload.name} (seconds per pass over the pool, share of the request)")
    for label, breakdown in (("cold", cold), ("warm", warm)):
        total = breakdown["request_s"]
        for stage in ("schema_matching.align", "core.match", "fd.integrate", "gap"):
            seconds = breakdown[f"{stage}_s"]
            print(f"  {label:4s} {stage:24s} {seconds:10.4f} s {seconds / total:7.1%}")
        print(f"  {label:4s} {'request':24s} {total:10.4f} s")
    for name, seconds in sorted(probes.items()):
        print(f"  probe {name:24s} {seconds:10.4f} s (self time)")
