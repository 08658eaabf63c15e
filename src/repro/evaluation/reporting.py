"""Plain-text / markdown report formatting for the experiments and request reports."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.evaluation.metrics import MatchingScores
from repro.obs import ANY, SOURCES, STORAGE, TRACED


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple GitHub-flavoured markdown table."""
    cells = [[str(header) for header in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [max(len(row[index]) for row in cells) for index in range(len(headers))]

    def render(row: Sequence[str]) -> str:
        return "| " + " | ".join(value.ljust(width) for value, width in zip(row, widths)) + " |"

    lines = [render(cells[0]), "|" + "|".join("-" * (width + 2) for width in widths) + "|"]
    lines.extend(render(row) for row in cells[1:])
    return "\n".join(lines)


def format_scores_table(scores_by_model: Mapping[str, MatchingScores], label: str = "Model") -> str:
    """Render Table 1's layout: Model | Precision | Recall | F1-Score."""
    rows: List[List[object]] = []
    for model, scores in scores_by_model.items():
        rows.append(
            [model, f"{scores.precision:.2f}", f"{scores.recall:.2f}", f"{scores.f1:.2f}"]
        )
    return format_markdown_table([label, "Precision", "Recall", "F1-Score"], rows)


def format_component_histogram(source, width: int = 30) -> str:
    """Render the blocked matcher's component-size distribution.

    ``source`` is a :class:`~repro.matching.blocking.BlockingStatistics`
    (its :meth:`component_size_histogram` is used), a ``label -> count``
    mapping, or a :class:`~repro.core.value_matching.ValueMatchingResult`-style
    statistics dict carrying ``blocking_component_size_<label>`` keys.  The
    distribution tells you where the matching work lives: a mass of 1-cell
    components favours the vectorised singleton path, a fat tail means the
    assignment solver (and the executor's batch balancing) dominates — which
    is what guides ``blocking_cutoff`` and batch-size tuning.
    """
    buckets = SOURCES["histogram"]  # bucket label -> its counter, smallest first
    histogram = getattr(source, "component_size_histogram", None)
    counts = histogram() if callable(histogram) else source
    if isinstance(counts, Mapping) and any(counter.name in counts for counter in buckets.values()):
        counts = {label: counts.get(counter.name, 0) for label, counter in buckets.items()}
    if not isinstance(counts, Mapping) or not set(map(str, counts)) <= set(buckets):
        # A statistics dict from a non-blocked run (or any other mapping)
        # has no component distribution; rendering its unrelated counters as
        # a histogram would be actively misleading.
        raise ValueError(
            "source carries no component-size distribution: expected "
            "BlockingStatistics, a statistics dict with "
            f"'blocking_component_size_*' keys, or a mapping over the buckets {list(buckets)}"
        )
    total = sum(counts.values())
    peak = max(counts.values(), default=0)
    rows = []
    # Render in bucket order (smallest to largest), not the mapping's
    # iteration order — a stats dict reloaded from sorted JSON iterates
    # alphabetically — and keep every bucket present even when empty.
    for label in buckets:
        count = int(counts.get(label, 0))
        bar = "#" * (round(width * count / peak) if peak else 0)
        share = f"{100.0 * count / total:.1f}%" if total else "-"
        rows.append([label, count, share, bar])
    return format_markdown_table(["Component cells", "Count", "Share", "Histogram"], rows)


def format_cache_statistics(source: Mapping[str, float]) -> str:
    """Render the cache / store counters of one request.

    ``source`` is a ``FuzzyIntegrationResult.timings`` (or a
    ``ValueMatchingResult.statistics``) dict; its storage counters
    (:data:`repro.obs.STORAGE`) tell which tier answered each vector lookup
    (a warm start: every one from the store, zero misses), how many ANN
    indexes were built, and what the store published or quarantined.  Absent counters render as 0 only when at least one is
    present: a dict with none raises rather than claim "no cache activity"
    for a run that predates the counters.
    """
    if not any(counter.name in source for counter in STORAGE):
        raise ValueError(
            "source carries no cache or store counters (cache_*, ann_index_*, "
            "store_*); pass a FuzzyIntegrationResult.timings or "
            "ValueMatchingResult.statistics dict from a storage-aware run"
        )
    rows = [
        [counter.label, f"{float(source.get(counter.name, 0.0)):,.0f}"] for counter in STORAGE
    ]
    served = float(source.get("cache_hits", 0.0)) + float(source.get("cache_store_hits", 0.0))
    lookups = served + float(source.get("cache_misses", 0.0))
    if lookups:
        rows.append(["Lookups served without raw embed", f"{100.0 * served / lookups:.1f}%"])
    return format_markdown_table(["Counter", "Value"], rows)


def format_request_trace(trace) -> str:
    """Render a service :class:`~repro.service.RequestTrace` as markdown.

    ``trace`` is the trace object itself or its :meth:`to_dict` form.  The
    report has two sections: the latency breakdown (queue wait, then each
    pipeline stage in execution order, then the total) and the traced
    counters (:data:`repro.obs.TRACED`) followed by the raw embed calls.  A
    partial trace from a ``DeadlineExceeded`` response renders the stages
    that finished — the report never invents entries for stages that did
    not run.
    """
    data = trace.to_dict() if hasattr(trace, "to_dict") else dict(trace)
    if "stage_seconds" not in data:
        raise ValueError(
            "trace carries no stage_seconds — pass a RequestTrace (or its "
            "to_dict()) from a service response"
        )
    rows: List[List[object]] = [
        ["Queue wait", f"{float(data.get('queue_wait_seconds', 0.0)) * 1000.0:.1f} ms"]
    ]
    for stage, seconds in data["stage_seconds"].items():
        rows.append([f"Stage: {stage}", f"{float(seconds) * 1000.0:.1f} ms"])
    rows.append(["Total", f"{float(data.get('total_seconds', 0.0)) * 1000.0:.1f} ms"])
    deadline = data.get("deadline_ms")
    if deadline is not None:
        rows.append(["Deadline budget", f"{float(deadline):.0f} ms"])
    for counter in TRACED:
        value = data.get(counter.trace, 0.0)
        shown = ("yes" if value else "no") if counter.merge == ANY else f"{float(value):,.0f}"
        rows.append([counter.label, shown])
    rows.append(["Raw embed calls", f"{float(data.get('raw_embed_calls', 0.0)):,.0f}"])
    header = f"request {data.get('request_id', '?')} — status: {data.get('status', '?')}"
    return header + "\n" + format_markdown_table(["Field", "Value"], rows)


def format_runtime_series(points: Sequence) -> str:
    """Render the Figure 3 series: size | regular FD seconds | fuzzy FD seconds."""
    by_size: Dict[int, Dict[str, float]] = {}
    for point in points:
        by_size.setdefault(point.input_tuples, {})[point.method] = point.seconds
    rows = []
    for size in sorted(by_size):
        methods = by_size[size]
        rows.append(
            [
                size,
                f"{methods.get('regular_fd', float('nan')):.2f}",
                f"{methods.get('fuzzy_fd', float('nan')):.2f}",
            ]
        )
    return format_markdown_table(
        ["Input tuples", "ALITE (regular FD) seconds", "Fuzzy FD seconds"], rows
    )
