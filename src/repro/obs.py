"""The request counters, each declared once.

A :class:`Counter` line names a counter's key in
``ValueMatchingResult.statistics`` and — unless ``request`` is false, for
counters of one aligned column group — in ``FuzzyIntegrationResult.timings``;
its merge rule; the matcher route that always reports it (as 0 when no column
pair took the route); the ``"<source>.<key>"`` it is read from (a cumulative
counter or a ``BlockingStatistics`` field, see :func:`read`); its key in the
service's ``RequestTrace``; and its report label.  Every layer is a view of
these lines: the value matcher folds column pairs and snapshot deltas with
:func:`merge` / :func:`delta`, the engine merges the groups' request counters
into ``timings``, the trace reads the traced ones from ``timings``, and the
renderers take their rows and labels from here.  The serving layer's
scoreboard row counters are declared here too.

Imports nothing from the package: the one-shot request path loads it.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

#: Merge rules: summed, the larger kept, or a flag set if any value is.
SUM, MAX, ANY = "sum", "max", "any"
#: Matcher routes: always, when blocking is on, when the ANN channel is too.
MATCH, BLOCKING, SEMANTIC = "match", "blocking", "semantic"

#: ``BlockingStatistics`` component-size histogram buckets:
#: ``(label, inclusive upper bound on cost-matrix cells)``, ``None`` unbounded.
COMPONENT_SIZE_BUCKETS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("1", 1), ("2-4", 4), ("5-16", 16), ("17-64", 64), ("65-256", 256), ("257-1024", 1024),
    (">1024", None),
)


class Counter(NamedTuple):
    """One declared counter; the module docstring describes its fields."""

    name: str
    merge: str = SUM
    request: bool = True
    route: Optional[str] = None
    source: Optional[str] = None
    trace: Optional[str] = None
    label: Optional[str] = None


MATCHING: Tuple[Counter, ...] = (
    Counter("columns", request=False, route=MATCH),
    Counter("values", request=False, route=MATCH),
    Counter("assignments", request=False, route=MATCH),
    Counter("accepted_matches", request=False, route=MATCH),
    Counter("match_sets", request=False, route=MATCH),
    Counter("blocked_assignments", request=False, route=BLOCKING),
    Counter("blocking_components", request=False, route=BLOCKING, source="pair.components"),
    Counter("blocking_skipped_keys", request=False, source="pair.skipped_keys"),
    *(
        Counter(f"blocking_component_size_{label}", request=False, source=f"histogram.{label}")
        for label, _ in COMPONENT_SIZE_BUCKETS
    ),
    Counter("blocking_largest_component", MAX, route=BLOCKING, source="pair.largest_component"),
    Counter("blocking_pairs_scored", route=BLOCKING, source="pair.pairs_scored"),
    Counter("blocking_pairs_avoided", route=BLOCKING, source="pair.pairs_avoided"),
    Counter("blocking_ann_pairs_added", route=SEMANTIC, source="pair.ann_pairs_added",
            trace="ann_pairs_added", label="ANN pairs added"),
    Counter("blocking_ann_pairs_duplicate", route=SEMANTIC, source="pair.ann_pairs_duplicate"),
    Counter("blocking_ann_skew_fallbacks", route=SEMANTIC, source="pair.ann_skew_fallbacks",
            trace="ann_skew_fallbacks", label="ANN skew fallbacks (LSH to IVF)"),
    Counter("blocking_ann_probe_candidates", route=SEMANTIC, source="pair.ann_probe_candidates",
            trace="ann_probe_candidates", label="ANN probe candidates"),
    Counter("degraded", ANY, trace="degraded", label="Degraded (matched without embeddings)"),
    Counter("degraded_assignments"),
)

#: The request's storage story: the rows of ``format_cache_statistics``.
STORAGE: Tuple[Counter, ...] = (
    Counter("cache_hits", source="cache.hits", trace="cache_hits", label="Cache hits (hot tier)"),
    Counter("cache_store_hits", source="cache.store_hits", trace="cache_store_hits",
            label="Cache hits (store tier)"),
    Counter("cache_misses", source="cache.misses", trace="cache_misses", label="Cache misses"),
    Counter("cache_fills", source="cache.fills", trace="cache_fills", label="Cache fills"),
    Counter("cache_store_misses", source="cache.store_misses", trace="cache_store_misses",
            label="Store-tier misses"),
    Counter("ann_index_builds", source="ann.index_builds", label="ANN indexes built"),
    Counter("store_published_rows", trace="store_published_rows", label="Embedding rows published"),
    Counter("store_corrupt_segments", source="store.corrupt_segments",
            trace="store_corrupt_segments", label="Corrupt store segments quarantined"),
)

COUNTERS = MATCHING + STORAGE
BY_NAME = {counter.name: counter for counter in COUNTERS}
#: The counters ``FuzzyIntegrationResult.timings`` carries.
REQUEST = frozenset(counter.name for counter in COUNTERS if counter.request)
#: The counters of a ``RequestTrace``, in its order.
TRACED = tuple(counter for counter in COUNTERS if counter.trace)
#: ``source -> key -> counter``, in declaration order.
SOURCES: Dict[str, Dict[str, Counter]] = {}
for _counter in COUNTERS:
    if _counter.source:
        _kind, _key = _counter.source.split(".", 1)
        SOURCES.setdefault(_kind, {})[_key] = _counter

#: How a request ends: ``submitted == sum(outcomes) + in_flight`` at any instant.
TERMINAL_OUTCOMES = ("served", "deadline_exceeded", "failed", "unavailable")
#: The counters of one server process's scoreboard row, summed into ``/stats``.
ROW_COUNTERS = (
    "submitted", *TERMINAL_OUTCOMES, "in_flight", "degraded_served", "requests_served",
)


def zeros(routes: Tuple[str, ...]) -> Dict[str, float]:
    """Every counter on one of ``routes``, at 0."""
    return {counter.name: 0.0 for counter in COUNTERS if counter.route in routes}


def read(source: str, counts: Any, routes: Tuple[str, ...] = ()) -> Dict[str, float]:
    """The counters read from ``source`` that ``counts`` (a dict, or an object
    with them as attributes) holds, by name — except those on a route not in
    ``routes``."""
    declared = SOURCES[source]
    if not isinstance(counts, dict):
        counts = {key: getattr(counts, key, None) for key in declared}
    return {
        counter.name: float(counts[key])
        for key, counter in declared.items()
        if counts.get(key) is not None and (counter.route is None or counter.route in routes)
    }


def delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """What cumulative counters gained between two :func:`read` snapshots (never negative)."""
    return {name: max(0.0, value - before.get(name, 0.0)) for name, value in after.items()}


def merge(into: Dict[str, float], counts: Mapping[str, float]) -> Dict[str, float]:
    """Fold ``counts`` into ``into`` by each counter's rule; return ``into``.

    An undeclared name raises ``KeyError``: no counter reaches a view
    without its line above.
    """
    for name, value in counts.items():
        rule = BY_NAME[name].merge
        value = float(bool(value)) if rule == ANY else float(value)
        if name not in into:
            into[name] = value
        elif rule == SUM:
            into[name] += value
        else:
            into[name] = max(into[name], value)
    return into
