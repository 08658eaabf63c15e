"""The *Match Values* component (Sec. 2.2 of the paper).

Given a set of aligning columns, the component determines fuzzy matches among
their values and picks one representative value per match set:

1. Embed every (distinct) cell value.
2. Take the first two columns and bipartite-match their value sets under the
   threshold θ (cosine distance over the embeddings, optimal assignment).
3. Fold the result into a *combined column*: matched values form one group
   whose representative is the most frequent surface form (ties: the value
   from the earliest table); unmatched values stay as singleton groups.
4. Match the combined column against the next aligning column, and repeat
   until every column is folded in.

The result maps every value of every aligned column to its representative,
which the Fuzzy Full Disjunction pipeline then writes back into the tables
before running the equi-join Full Disjunction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.representatives import REPRESENTATIVE_POLICIES
from repro.embeddings.base import ValueEmbedder
from repro.embeddings.resilient import DEGRADED_MODES, EmbedderUnavailable
from repro.matching.assignment import AssignmentSolver
from repro.matching.bipartite import BipartiteValueMatcher, exact_first
from repro.matching.ann import (
    DEFAULT_ANN_BITS,
    DEFAULT_ANN_TABLES,
    DEFAULT_ANN_TOP_K,
    SemanticBlocker,
)
from repro.matching.blocking import (
    DEFAULT_FREQUENT_KEY_CAP,
    BlockedValueMatcher,
    ValueBlocker,
)
from repro.matching.clustering import ValueMatchSet
from repro.matching.distance import EmbeddingDistance
from repro.table.relation import cell_key, dictionary, distinct
from repro.utils.executor import ExecutorConfig

#: Cell count (``|left| × |right|``) at which ``blocking="auto"`` switches a
#: column pair from the exhaustive matcher to the blocked engine.
DEFAULT_BLOCKING_CUTOFF = 250_000

#: Default frequent-key cap of the blocked matcher's candidate generator: a
#: blocking key whose *smaller* posting list exceeds this is skipped (see
#: :class:`repro.matching.blocking.ValueBlocker`).  ``None`` disables it.
DEFAULT_BLOCKING_KEY_CAP: Optional[int] = DEFAULT_FREQUENT_KEY_CAP

ValueKey = Tuple[Hashable, object]


@dataclass
class ColumnValues:
    """The values of one aligned column, as the matcher consumes them.

    Attributes
    ----------
    column_id:
        Identifier of the column (the pipeline uses ``(table name, column)``).
    values:
        Distinct non-null values, in first-seen order (clean-clean scenario:
        within a column, equal strings mean the same thing).
    counts:
        Occurrence count of each value in the underlying column; used by the
        frequency-based representative policy.  Defaults to 1 per value.
    """

    column_id: Hashable
    values: List[object]
    counts: Dict[object, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Equal values are one value, except that a boolean is not the number
        # it equals (see repro.table.relation).
        self.values = distinct(self.values)
        # A partially populated counts dict would silently give missing values
        # no weight in frequency-based representative selection; default every
        # uncounted value to 1.  A copy — the caller's dict stays untouched.
        self.counts = {**dict.fromkeys(self.values, 1), **self.counts}

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class ValueMatchingResult:
    """Outcome of matching one set of aligned columns."""

    sets: List[ValueMatchSet]
    column_order: Dict[Hashable, int]
    statistics: Dict[str, float] = field(default_factory=dict)
    #: Per column, ``{position of a value in the column: its representative}``
    #: for the values the rewrite changes — what the engine remaps codes by.
    replacements: Dict[Hashable, Dict[int, object]] = field(default_factory=dict)

    def rewrite_map(self, column_id: Hashable) -> Dict[object, object]:
        """``value -> representative`` for one column (identity pairs omitted)."""
        mapping: Dict[object, object] = {}
        for match_set in self.sets:
            representative = cell_key(match_set.representative)
            for member_column, value in match_set.members:
                if member_column == column_id and cell_key(value) != representative:
                    mapping[value] = match_set.representative
        return mapping

    def representative_of(self, column_id: Hashable, value: object) -> object:
        """The representative of ``value`` in ``column_id`` (itself if unmatched)."""
        for match_set in self.sets:
            if (column_id, value) in match_set.members:
                return match_set.representative
        return value

    def combined_column(self) -> List[object]:
        """The final combined column: one representative per match set."""
        return [match_set.representative for match_set in self.sets]

    def matched_pairs(self) -> List[Tuple[ValueKey, ValueKey]]:
        """All within-set pairs — the unit counted by the evaluation metrics."""
        pairs: List[Tuple[ValueKey, ValueKey]] = []
        for match_set in self.sets:
            members = match_set.members
            for index, left in enumerate(members):
                for right in members[index + 1 :]:
                    pairs.append((left, right))
        return pairs


class ValueMatcher:
    """The Match Values component.

    Parameters mirror :class:`~repro.core.config.FuzzyFDConfig`; the matcher is
    deliberately usable standalone (it is what the Table 1 benchmark drives).
    It takes no artifact store: persisted embeddings reach it through the
    embedder's cache (a :class:`~repro.storage.cache.StoreBackedEmbeddingCache`
    inside a store-backed engine), and the semantic channel builds its index
    state in memory on every call.
    """

    def __init__(
        self,
        embedder: ValueEmbedder,
        threshold: float = 0.7,
        solver: Optional[AssignmentSolver] = None,
        representative_policy: str = "frequency",
        exact_first: bool = True,
        blocking: str = "off",
        blocking_cutoff: int = DEFAULT_BLOCKING_CUTOFF,
        blocking_key_cap: Optional[int] = DEFAULT_BLOCKING_KEY_CAP,
        semantic_blocking: str = "off",
        ann_tables: int = DEFAULT_ANN_TABLES,
        ann_bits: int = DEFAULT_ANN_BITS,
        ann_top_k: int = DEFAULT_ANN_TOP_K,
        ann_index: str = "lsh",
        max_workers: int = 1,
        parallel_backend: str = "thread",
        degraded_mode: str = "off",
    ) -> None:
        if blocking not in ("off", "on", "auto"):
            raise ValueError(f"blocking must be 'off', 'on' or 'auto', got {blocking!r}")
        if degraded_mode not in DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {list(DEGRADED_MODES)}, got {degraded_mode!r}"
            )
        if blocking_cutoff <= 0:
            raise ValueError(f"blocking_cutoff must be positive, got {blocking_cutoff}")
        if semantic_blocking not in ("off", "on", "auto"):
            raise ValueError(
                f"semantic_blocking must be 'off', 'on' or 'auto', got {semantic_blocking!r}"
            )
        if semantic_blocking == "on" and blocking == "off":
            raise ValueError(
                "semantic_blocking='on' requires blocking 'on' or 'auto': the ANN "
                "channel rides the blocked matcher (the exhaustive matcher already "
                "scores every pair)"
            )
        # Fail fast on a typo'd policy name here rather than deep inside
        # match_columns() on the first accepted match.
        REPRESENTATIVE_POLICIES.validate(representative_policy)
        self.embedder = embedder
        self.threshold = threshold
        self.representative_policy = representative_policy
        self.exact_first = exact_first
        self.blocking = blocking
        self.blocking_cutoff = blocking_cutoff
        self.blocking_key_cap = blocking_key_cap
        self.semantic_blocking = semantic_blocking
        self.degraded_mode = degraded_mode
        # The routes whose counters every run reports (repro.obs); the ANN
        # channel only runs inside the blocked matcher.
        self._routes = (obs.MATCH,)
        if blocking != "off":
            self._routes += (obs.BLOCKING,)
            if semantic_blocking != "off":
                self._routes += (obs.SEMANTIC,)
        # The embedding-free fallback matcher of degraded_mode="surface",
        # built on first use (reuses the blocked matcher when blocking is on).
        self._degraded_matcher: Optional[BlockedValueMatcher] = None
        # Validated eagerly (backend name, worker count) by ExecutorConfig;
        # the blocked engine is the only consumer — the exhaustive matcher
        # solves one global assignment and has nothing to distribute.
        self.executor = ExecutorConfig(backend=parallel_backend, max_workers=max_workers)
        self._matcher = BipartiteValueMatcher(
            distance=EmbeddingDistance(embedder), threshold=threshold, solver=solver
        )
        # The semantic blocker validates the ann_* knobs eagerly even when
        # blocking is off (so a bad ann_top_k never hides behind blocking).
        # Its similarity floor is 1 - θ: pairs below it are unmatchable under
        # the threshold, so emitting them would only weld components.
        semantic_blocker = (
            SemanticBlocker(
                embedder,
                top_k=ann_top_k,
                n_tables=ann_tables,
                n_bits=ann_bits,
                min_similarity=max(0.0, 1.0 - threshold),
                ann_index=ann_index,
            )
            if semantic_blocking != "off"
            else None
        )
        self._blocked_matcher = (
            BlockedValueMatcher(
                embedder,
                threshold=threshold,
                solver=solver,
                blocker=ValueBlocker(frequent_key_cap=blocking_key_cap),
                executor=self.executor,
                semantic_blocker=semantic_blocker,
                semantic_mode=semantic_blocking if semantic_blocking != "off" else "on",
            )
            if blocking != "off"
            else None
        )

    # -- public API ---------------------------------------------------------------
    def match_columns(self, columns: Sequence[ColumnValues]) -> ValueMatchingResult:
        """Run the full sequential combined-column procedure over ``columns``.

        Every value of every column is an *item*; items holding equal values
        share a code.  A group (of items) stands for one item, its representative.
        """
        if not columns:
            return ValueMatchingResult(sets=[], column_order={})
        start = time.perf_counter()
        # Cache, resilience and index-build counters are cumulative; the
        # change between two snapshots is this run's.  Concurrent requests
        # sharing one embedder can bleed into each other's deltas — the
        # counters are observability, not accounting.
        before = self._cumulative_counts()
        column_order = {column.column_id: index for index, column in enumerate(columns)}
        statistics = obs.merge(obs.zeros(self._routes), {"columns": len(columns), "values": sum(map(len, columns))})
        ids = [column.column_id for column in columns]
        values = list(chain.from_iterable(column.values for column in columns))
        column_of = list(chain.from_iterable(repeat(index, len(column)) for index, column in enumerate(columns)))
        bounds = list(accumulate(map(len, columns), initial=0))
        codes, code_values = dictionary(values)
        frequency = [0] * len(code_values)  # of each value, over every column
        for code, count in zip(codes, chain.from_iterable(map(column.counts.__getitem__, column.values) for column in columns)):
            frequency[code] += count
        # A group stands for its member with the smallest policy key (the
        # first, on ties), so every item is ranked once.
        key = REPRESENTATIVE_POLICIES.get(self.representative_policy)
        ranks = list(map(key, column_of, values, map(frequency.__getitem__, codes)))
        group = list(range(bounds[1])) + [-1] * (len(values) - bounds[1])  # the group of each item
        stands = list(range(bounds[1]))  # the item each group stands for
        for index in range(1, len(columns)):
            low, high = bounds[index], bounds[index + 1]
            matches, pair_counts = self._match_pair(values, codes, stands, low, high)
            obs.merge(statistics, {"assignments": 1, "accepted_matches": len(matches), **pair_counts})
            for chosen, item in matches:
                group[item] = chosen
                if ranks[item] < ranks[stands[chosen]]:
                    stands[chosen] = item
            for item in range(low, high):
                if group[item] < 0:
                    group[item] = len(stands)
                    stands.append(item)

        statistics["elapsed_seconds"] = time.perf_counter() - start
        obs.merge(statistics, {"match_sets": len(stands)})
        obs.merge(statistics, obs.delta(before, self._cumulative_counts()))
        replacements: Dict[Hashable, Dict[int, object]] = {column_id: {} for column_id in ids}
        for item, at in enumerate(group):
            if codes[stands[at]] != codes[item]:  # its group stands for another value
                replacements[ids[column_of[item]]][item - bounds[column_of[item]]] = values[stands[at]]
        return ValueMatchingResult(
            _match_sets(ids, values, column_of, group, stands), column_order, statistics, replacements
        )

    def _match_pair(
        self, values: List[object], codes: List[int], stands: List[int], low: int, high: int
    ) -> Tuple[List[Tuple[int, int]], Dict[str, float]]:
        """The matches between the combined column (each group's representative)
        and the items ``low:high`` as ``(group, item)`` pairs, and the pair's counters."""
        left_values, right_values = [values[item] for item in stands], values[low:high]
        keys = [codes[item] for item in stands], codes[low:high]
        matcher = self._matcher_for(len(left_values), len(right_values))
        try:
            if self.exact_first:
                found = exact_first(matcher.match_indices, left_values, right_values, keys)
            else:
                found = matcher.match_indices(left_values, right_values)
            pair_counts = self._pair_counts(matcher)
        except EmbedderUnavailable:
            # Breaker open.  Under "surface" the pair is re-matched without
            # embeddings (exact + surface-blocking equality) and the result is
            # marked degraded; any other mode propagates the typed error to
            # the engine/service boundary.
            if self.degraded_mode != "surface":
                raise
            found = exact_first(self._degraded_fallback().match_degraded, left_values, right_values, keys)
            pair_counts = {"degraded": 1, "degraded_assignments": 1}
        matches = list(zip(*found))
        if len(set(keys[0])) < len(keys[0]):
            # Groups standing for equal values are one bucket to the fold: the
            # bucket's matches, in (distance, left text, right text) order,
            # take its groups in group order — not necessarily the groups the
            # matcher paired them with position by position.
            buckets: Dict[int, List[int]] = {}
            for position, code in enumerate(keys[0]):
                buckets.setdefault(code, []).append(position)
            matches.sort(key=lambda match: (match[2], str(left_values[match[0]]), str(right_values[match[1]])))
            matches = [(buckets[keys[0][left]].pop(0), right, distance) for left, right, distance in matches]
        return [(left, low + right) for left, right, _ in matches], pair_counts

    # -- helpers --------------------------------------------------------------------
    def _cumulative_counts(self) -> Dict[str, float]:
        """The embedder's cache and resilience counters and the semantic
        blocker's index counters, by counter name."""
        counts = obs.read("cache", self.embedder.cache.stats())
        resilience = getattr(self.embedder, "resilience_stats", None)
        if callable(resilience):
            counts.update(obs.read("resilience", resilience()))
        semantic_blocker = getattr(self._blocked_matcher, "semantic_blocker", None)
        if semantic_blocker is not None:
            counts.update(obs.read("ann", semantic_blocker))
        return counts

    def _pair_counts(self, matcher) -> Dict[str, float]:
        """The counters of the column pair ``matcher`` just matched (none
        from the exhaustive matcher)."""
        if not isinstance(matcher, BlockedValueMatcher) or matcher.last_statistics is None:
            return {}
        pair = matcher.last_statistics
        return {
            "blocked_assignments": 1,
            **obs.read("pair", pair, self._routes),
            **obs.read("histogram", pair.component_size_histogram()),
        }

    def _degraded_fallback(self) -> BlockedValueMatcher:
        """The matcher serving ``match_degraded`` (never calls the embedder)."""
        if self._blocked_matcher is not None:
            return self._blocked_matcher
        if self._degraded_matcher is None:
            self._degraded_matcher = BlockedValueMatcher(
                self.embedder,
                threshold=self.threshold,
                blocker=ValueBlocker(frequent_key_cap=self.blocking_key_cap),
            )
        return self._degraded_matcher

    def _matcher_for(self, left_count: int, right_count: int):
        """Route one column pair to the exhaustive or the blocked matcher."""
        if self._blocked_matcher is None:
            return self._matcher
        if self.blocking == "on":
            return self._blocked_matcher
        if left_count * right_count >= self.blocking_cutoff:
            return self._blocked_matcher
        return self._matcher


def _match_sets(
    ids: List[Hashable], values: List[object], column_of: List[int], group: List[int], stands: List[int]
) -> List[ValueMatchSet]:
    """The groups as match sets: members ordered by their ``(column, value)``
    texts, sets by their first member's (ties: the order of the groups)."""
    column_texts = [str(column_id) for column_id in ids]
    keys = list(zip(map(ids.__getitem__, column_of), values))
    members: List[List[int]] = [[] for _ in stands]
    for item, at in enumerate(group):
        members[at].append(item)  # in column order: sorted, if the column texts ascend
    if any(earlier >= later for earlier, later in zip(column_texts, column_texts[1:])):
        for items in members:
            items.sort(key=lambda item: (column_texts[column_of[item]], str(values[item])))
    first = [(column_texts[column_of[items[0]]], str(values[items[0]])) for items in members]
    return [
        ValueMatchSet(list(map(keys.__getitem__, members[at])), values[stands[at]])
        for at in sorted(range(len(stands)), key=first.__getitem__)
    ]
