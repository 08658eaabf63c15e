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
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.representatives import REPRESENTATIVE_POLICIES, select_representative
from repro.embeddings.base import ValueEmbedder
from repro.embeddings.resilient import DEGRADED_MODES, EmbedderUnavailable
from repro.matching.assignment import AssignmentSolver
from repro.matching.bipartite import BipartiteValueMatcher
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
from repro.storage.store import ArtifactStore
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
        deduplicated: List[object] = []
        seen = set()
        for value in self.values:
            if value not in seen:
                seen.add(value)
                deduplicated.append(value)
        self.values = deduplicated
        # A partially populated counts dict would silently give missing values
        # no weight in frequency-based representative selection; default every
        # uncounted value to 1.  Copy first — the caller's dict stays untouched.
        self.counts = dict(self.counts)
        for value in self.values:
            self.counts.setdefault(value, 1)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class ValueMatchingResult:
    """Outcome of matching one set of aligned columns."""

    sets: List[ValueMatchSet]
    column_order: Dict[Hashable, int]
    statistics: Dict[str, float] = field(default_factory=dict)

    def rewrite_map(self, column_id: Hashable) -> Dict[object, object]:
        """``value -> representative`` for one column (identity pairs omitted)."""
        mapping: Dict[object, object] = {}
        for match_set in self.sets:
            for member_column, value in match_set.members:
                if member_column == column_id and value != match_set.representative:
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


class _Group:
    """A value-match group under construction (mutable, internal)."""

    __slots__ = ("members", "representative")

    def __init__(self, members: List[ValueKey], representative: object) -> None:
        self.members = members
        self.representative = representative


class ValueMatcher:
    """The Match Values component.

    Parameters mirror :class:`~repro.core.config.FuzzyFDConfig`; the matcher is
    deliberately usable standalone (it is what the Table 1 benchmark drives).
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
        store: Optional[ArtifactStore] = None,
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
        # The store (when given) makes the ANN hash state durable — loaded
        # codes replace rebuilt ones, candidates stay identical either way.
        semantic_blocker = (
            SemanticBlocker(
                embedder,
                top_k=ann_top_k,
                n_tables=ann_tables,
                n_bits=ann_bits,
                min_similarity=max(0.0, 1.0 - threshold),
                ann_index=ann_index,
                store=store,
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
        """Run the full sequential combined-column procedure over ``columns``."""
        if not columns:
            return ValueMatchingResult(sets=[], column_order={})
        start = time.perf_counter()
        # Cache, resilience and durable-index counters are cumulative; the
        # change between two snapshots is this run's.  Concurrent requests
        # sharing one embedder can bleed into each other's deltas — the
        # counters are observability, not accounting.
        before = self._cumulative_counts()
        column_order = {column.column_id: index for index, column in enumerate(columns)}
        frequencies = self._global_frequencies(columns)
        statistics = obs.merge(
            obs.zeros(self._routes),
            {"columns": len(columns), "values": sum(len(column) for column in columns)},
        )

        groups = [
            _Group(members=[(columns[0].column_id, value)], representative=value)
            for value in columns[0].values
        ]

        for column in columns[1:]:
            combined_values = [group.representative for group in groups]
            matcher = self._matcher_for(len(combined_values), len(column.values))
            try:
                matches = (
                    matcher.match_exact_first(combined_values, column.values)
                    if self.exact_first
                    else matcher.match(combined_values, column.values)
                )
            except EmbedderUnavailable:
                # Breaker open.  Under "surface" the pair is re-matched
                # without embeddings (exact + surface-blocking equality) and
                # the result is marked degraded; any other mode propagates
                # the typed error to the engine/service boundary.
                if self.degraded_mode != "surface":
                    raise
                matches = self._degraded_fallback().match_degraded(
                    combined_values, column.values
                )
                pair_counts = {"degraded": 1, "degraded_assignments": 1}
            else:
                pair_counts = self._pair_counts(matcher)
            obs.merge(
                statistics, {"assignments": 1, "accepted_matches": len(matches), **pair_counts}
            )

            groups_by_representative: Dict[object, List[_Group]] = {}
            for group in groups:
                groups_by_representative.setdefault(group.representative, []).append(group)

            matched_right = set()
            for match in matches:
                bucket = groups_by_representative.get(match.left)
                if not bucket:
                    continue
                group = bucket.pop(0)
                group.members.append((column.column_id, match.right))
                group.representative = select_representative(
                    group.members, frequencies, column_order, policy=self.representative_policy
                )
                matched_right.add(match.right)

            for value in column.values:
                if value not in matched_right:
                    groups.append(_Group(members=[(column.column_id, value)], representative=value))

        statistics["elapsed_seconds"] = time.perf_counter() - start
        obs.merge(statistics, {"match_sets": len(groups)})
        obs.merge(statistics, obs.delta(before, self._cumulative_counts()))

        sets = [
            ValueMatchSet(members=sorted(group.members, key=lambda key: (str(key[0]), str(key[1]))),
                          representative=group.representative)
            for group in groups
        ]
        sets.sort(key=lambda match_set: (str(match_set.members[0][0]), str(match_set.members[0][1])))
        return ValueMatchingResult(sets=sets, column_order=column_order, statistics=statistics)

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

    @staticmethod
    def _global_frequencies(columns: Sequence[ColumnValues]) -> Dict[object, int]:
        """Occurrences of each surface value across all aligning columns."""
        frequencies: Dict[object, int] = {}
        for column in columns:
            for value in column.values:
                frequencies[value] = frequencies.get(value, 0) + column.counts.get(value, 1)
        return frequencies
