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
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import not_
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.representatives import REPRESENTATIVE_POLICIES
from repro.embeddings.base import DEGRADED_MODES, EmbedderUnavailable, ValueEmbedder
from repro.matching.assignment import AssignmentSolver
from repro.matching.bipartite import BipartiteValueMatcher, IndexMatches
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
    """The values of one aligned column, keyed by value: the form of
    :meth:`ValueMatcher.match_columns` (the engine passes a coded column's
    dictionary and counts by position to :meth:`ValueMatcher.match_coded`).

    Attributes
    ----------
    column_id:
        Identifier of the column (the pipeline uses ``(table name, column)``).
    values:
        Distinct non-null values, in first-seen order (clean-clean scenario:
        within a column, equal strings mean the same thing).
    counts:
        Occurrence count of each value in the underlying column; used by the
        frequency-based representative policy.  Defaults to 1 per value.  A
        dict cannot hold both ``True`` and ``1`` (or ``1.0``) as keys, so a
        column holding both counts them as one; counts by position
        (:meth:`ValueMatcher.match_coded`) keep them apart.
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


class ValueMatchingResult:
    """Outcome of matching one set of aligned columns.

    ``sets`` is a list, or a function that builds it, called on first read:
    the request path never reads the sets (the rewrite goes by
    :attr:`replacements`), so it never pays for them.  ``==`` and ``repr``
    read them, as a dataclass's would.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        sets: Union[List[ValueMatchSet], Callable[[], List[ValueMatchSet]]],
        column_order: Dict[Hashable, int],
        statistics: Optional[Dict[str, float]] = None,
        replacements: Optional[Dict[Hashable, Dict[int, object]]] = None,
    ) -> None:
        self._sets = sets
        self.column_order = column_order
        self.statistics: Dict[str, float] = {} if statistics is None else statistics
        #: Per column, ``{position of a value in the column: its representative}``
        #: for the values the rewrite changes — what the engine remaps codes by.
        self.replacements: Dict[Hashable, Dict[int, object]] = {} if replacements is None else replacements

    @property
    def sets(self) -> List[ValueMatchSet]:
        """The match sets: members ordered by their ``(column, value)`` texts,
        sets by their first member's."""
        if callable(self._sets):
            self._sets = self._sets()
        return self._sets

    def _fields(self) -> Tuple:
        return self.sets, self.column_order, self.statistics, self.replacements

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("sets", "column_order", "statistics", "replacements")
        return f"ValueMatchingResult({', '.join(f'{name}={value!r}' for name, value in zip(names, self._fields()))})"

    def rewrite_map(self, column_id: Hashable) -> Dict[object, object]:
        """``value -> representative`` for one column (identity pairs omitted).

        A dict cannot hold both ``True`` and ``1`` (or ``1.0``) as keys, so
        for a column holding both the map keeps one of them;
        :attr:`replacements`, keyed by position, keeps both.
        """
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
        self._zeros = obs.zeros(self._routes)
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
        """:meth:`match_coded` over :class:`ColumnValues`."""
        return self.match_coded(
            [(column.column_id, column.values, list(map(column.counts.__getitem__, column.values))) for column in columns]
        )

    def match_coded(self, columns: Sequence[Tuple[Hashable, Sequence[object], Sequence[int]]]) -> ValueMatchingResult:
        """Run the full sequential combined-column procedure over ``columns``:
        per column its id, its distinct non-null values (told apart as
        :func:`~repro.table.relation.dictionary` tells them) and how often
        each occurs, by position — what a coded relation's dictionary and
        ``np.bincount`` of its codes already hold.

        Every value of every column is an *item*; items holding equal values
        share a code.  A group (of items) stands for one item, its representative.
        """
        if not columns:
            return ValueMatchingResult([], {})
        start = time.perf_counter()
        # Cache and index-build counters are cumulative; the change between
        # two snapshots is this run's.  Concurrent requests sharing one
        # embedder can bleed into each other's deltas — the counters are
        # observability, not accounting.
        before = self._cumulative_counts()
        ids = [column_id for column_id, _, _ in columns]
        sizes = [len(column_values) for _, column_values, _ in columns]
        column_order = {column_id: index for index, column_id in enumerate(ids)}
        statistics = obs.merge(dict(self._zeros), {"columns": len(columns), "values": sum(sizes)})
        values = list(chain.from_iterable(column_values for _, column_values, _ in columns))
        column_of = list(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
        bounds = list(accumulate(sizes, initial=0))
        codes, code_values = dictionary(values)
        frequency = [0] * len(code_values)  # of each value, over every column
        for code, count in zip(codes, chain.from_iterable(counts for _, _, counts in columns)):
            frequency[code] += count
        # A group stands for its member with the smallest policy key (the
        # first, on ties), so every item is ranked once.
        key = REPRESENTATIVE_POLICIES.get(self.representative_policy)
        ranks = list(map(key, column_of, values, map(frequency.__getitem__, codes)))
        fold = _Fold(values, codes, bounds[1])
        group, stands = fold.group, fold.stands
        for index in range(1, len(columns)):
            low, high = bounds[index], bounds[index + 1]
            chosen, items, pair_counts = self._match_pair(fold, low, high)
            obs.merge(statistics, {"assignments": 1, "accepted_matches": len(items), **pair_counts})
            for at, item in zip(chosen, items):
                group[item] = at
                if ranks[item] < ranks[stands[at]]:
                    fold.stand(at, item)
            fold.open(low, high)

        statistics["elapsed_seconds"] = time.perf_counter() - start
        obs.merge(statistics, {"match_sets": len(stands)})
        obs.merge(statistics, obs.delta(before, self._cumulative_counts()))
        stand_codes = list(map(codes.__getitem__, stands))
        replacements: Dict[Hashable, Dict[int, object]] = {column_id: {} for column_id in ids}
        for index, column_id in enumerate(ids):
            low, high = bounds[index], bounds[index + 1]
            replacements[column_id].update({
                position: values[stands[at]]
                for position, at, code in zip(range(high - low), group[low:high], codes[low:high])
                if stand_codes[at] != code  # its group stands for another value
            })
        return ValueMatchingResult(
            partial(_match_sets, ids, values, column_of, group, stands), column_order, statistics, replacements
        )

    def _match_pair(self, fold: "_Fold", low: int, high: int) -> Tuple[List[int], List[int], Dict[str, float]]:
        """The matches between the combined column (each group's representative)
        and the items ``low:high`` as ``(groups, items)``, and the pair's counters."""
        matcher = self._matcher_for(len(fold.stands), high - low)
        exact = fold.exact_pairs(low, high) if self.exact_first else ([], [], range(low, high))
        try:
            found = fold.match(matcher.match_indices, exact, skip_empty=matcher is self._matcher)
            pair_counts = self._pair_counts(matcher)
        except EmbedderUnavailable:
            # The embedder's backend is down.  Under "surface" the pair is
            # re-matched without embeddings (exact + surface-blocking
            # equality) and the result is marked degraded; under "off" the
            # typed error reaches the engine/service boundary.
            if self.degraded_mode != "surface":
                raise
            if not self.exact_first:
                exact = fold.exact_pairs(low, high)
            found = fold.match(self._degraded_fallback().match_degraded, exact, skip_empty=False)
            pair_counts = {"degraded": 1, "degraded_assignments": 1}
        return (*fold.rebucket(*found), pair_counts)

    # -- helpers --------------------------------------------------------------------
    def _cumulative_counts(self) -> Dict[str, float]:
        """The embedder's cache counters and the semantic blocker's index
        counters, by counter name."""
        counts = obs.read("cache", self.embedder.cache.stats())
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


class _Fold:
    """The groups of a fold in progress, and which groups stand for each value.

    ``group[item]`` is the group an item joined (``-1``: its column is not
    folded in yet), ``stands[group]`` the item a group stands for, and
    ``holders[code]`` the groups standing for a value, ascending — kept
    across the fold, so a column pair pays for its own items, not for every
    group again.  ``shared`` counts the values more than one group stands
    for (only a fold without exact pairing makes any).
    """

    def __init__(self, values: List[object], codes: List[int], first: int) -> None:
        self.values, self.codes = values, codes
        self.stands = list(range(first))  # the first column's items, one group each
        self.group = self.stands + [-1] * (len(values) - first)
        self.holders: Dict[int, List[int]] = {code: [at] for at, code in enumerate(codes[:first])}
        self.shared = 0

    def open(self, low: int, high: int) -> None:
        """A new group for each of the items ``low:high`` that joined none."""
        group, stands, holders = self.group, self.stands, self.holders
        for item, code in zip(range(low, high), self.codes[low:high]):
            if group[item] < 0:
                group[item] = len(stands)
                held = holders.setdefault(code, [])
                held.append(len(stands))
                self.shared += len(held) == 2
                stands.append(item)

    def stand(self, at: int, item: int) -> None:
        """Group ``at`` stands for ``item`` from now on."""
        old, new = self.codes[self.stands[at]], self.codes[item]
        self.stands[at] = item
        if old != new:
            held = self.holders[old]
            held.remove(at)
            self.shared -= len(held) == 1
            if not held:
                del self.holders[old]
            held = self.holders.setdefault(new, [])
            insort(held, at)
            self.shared += len(held) == 2

    def exact_pairs(self, low: int, high: int) -> Tuple[List[int], List[int], List[int]]:
        """Items ``low:high`` paired with the first group standing for their
        value, as ``(groups, items, the other items)``.  A column holds each
        value once, so no two of its items want one group."""
        held = list(map(self.holders.get, self.codes[low:high]))  # None, or a non-empty list
        return (
            [groups[0] for groups in held if groups],
            list(compress(range(low, high), held)),
            list(compress(range(low, high), map(not_, held))),
        )

    def match(
        self, match: Callable[[List[object], List[object]], IndexMatches], exact: Tuple, skip_empty: bool
    ) -> IndexMatches:
        """``exact`` (:meth:`exact_pairs`) and ``match`` over the groups and
        items it left, as ``(groups, items, distances)``; ``skip_empty`` skips
        a ``match`` with nothing on one side (one that records nothing)."""
        groups, items, rest = exact
        count = len(self.stands)
        if skip_empty and (not rest or len(groups) == count):
            return groups, items, [0.0] * len(groups)
        left = range(count)
        if groups:
            unpaired = bytearray(b"\x01") * count
            for at in groups:
                unpaired[at] = 0
            left = list(compress(left, unpaired))
        value = self.values.__getitem__
        found = match(list(map(value, map(self.stands.__getitem__, left))), list(map(value, rest)))
        return (
            groups + [left[at] for at in found[0]],
            items + [rest[at] for at in found[1]],
            [0.0] * len(groups) + found[2],
        )

    def rebucket(self, groups: List[int], items: List[int], distances: List[float]) -> Tuple[List[int], List[int]]:
        """``(groups, items)`` of the matches, once groups standing for equal
        values are one bucket: the bucket's matches, in (distance, left text,
        right text) order, take its groups in group order — not necessarily
        the groups the matcher paired them with position by position."""
        if self.shared:
            codes, values, stands = self.codes, self.values, self.stands
            buckets: Dict[int, List[int]] = {}
            for match, at in enumerate(groups):
                if len(self.holders[codes[stands[at]]]) > 1:
                    buckets.setdefault(codes[stands[at]], []).append(match)
            for code, matches in buckets.items():
                matches.sort(key=lambda match: (distances[match], str(values[stands[groups[match]]]), str(values[items[match]])))
                for match, at in zip(matches, self.holders[code]):
                    groups[match] = at
        return groups, items


def _match_sets(
    ids: List[Hashable], values: List[object], column_of: List[int], group: List[int], stands: List[int]
) -> List[ValueMatchSet]:
    """The groups as match sets: members ordered by their ``(column, value)``
    texts, sets by their first member's (ties: the order of the groups)."""
    column_texts = [str(column_id) for column_id in ids]
    texts = list(zip(map(column_texts.__getitem__, column_of), map(str, values)))
    members: List[List[int]] = [[] for _ in stands]
    for item, at in enumerate(group):
        members[at].append(item)  # in column order: sorted, if the column texts ascend
    if any(earlier >= later for earlier, later in zip(column_texts, column_texts[1:])):
        for items in members:
            if len(items) > 1:
                items.sort(key=texts.__getitem__)
    first = [texts[items[0]] for items in members]
    return [
        ValueMatchSet([(ids[column_of[item]], values[item]) for item in members[at]], values[stands[at]])
        for at in sorted(range(len(stands)), key=first.__getitem__)
    ]
