"""The coded Match Values core against the fold it replaced.

``reference_match_columns`` (with ``_reference_match_pair``,
``reference_match_sets``, ``reference_exact_first`` and
``reference_replace``) is the column-pair fold as it was before the coded
entry: it rebuilt the combined column's values, keys, holders and unpaired
groups for every column pair, built the match sets eagerly and rewrote a
column by re-dictionarying it.  On hypothesis groups of 2–6 columns —
equal values across columns, ``1`` / ``1.0`` / ``True`` / ``"1"``, fuzzy
spellings — under every representative policy, with and without exact
pairing, exhaustive, blocked and blocked + semantic matching, an exact and a
hashed n-gram embedder and one that is down (the degraded route), the new
core must give the same sets (read lazily), replacements, statistics
(seconds excluded, blocked-pair counters included), and the same rewritten
codes and dictionaries.

The reference reads counts through ``cell_key``, so a column holding both
``True`` and ``1`` gets both counts, as the coded entry does.
"""

from __future__ import annotations

import time
from itertools import accumulate, chain, repeat
from typing import Dict, Hashable, List

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.engine import IntegrationEngine
from repro.core.representatives import REPRESENTATIVE_POLICIES, available_policies
from repro.core.value_matching import ColumnValues, ValueMatcher, ValueMatchingResult
from repro.embeddings import EmbedderUnavailable, ExactEmbedder, FastTextEmbedder
from repro.matching.clustering import ValueMatchSet
from repro.schema_matching.alignment import AlignedColumn, ColumnAlignment, ColumnRef
from repro.table import Table
from repro.table.relation import Relation, cell_key, dictionary


# -- the reference: the fold before the coded entry ------------------------------------
def reference_exact_first(match, left_values, right_values, keys=None):
    left_keys, right_keys = keys if keys is not None else (left_values, right_values)
    holders: Dict[object, List[int]] = {}
    for at, key in enumerate(left_keys):
        holders.setdefault(key, []).append(at)
    left, right, rest_right = [], [], []
    for at, key in enumerate(right_keys):
        if holders.get(key):
            left.append(holders[key].pop(0))
            right.append(at)
        else:
            rest_right.append(at)
    taken = set(left)
    rest_left = [at for at in range(len(left_keys)) if at not in taken]
    found = match([left_values[at] for at in rest_left], [right_values[at] for at in rest_right])
    return left + [rest_left[at] for at in found[0]], right + [rest_right[at] for at in found[1]], [0.0] * len(left) + found[2]


def reference_match_columns(self: ValueMatcher, columns) -> ValueMatchingResult:
    if not columns:
        return ValueMatchingResult(sets=[], column_order={})
    start = time.perf_counter()
    before = self._cumulative_counts()
    column_order = {column.column_id: index for index, column in enumerate(columns)}
    statistics = obs.merge(obs.zeros(self._routes), {"columns": len(columns), "values": sum(map(len, columns))})
    ids = [column.column_id for column in columns]
    values = list(chain.from_iterable(column.values for column in columns))
    column_of = list(chain.from_iterable(repeat(index, len(column)) for index, column in enumerate(columns)))
    bounds = list(accumulate(map(len, columns), initial=0))
    codes, code_values = dictionary(values)
    frequency = [0] * len(code_values)
    for code, count in zip(codes, chain.from_iterable(map(column.counts.__getitem__, column.values) for column in columns)):
        frequency[code] += count
    key = REPRESENTATIVE_POLICIES.get(self.representative_policy)
    ranks = list(map(key, column_of, values, map(frequency.__getitem__, codes)))
    group = list(range(bounds[1])) + [-1] * (len(values) - bounds[1])
    stands = list(range(bounds[1]))
    for index in range(1, len(columns)):
        low, high = bounds[index], bounds[index + 1]
        matches, pair_counts = _reference_match_pair(self, values, codes, stands, low, high)
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
        if codes[stands[at]] != codes[item]:
            replacements[ids[column_of[item]]][item - bounds[column_of[item]]] = values[stands[at]]
    return ValueMatchingResult(
        reference_match_sets(ids, values, column_of, group, stands), column_order, statistics, replacements
    )


def _reference_match_pair(self: ValueMatcher, values, codes, stands, low, high):
    left_values, right_values = [values[item] for item in stands], values[low:high]
    keys = [codes[item] for item in stands], codes[low:high]
    matcher = self._matcher_for(len(left_values), len(right_values))
    try:
        if self.exact_first:
            found = reference_exact_first(matcher.match_indices, left_values, right_values, keys)
        else:
            found = matcher.match_indices(left_values, right_values)
        pair_counts = self._pair_counts(matcher)
    except EmbedderUnavailable:
        if self.degraded_mode != "surface":
            raise
        found = reference_exact_first(self._degraded_fallback().match_degraded, left_values, right_values, keys)
        pair_counts = {"degraded": 1, "degraded_assignments": 1}
    matches = list(zip(*found))
    if len(set(keys[0])) < len(keys[0]):
        buckets: Dict[int, List[int]] = {}
        for position, code in enumerate(keys[0]):
            buckets.setdefault(code, []).append(position)
        matches.sort(key=lambda match: (match[2], str(left_values[match[0]]), str(right_values[match[1]])))
        matches = [(buckets[keys[0][left]].pop(0), right, distance) for left, right, distance in matches]
    return [(left, low + right) for left, right, _ in matches], pair_counts


def reference_match_sets(ids, values, column_of, group, stands) -> List[ValueMatchSet]:
    column_texts = [str(column_id) for column_id in ids]
    keys = list(zip(map(ids.__getitem__, column_of), values))
    members: List[List[int]] = [[] for _ in stands]
    for item, at in enumerate(group):
        members[at].append(item)
    if any(earlier >= later for earlier, later in zip(column_texts, column_texts[1:])):
        for items in members:
            items.sort(key=lambda item: (column_texts[column_of[item]], str(values[item])))
    first = [(column_texts[column_of[items[0]]], str(values[items[0]])) for items in members]
    return [
        ValueMatchSet(list(map(keys.__getitem__, members[at])), values[stands[at]])
        for at in sorted(range(len(stands)), key=first.__getitem__)
    ]


def reference_replace(relation: Relation, column: str, replacements) -> Relation:
    position = relation.schema.position(column)
    entries = list(relation.values[position])
    for code, value in replacements.items():
        entries[code] = value
    remap, merged = dictionary(entries)
    codes, values = relation.codes.copy(), list(relation.values)
    codes[position] = np.array(remap + [-1], dtype=np.int32)[codes[position]]
    values[position] = merged
    return Relation(relation.name, relation.schema, codes, values, relation.provenance)


class _Counted:
    """A column as the reference reads it, its counts keyed by ``cell_key``
    (so ``True`` and ``1`` keep their own counts)."""

    def __init__(self, column_id, values, counts) -> None:
        self.column_id, self.values = column_id, values
        self.counts = _ByCellKey(dict(zip(map(cell_key, values), counts)))

    def __len__(self) -> int:
        return len(self.values)


class _ByCellKey:
    def __init__(self, counts) -> None:
        self._counts = counts

    def __getitem__(self, value) -> int:
        return self._counts[cell_key(value)]


# -- the inputs ------------------------------------------------------------------------
CELLS = st.sampled_from(
    ["Berlin", "Berlinn", "berlin", "Bern", "Toronto", "Torontoo", "Paris", "Pariss", "1", "True", 1, 1.0, True, False, 0, 2.5]
)


class _DownEmbedder(ExactEmbedder):
    """An embedder whose backend is down: every pair takes the degraded route."""

    def embed_many(self, values):
        raise EmbedderUnavailable("down")


EMBEDDERS = {"exact": ExactEmbedder, "hashed": lambda: FastTextEmbedder(dimension=64), "down": _DownEmbedder}
#: (blocking, semantic_blocking, blocking_cutoff): exhaustive, blocked,
#: blocked + semantic, and routed by size (some pairs each way).
ROUTES = [("off", "off", 250_000), ("on", "off", 250_000), ("on", "on", 250_000), ("auto", "auto", 12)]


@st.composite
def settings_and_columns(draw):
    width = draw(st.integers(2, 6))
    cells = [draw(st.lists(CELLS, min_size=0, max_size=9)) for _ in range(width)]
    blocking, semantic, cutoff = draw(st.sampled_from(ROUTES))
    knobs = dict(
        threshold=draw(st.sampled_from([0.3, 0.7])),
        representative_policy=draw(st.sampled_from(available_policies())),
        exact_first=draw(st.booleans()),
        blocking=blocking,
        semantic_blocking=semantic,
        blocking_cutoff=cutoff,
    )
    return draw(st.sampled_from(sorted(EMBEDDERS))), knobs, cells


def _matcher(embedder: str, knobs) -> ValueMatcher:
    """A fresh matcher on a fresh embedder, so cache counters start at 0."""
    return ValueMatcher(EMBEDDERS[embedder](), degraded_mode="surface", **knobs)


def _relations(cells) -> List[Relation]:
    """One relation per column (``T<index>.v``), its cells as rows."""
    return [Relation.of(Table(f"T{index}", ["v", "row"], [(cell, row) for row, cell in enumerate(column)])) for index, column in enumerate(cells)]


def _untimed(statistics) -> Dict[str, float]:
    return {name: value for name, value in statistics.items() if not name.endswith("_seconds")}


def _same(result: ValueMatchingResult, expected: ValueMatchingResult) -> None:
    assert repr(result.sets) == repr(expected.sets)  # members, order, representative, and their types
    assert result.column_order == expected.column_order
    assert repr(result.replacements) == repr(expected.replacements)
    assert _untimed(result.statistics) == _untimed(expected.statistics)


# -- the properties --------------------------------------------------------------------
#: Without exact pairing, group 1 comes to stand for ``True`` beside group 0
#: (``"True"`` and ``True`` embed alike): the two must stay in group order.
SHARED_OUT_OF_ORDER = (
    "exact",
    dict(threshold=0.3, representative_policy="frequency", exact_first=False, blocking="off", semantic_blocking="off", blocking_cutoff=250_000),
    [["True", True], [True], [True]],
)


@given(case=settings_and_columns())
@example(case=SHARED_OUT_OF_ORDER)
@settings(max_examples=150, deadline=None)
def test_the_coded_core_folds_as_the_reference(case):
    embedder, knobs, cells = case
    columns = []
    for relation in _relations(cells):
        if relation.values[0]:
            columns.append(((relation.name, "v"), relation.values[0], relation.counts("v").tolist()))
    result = _matcher(embedder, knobs).match_coded(columns)
    expected = reference_match_columns(_matcher(embedder, knobs), [_Counted(*column) for column in columns])
    _same(result, expected)


@given(case=settings_and_columns())
@settings(max_examples=100, deadline=None)
def test_match_columns_folds_as_the_reference(case):
    # ColumnValues, empty columns included; counts as the caller gives them.
    embedder, knobs, cells = case
    columns = [ColumnValues((f"T{index}", "v"), column, {cell: 2 for cell in column[:2]}) for index, column in enumerate(cells)]
    result = _matcher(embedder, knobs).match_columns(columns)
    expected = reference_match_columns(_matcher(embedder, knobs), columns)
    _same(result, expected)


@given(case=settings_and_columns())
@settings(max_examples=100, deadline=None)
def test_the_engine_rewrites_codes_and_dictionaries_as_the_reference(case):
    embedder, knobs, cells = case
    relations = _relations(cells)
    alignment = ColumnAlignment(
        [AlignedColumn("v", [ColumnRef(relation.name, "v") for relation in relations])]
        + [AlignedColumn(f"row{index}", [ColumnRef(relation.name, "row")]) for index, relation in enumerate(relations)]
    )
    relations = [relation.rename({"row": f"row{index}"}) for index, relation in enumerate(relations)]
    results, rewritten = IntegrationEngine._match_and_rewrite(_matcher(embedder, knobs), relations, alignment)

    columns = [_Counted((relation.name, "v"), relation.values[0], relation.counts("v").tolist()) for relation in relations if relation.values[0]]
    expected_rewritten = list(relations)
    if len(columns) >= 2:
        expected = reference_match_columns(_matcher(embedder, knobs), columns)
        _same(results["v"], expected)
        by_name = {relation.name: index for index, relation in enumerate(relations)}
        for (table, column), replacements in expected.replacements.items():
            if replacements:
                expected_rewritten[by_name[table]] = reference_replace(expected_rewritten[by_name[table]], column, replacements)
    else:
        assert results == {}
    for relation, reference in zip(rewritten, expected_rewritten):
        assert np.array_equal(relation.codes, reference.codes)
        assert repr(relation.values) == repr(reference.values)


def test_lazy_sets_equal_eager_ones_and_read_on_equality_and_repr():
    columns = [
        ColumnValues(("T1", "City"), ["Berlinn", "Toronto", "New Delhi"]),
        ColumnValues(("T2", "City"), ["Toronto", "Berlin"]),
        ColumnValues(("T3", "City"), ["Berlin", "Toronto", "Boston"]),
    ]
    lazy = ValueMatcher(FastTextEmbedder()).match_columns(columns)
    assert callable(lazy._sets)  # nothing read them yet
    eager = ValueMatchingResult(list(lazy.sets), lazy.column_order, lazy.statistics, lazy.replacements)
    again = ValueMatcher(FastTextEmbedder()).match_columns(columns)
    again.statistics = lazy.statistics
    assert again == eager and not callable(again._sets)
    other = ValueMatcher(FastTextEmbedder()).match_columns(columns)
    assert repr(other).startswith("ValueMatchingResult(sets=[ValueMatchSet(") and not callable(other._sets)
    assert repr(other.sets) == repr(eager.sets)
    with pytest.raises(TypeError):
        hash(eager)
