"""Differential and boundary tests of the array-native candidate graph.

A candidate pair is one int64 key ``left * n_right + right`` from the
blockers to the component cut (:mod:`repro.matching.blocking`,
:mod:`repro.matching.ann`).  The tuple-and-dict code it replaced is the
reference here:

* surface keys against :meth:`ValueBlocker.iter_candidate_pairs`, the
  streaming form the degraded path still runs;
* components against ``reference_components``, the integer union-find +
  ``pairs_by_root`` body ``BlockedValueMatcher._connected_components`` had;
* the segmented top-k against a stable argsort per query group.

The generators are made to reach the edges of the code under test, not just
small shapes: posting lists of exactly ``cap`` and ``cap + 1`` values, empty
sides, duplicates, values without any key, and the slab / block budgets
patched small enough that every input straddles several of them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.ann as ann_module
import repro.matching.blocking as blocking_module
from repro.datasets.corruptions import CORRUPTION_KINDS, Corruptor
from repro.embeddings.transformer import SimulatedTransformerEmbedder
from repro.matching.ann import SemanticBlocker, _pair_similarities, pairs_from_keys
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker, _components

BASE_WORDS = (
    "berlin", "bern", "berlin city", "new york", "new york city", "york", "the hague",
    "the city of berlin", "saint petersburg", "st petersburg", "usa", "united states",
    "x", "ab", "",
)


# -- value lists in the style of datasets/corruptions.py ------------------------------
@st.composite
def value_lists(draw, min_size: int = 0, max_size: int = 14) -> List[object]:
    """Corrupted surfaces of a few base words: typos, case, affixes, duplicates,
    and values with no blocking key at all (``""``, ``"  "``, ``None``)."""
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    corruptor = Corruptor(seed=seed)
    words = draw(st.lists(st.sampled_from(BASE_WORDS), min_size=min_size, max_size=max_size))
    values: List[object] = []
    for word in words:
        if not word:
            values.append(rng.choice(["", "  ", None]))
        elif rng.random() < 0.4:
            values.append(word)
        else:
            values.append(corruptor.corrupt(word, rng.choice(CORRUPTION_KINDS), rng))
    return values


def streamed(blocker: ValueBlocker, left, right) -> Tuple[List[Tuple[int, int]], int]:
    """The reference: the streaming form's pairs, sorted, and its skipped-key count."""
    pairs = sorted(set(blocker.iter_candidate_pairs(left, right)))
    return pairs, blocker.last_skipped_keys


class TestSurfaceKeys:
    @settings(max_examples=120, deadline=None)
    @given(value_lists(), value_lists(), st.sampled_from([None, 1, 2, 3]), st.sampled_from([5, 10**6]))
    def test_keys_equal_streamed_pairs(self, left, right, cap, slab):
        # slab=5 cuts nearly every input into several slabs; 10**6 into one.
        blocker = ValueBlocker(frequent_key_cap=cap)
        expected, skipped = streamed(blocker, left, right)
        blocker.last_skipped_keys = -1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocking_module, "PAIR_SLAB", slab)
            keys = blocker.candidate_keys(left, right)
        assert keys.dtype == np.int64
        assert pairs_from_keys(keys, len(right)) == expected
        assert blocker.last_skipped_keys == skipped
        assert blocker.candidate_pairs(left, right) == expected

    @pytest.mark.parametrize("smaller_side", [3, 4])
    @pytest.mark.parametrize("larger_side", [4, 9])
    def test_cap_compares_the_smaller_posting_list(self, smaller_side, larger_side):
        """``min(posting) == cap`` keeps the key, ``cap + 1`` skips it — on either side."""
        cap = 3
        few = [f"shared {index:03d}" for index in range(smaller_side)]
        many = [f"shared {index + 500:03d}" for index in range(max(larger_side, smaller_side))]
        for left, right in ((few, many), (many, few)):
            blocker = ValueBlocker(use_lexicon=False, frequent_key_cap=cap)
            expected, skipped = streamed(blocker, left, right)
            assert pairs_from_keys(blocker.candidate_keys(left, right), len(right)) == expected
            assert blocker.last_skipped_keys == skipped
            # "shar", "sha", "har" ... are shared by every value: capped iff the
            # smaller side exceeds the cap, and only then are pairs lost.
            uncapped = ValueBlocker(use_lexicon=False, frequent_key_cap=None)
            assert (skipped > 0) == (smaller_side > cap)
            assert (len(expected) < len(uncapped.candidate_keys(left, right))) == (smaller_side > cap)

    def test_empty_sides_and_keyless_values(self):
        blocker = ValueBlocker()
        for left, right in (([], ["berlin"]), (["berlin"], []), ([], []), (["", None], ["  "])):
            keys = blocker.candidate_keys(left, right)
            assert keys.dtype == np.int64 and len(keys) == 0
            assert blocker.candidate_pairs(left, right) == []
        # A keyless value beside a keyed one proposes nothing and breaks nothing.
        assert blocker.candidate_pairs(["", "berlin"], ["berlin", None]) == [(1, 0)]

    def test_slabs_straddle_many_boundaries(self, monkeypatch):
        """One request whose raw expansion is cut into well over three slabs."""
        left = [f"station {index}" for index in range(60)]
        right = [f"station {index}" for index in range(30, 90)]
        blocker = ValueBlocker()
        expected, _ = streamed(blocker, left, right)
        assert len(expected) > 3000
        for slab in (7, 500, 10**6):
            monkeypatch.setattr(blocking_module, "PAIR_SLAB", slab)
            assert pairs_from_keys(blocker.candidate_keys(left, right), len(right)) == expected

    @settings(max_examples=60, deadline=None)
    @given(value_lists(min_size=1), value_lists(min_size=1))
    def test_auto_mode_engages_exactly_on_a_coverage_hole(self, left, right):
        blocker = ValueBlocker()
        matcher = BlockedValueMatcher(
            SimulatedTransformerEmbedder(model_name="graph"), blocker=blocker, semantic_mode="auto"
        )
        pairs, _ = streamed(blocker, left, right)
        covered_left = {pair[0] for pair in pairs}
        covered_right = {pair[1] for pair in pairs}
        expected = len(covered_left) < len(left) or len(covered_right) < len(right)
        keys = blocker.candidate_keys(left, right)
        assert matcher._semantic_engages(keys, len(left), len(right)) == expected


# -- components -------------------------------------------------------------------------
def reference_components(candidates):
    """``BlockedValueMatcher._connected_components`` as it was: an integer
    union-find over the sorted pair list, then one dict of pairs per root —
    components in order of first appearance of their earliest pair."""
    n_left = 1 + max(left_index for left_index, _ in candidates)
    n_right = 1 + max(right_index for _, right_index in candidates)
    parent = list(range(n_left + n_right))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    for left_index, right_index in candidates:
        left_root = find(left_index)
        right_root = find(n_left + right_index)
        if left_root != right_root:
            parent[right_root] = left_root
    pairs_by_root: Dict[int, List[Tuple[int, int]]] = {}
    for left_index, right_index in candidates:
        pairs_by_root.setdefault(find(left_index), []).append((left_index, right_index))
    components = []
    for pairs in pairs_by_root.values():
        component_left = sorted({left for left, _ in pairs})
        component_right = sorted({right for _, right in pairs})
        components.append((component_left, component_right, pairs))
    return components


def array_components(keys: np.ndarray, n_left: int, n_right: int):
    """The new partition in the reference's shape, through the matcher's own helpers."""
    left_used, pair_left = blocking_module._compact(keys // n_right, n_left)
    right_used, pair_right = blocking_module._compact(keys % n_right, n_right)
    _, (left_order, left_bounds), (right_order, right_bounds), (pair_order, pair_bounds) = _components(
        pair_left, pair_right, len(left_used), len(right_used)
    )
    components = []
    for component in range(len(pair_bounds) - 1):
        rows = left_order[left_bounds[component] : left_bounds[component + 1]]
        columns = right_order[right_bounds[component] : right_bounds[component + 1]]
        members = pair_order[pair_bounds[component] : pair_bounds[component + 1]]
        pairs = list(zip(left_used[pair_left[members]].tolist(), right_used[pair_right[members]].tolist()))
        # Ascending, or the matcher's binary search for cell coordinates is wrong.
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(columns) > 0)
        components.append((left_used[rows].tolist(), right_used[columns].tolist(), pairs))
    return components


@st.composite
def pair_keys(draw):
    n_left = draw(st.integers(1, 25))
    n_right = draw(st.integers(1, 25))
    keys = draw(st.lists(st.integers(0, n_left * n_right - 1), min_size=1, max_size=80, unique=True))
    return np.array(sorted(keys), dtype=np.int64), n_left, n_right


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(pair_keys())
    def test_partition_equals_reference_in_reference_order(self, drawn):
        keys, n_left, n_right = drawn
        expected = reference_components(pairs_from_keys(keys, n_right))
        assert array_components(keys, n_left, n_right) == expected

    def test_long_chain_needs_many_hooking_rounds(self):
        """A path graph is the labelling's worst case: one component, 400 nodes deep."""
        n = 200
        pairs = sorted([(index, index) for index in range(n)] + [(index + 1, index) for index in range(n - 1)])
        keys = np.array([left * n + right for left, right in pairs], dtype=np.int64)
        assert array_components(keys, n, n) == reference_components(pairs)
        # ... and the same chain reversed, so the smallest label starts at the far end.
        flipped = sorted((n - 1 - left, right) for left, right in pairs)
        keys = np.array([left * n + right for left, right in flipped], dtype=np.int64)
        assert array_components(keys, n, n) == reference_components(flipped)

    @settings(max_examples=60, deadline=None)
    @given(value_lists(min_size=1, max_size=20), value_lists(min_size=1, max_size=20), st.booleans())
    def test_matcher_reports_the_reference_component_cells(self, left, right, singleton_batching):
        blocker = ValueBlocker()
        matcher = BlockedValueMatcher(
            SimulatedTransformerEmbedder(model_name="graph"),
            blocker=blocker,
            singleton_batching=singleton_batching,
        )
        matches = matcher.match(left, right)
        pairs, skipped = streamed(blocker, left, right)
        statistics = matcher.last_statistics
        assert statistics.candidate_pairs == len(pairs)
        assert statistics.skipped_keys == skipped
        if not pairs:
            assert matches == [] and statistics.components == 0
            return
        expected = reference_components(pairs)
        assert statistics.component_cells == tuple(
            len(component_left) * len(component_right) for component_left, component_right, _ in expected
        )
        assert statistics.components == len(expected)
        assert statistics.largest_component == max(statistics.component_cells)
        assert statistics.pairs_scored == sum(statistics.component_cells)
        # Every match is a candidate cell; nobody is matched twice.
        cells = {(left[i], right[j]) for i, j in pairs}
        assert all((match.left, match.right) in cells for match in matches)
        # The dense legacy path over the same keys finds an assignment of the same
        # size and cost (which of two tied cells it takes is the solver's choice).
        dense = matcher.match_dense(left, right)
        assert len(dense) == len(matches)
        assert abs(sum(m.distance for m in dense) - sum(m.distance for m in matches)) <= 1e-9


# -- segmented top-k ----------------------------------------------------------------------
def _unit(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def reference_top_k(query_ids, candidate_ids, similarities, n_index, top_k, floor):
    """A stable argsort per query group — what the retired loop did — as sorted keys."""
    keys = []
    bounds = np.flatnonzero(np.r_[True, query_ids[1:] != query_ids[:-1], True])
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        group = similarities[start:end]
        for position in np.argsort(-group, kind="stable")[:top_k].tolist():
            if group[position] > floor:
                keys.append(int(query_ids[start]) * n_index + int(candidate_ids[start + position]))
    return sorted(keys)


def _blocker(top_k: int, floor: float) -> SemanticBlocker:
    return SemanticBlocker(
        SimulatedTransformerEmbedder(model_name="graph"), top_k=top_k, min_similarity=floor
    )


@st.composite
def probe_pairs(draw):
    """Sorted ``(query, candidate)`` pairs with group sizes around ``top_k`` and
    duplicate index rows, so ranks tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_queries = draw(st.integers(1, 12))
    n_index = draw(st.integers(1, 12))
    dimension = draw(st.sampled_from([2, 5, 16]))
    base = _unit(rng.standard_normal((max(1, n_index // 2), dimension)))
    index = base[rng.integers(0, len(base), size=n_index)]
    queries = _unit(rng.standard_normal((n_queries, dimension)))
    wanted = draw(
        st.lists(st.integers(0, n_queries * n_index - 1), min_size=0, max_size=60, unique=True)
    )
    keys = np.array(sorted(wanted), dtype=np.int64)
    return keys // n_index, keys % n_index, queries, index


class TestSegmentedTopK:
    @settings(max_examples=200, deadline=None)
    @given(
        probe_pairs(),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.3, 0.95]),
        st.sampled_from([1, 30, 4_000_000]),
        st.sampled_from([0, 100, 10**9]),
    )
    def test_kernel_equals_stable_argsort_per_group(self, drawn, top_k, floor, block_cells, cells_per_pair):
        # block_cells=1: one query row per GEMM block / one pair per gather slab, so
        # every input crosses a boundary at every row; cells_per_pair 0 forces the
        # GEMM, 10**9 the gathered product.  0.95 puts whole groups below the floor.
        query_ids, candidate_ids, queries, index = drawn
        blocker = _blocker(top_k, floor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
            patch.setattr(ann_module, "GEMM_CELLS_PER_PAIR", cells_per_pair)
            similarities = _pair_similarities(query_ids, candidate_ids, queries, index)
            keys = blocker._select_top_k(query_ids, candidate_ids, queries, index)
        expected = reference_top_k(query_ids, candidate_ids, similarities, len(index), top_k, floor)
        assert keys.tolist() == expected
        assert blocker.last_probe_candidates == len(query_ids)

    @pytest.mark.parametrize("group_size", [2, 3, 4])
    def test_groups_shorter_equal_and_longer_than_top_k(self, group_size):
        """``top_k = 3`` against groups of 2, 3 and 4 identical candidates: the
        cut keeps the lowest candidate indices, never more than the group holds."""
        index = np.tile(_unit(np.array([[1.0, 2.0, 3.0]])), (6, 1))
        queries = index[:2]
        candidates = np.array([1, 2, 4, 5][:group_size])
        query_ids = np.repeat([0, 1], group_size)
        candidate_ids = np.tile(candidates, 2)
        similarities = _pair_similarities(query_ids, candidate_ids, queries, index)
        keys = _blocker(3, 0.0)._select_top_k(query_ids, candidate_ids, queries, index)
        assert keys.tolist() == reference_top_k(query_ids, candidate_ids, similarities, 6, 3, 0.0)
        assert len(keys) == 2 * min(3, group_size)

    def test_all_below_floor_returns_no_keys(self):
        queries = _unit(np.array([[1.0, 0.0], [0.0, 1.0]]))
        index = _unit(np.array([[-1.0, 0.1], [0.1, -1.0], [-1.0, -1.0]]))
        query_ids = np.array([0, 0, 0, 1, 1, 1])
        candidate_ids = np.array([0, 1, 2, 0, 1, 2])
        blocker = _blocker(2, 0.5)
        keys = blocker._select_top_k(query_ids, candidate_ids, queries, index)
        assert keys.dtype == np.int64 and len(keys) == 0
        assert blocker.last_probe_candidates == 6
        empty = np.empty(0, dtype=np.int64)
        assert len(blocker._select_top_k(empty, empty, queries, index)) == 0

    @pytest.mark.parametrize("cells_per_pair", [0, 10**9])
    @pytest.mark.parametrize("block_cells", [64, 1000, 4_000_000])
    def test_pair_similarities_agree_with_the_gathered_product(self, monkeypatch, block_cells, cells_per_pair):
        """Both routes, across ≥ 3 block boundaries, against ``index[c] @ query[q]``."""
        rng = np.random.default_rng(7)
        queries = _unit(rng.standard_normal((40, 24)))
        index = _unit(rng.standard_normal((30, 24)))
        keys = np.sort(rng.choice(40 * 30, size=500, replace=False))
        query_ids, candidate_ids = keys // 30, keys % 30
        monkeypatch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(ann_module, "GEMM_CELLS_PER_PAIR", cells_per_pair)
        similarities = _pair_similarities(query_ids, candidate_ids, queries, index)
        gathered = np.array([index[c] @ queries[q] for q, c in zip(query_ids, candidate_ids)])
        assert np.max(np.abs(similarities - gathered)) <= 1e-12

    def test_density_picks_the_route(self, monkeypatch):
        """Dense probes take the block GEMM, sparse ones the gathered product."""
        calls = []
        real_einsum = np.einsum
        monkeypatch.setattr(
            ann_module.np, "einsum", lambda *args, **kwargs: calls.append(1) or real_einsum(*args, **kwargs)
        )
        rng = np.random.default_rng(3)
        queries = _unit(rng.standard_normal((50, 8)))
        index = _unit(rng.standard_normal((50, 8)))
        dense = np.arange(0, 2500, 2)  # one pair per 2 cells
        _pair_similarities(dense // 50, dense % 50, queries, index)
        assert calls == []
        sparse = np.arange(0, 2500, 500)  # one pair per 500 cells
        _pair_similarities(sparse // 50, sparse % 50, queries, index)
        assert calls == [1]
