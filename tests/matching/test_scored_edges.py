"""Differential tests of the tiled exact pass and of the scored-edge seam.

:func:`repro.matching.ann.scored_candidates` is one GEMM per block of left
rows from which the surface keys are scored and the exact top-k is cut in both
directions; ``BlockedValueMatcher`` solves every component from those scored
edges.  The references here are what they replaced:

* ``_brute_force_reference`` — the row/column sort loops over one dense
  similarity matrix — for the semantic keys;
* ``reference_match`` — the per-component ``cosine_distance_matrix`` +
  ``putmask`` scoring the matcher ran until this file was written — for the
  matches.

Ties are decided by the similarities *as computed*, and a BLAS result depends
on the operand's position in the last bit, so the tie cases use dyadic vectors
(entries k/4, d = 8): every dot product is exact in float64 whatever the block
shape, and bit-identical duplicate rows tie exactly in every block.  The block
budget is patched so the left side spans one, three-plus and ``n_left`` blocks
— the column direction is merged across blocks nowhere else.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.ann as ann_module
import repro.matching.blocking as blocking_module
from repro.embeddings import MistralEmbedder
from repro.embeddings.transformer import SimulatedTransformerEmbedder
from repro.matching.ann import (
    SemanticBlocker,
    _brute_force_reference,
    pairs_from_keys,
    scored_candidates,
)
from repro.matching.blocking import (
    PROHIBITIVE_COST,
    BlockedValueMatcher,
    ValueBlocker,
    _compact,
    _components,
)
from repro.matching.distance import cosine_distance_matrix
from repro.utils.executor import ExecutorConfig
from test_candidate_graph import value_lists
from test_parallel_matching import _exact, _workload

EMPTY = np.empty(0, dtype=np.int64)


def _unit(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _gathered(left, right, keys):
    """The row-wise product of every key's two vectors."""
    left_ids, right_ids = np.divmod(keys, len(right))
    return np.einsum("ij,ij->i", left[left_ids], right[right_ids])


def _semantic_pairs(left, right, surface, top_k, floor):
    keys, similarities, semantic = scored_candidates(left, right, surface, top_k, floor)
    assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)  # sorted-unique
    assert len(keys) == len(similarities) == len(semantic)
    return keys, similarities, set(pairs_from_keys(keys[semantic], right.shape[0]))


@st.composite
def dyadic_sides(draw):
    """Two duplicate-heavy sides of exactly representable vectors, some surface
    keys, and a block budget cutting the left side into 1, >= 3 or n blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_left, n_right = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    base = rng.integers(-2, 3, size=(draw(st.integers(1, 5)), 8)) / 4.0
    left = base[rng.integers(0, len(base), size=n_left)]
    right = base[rng.integers(0, len(base), size=n_right)]
    if draw(st.booleans()):  # one side without duplicates
        right = rng.integers(-2, 3, size=(n_right, 8)) / 4.0
    wanted = draw(st.lists(st.integers(0, n_left * n_right - 1), max_size=40, unique=True))
    block_cells = draw(st.sampled_from([1, max(1, n_left // 3) * n_right, 4_000_000]))
    return left, right, np.array(sorted(wanted), dtype=np.int64), block_cells


class TestExactPass:
    @settings(max_examples=250, deadline=None)
    @given(dyadic_sides(), st.sampled_from(["below", "equal", "above"]), st.sampled_from([0.0, 0.3]))
    def test_semantic_keys_equal_the_loop_oracle(self, drawn, k_rule, floor):
        left, right, surface, block_cells = drawn
        smaller = min(len(left), len(right))
        larger = max(len(left), len(right))
        top_k = {"below": max(1, smaller - 1), "equal": smaller, "above": larger + 2}[k_rule]
        expected = _brute_force_reference(left, right, top_k=top_k, min_similarity=floor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
            keys, similarities, semantic = _semantic_pairs(left, right, surface, top_k, floor)
            alone, _, alone_semantic = _semantic_pairs(left, right, EMPTY, top_k, floor)
        assert semantic == alone_semantic == expected
        # The union keeps every surface key, whatever it scores, and adds nothing else.
        assert set(keys.tolist()) == set(surface.tolist()) | {q * len(right) + c for q, c in expected}
        assert set(alone.tolist()) == {q * len(right) + c for q, c in expected}
        # Dyadic products are exact, so the similarities are too.
        assert np.array_equal(similarities, _gathered(left, right, keys))

    def test_ties_go_to_the_lowest_index_in_both_directions(self):
        """All rows identical: every cell ties, so each row keeps columns
        0..k-1 and each column rows 0..k-1 — across block boundaries too."""
        left = np.tile(np.array([[0.5, 0.25, 0.0, 0.75]]), (7, 1))
        right = np.tile(np.array([[0.5, 0.25, 0.0, 0.75]]), (6, 1))
        expected = {(q, c) for q in range(7) for c in range(6) if q < 2 or c < 2}
        for block_cells in (1, 12, 4_000_000):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
                _, _, semantic = _semantic_pairs(left, right, EMPTY, 2, 0.0)
            assert semantic == expected == _brute_force_reference(left, right, top_k=2, min_similarity=0.0)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_an_empty_side_proposes_nothing(self, shape):
        left, right = np.zeros((shape[0], 4)), np.zeros((shape[1], 4))
        keys, similarities, semantic = scored_candidates(left, right, EMPTY, 3, 0.0)
        assert keys.dtype == np.int64 and len(keys) == len(similarities) == len(semantic) == 0

    @pytest.mark.parametrize("block_cells", [30, 95, 4_000_000])
    def test_similarities_agree_with_the_gathered_product(self, monkeypatch, block_cells):
        rng = np.random.default_rng(11)
        left, right = _unit(rng.standard_normal((43, 24))), _unit(rng.standard_normal((30, 24)))
        surface = np.sort(rng.choice(43 * 30, size=300, replace=False))
        monkeypatch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
        keys, similarities, _ = _semantic_pairs(left, right, surface, 4, 0.1)
        gathered = np.array([right[c] @ left[q] for q, c in zip(keys // 30, keys % 30)])
        assert np.max(np.abs(similarities - gathered)) <= 1e-12

    def test_surface_keys_on_the_edges_of_every_block(self, monkeypatch):
        """Five blocks of three left rows; a surface key in the first and the last
        cell of each block's first and last row — where a slice off by one
        would read the neighbouring block's similarity."""
        rng = np.random.default_rng(5)
        n_left, n_right, rows_per_block = 15, 9, 3
        left = rng.integers(-2, 3, size=(n_left, 8)) / 4.0
        right = rng.integers(-2, 3, size=(n_right, 8)) / 4.0
        monkeypatch.setattr(ann_module, "PAIR_BLOCK_CELLS", rows_per_block * n_right)
        edge_rows = [first + offset for first in range(0, n_left, rows_per_block) for offset in (0, 2)]
        surface = np.array([row * n_right + column for row in edge_rows for column in (0, n_right - 1)])
        calls = _count_gemms(monkeypatch)
        keys, similarities, semantic = scored_candidates(_Counted.of(left), right, surface, 2, 0.3)
        assert calls == [1] * 5  # one GEMM per block
        assert set(surface.tolist()) <= set(keys.tolist())
        assert np.array_equal(similarities, _gathered(left, right, keys))
        assert set(pairs_from_keys(keys[semantic], n_right)) == _brute_force_reference(
            left, right, top_k=2, min_similarity=0.3
        )

    @settings(max_examples=60, deadline=None)
    @given(value_lists(min_size=1), value_lists(min_size=1), st.integers(1, 4), st.sampled_from([0.0, 0.3]))
    def test_blocker_keys_equal_the_oracle_on_corrupted_values(self, left, right, top_k, floor):
        """Through the embedder, one block: the same GEMM the oracle runs, so
        duplicate values tie on the same bits."""
        embedder = SimulatedTransformerEmbedder(model_name="graph")
        blocker = SemanticBlocker(embedder, top_k=top_k, min_similarity=floor)
        pairs = blocker.candidate_pairs(left, right)
        assert blocker.last_index_kind == "brute" and blocker.index_builds == 0
        assert blocker.last_semantic_pairs == len(pairs) and blocker.last_probe_candidates == 0
        assert set(pairs) == _brute_force_reference(
            embedder.embed_many(left), embedder.embed_many(right), top_k=top_k, min_similarity=floor
        )


# -- routing -------------------------------------------------------------------------
class TestRouting:
    def _kind(self, n_values: int = 80, **kwargs) -> str:
        blocker = SemanticBlocker(SimulatedTransformerEmbedder(model_name="graph"), **kwargs)
        blocker.candidate_keys(
            [f"value number {index}" for index in range(n_values)],
            [f"entry number {index}" for index in range(n_values)],
        )
        assert blocker.last_used_lsh == (blocker.last_index_kind != "brute")
        assert (blocker.index_builds == 0) == (blocker.last_index_kind == "brute")
        return blocker.last_index_kind

    def test_default_shape_runs_exact_and_sixteen_bits_the_index(self):
        assert self._kind() == "brute"  # 8 x 8: probe share 0.28
        assert self._kind(n_bits=13) == "brute"  # 8 * 14 / 8192 = 0.0137
        assert self._kind(n_bits=14, skew_threshold=1.0) == "lsh"  # 8 * 15 / 16384 = 0.0073
        assert self._kind(n_bits=16, skew_threshold=1.0) == "lsh"
        assert self._kind(n_tables=1, n_bits=11, skew_threshold=1.0) == "lsh"  # 12 / 2048

    def test_ivf_share_follows_the_cluster_count(self):
        blocker = SemanticBlocker(SimulatedTransformerEmbedder(model_name="graph"), ann_index="ivf")
        assert blocker._runs_exact(160_000, 200_000)  # 4 / 400 clusters = 0.01
        assert not blocker._runs_exact(170_000, 200_000)  # 4 / 412
        assert blocker._runs_exact(100, 10**7)  # the smaller side's index is the dense one
        assert self._kind(ann_index="ivf") == "brute"

    def test_an_explicit_cutoff_keeps_its_meaning(self):
        assert self._kind(brute_force_cells=80 * 80) == "brute"
        assert self._kind(brute_force_cells=80 * 80 - 1, skew_threshold=1.0) == "lsh"
        assert self._kind(brute_force_cells=0, ann_index="ivf") == "ivf"
        assert self._kind(brute_force_cells=10**9, n_bits=16) == "brute"
        with pytest.raises(ValueError):
            SemanticBlocker(SimulatedTransformerEmbedder(model_name="graph"), brute_force_cells=-1)

    def test_index_routes_score_the_union_they_return(self):
        """Off the exact route the keys are surface ∪ index and every one is scored."""
        embedder = SimulatedTransformerEmbedder(model_name="graph")
        left = [f"value number {index}" for index in range(60)]
        right = [f"value number {index}" for index in range(30, 90)]
        surface = ValueBlocker().candidate_keys(left, right)
        for kind in ("lsh", "ivf"):
            blocker = SemanticBlocker(embedder, brute_force_cells=0, ann_index=kind, skew_threshold=1.0)
            semantic = blocker.candidate_keys(left, right)
            keys, similarities = blocker.scored_keys(left, right, surface)
            assert blocker.last_index_kind == kind and blocker.last_semantic_pairs == len(semantic)
            assert keys.tolist() == sorted(set(surface.tolist()) | set(semantic.tolist()))
            gathered = _gathered(embedder.embed_many(left), embedder.embed_many(right), keys)
            assert np.max(np.abs(similarities - gathered)) <= 1e-12


# -- the seam: matches from scored edges ---------------------------------------------
def _old_score_and_solve_component(payload, left_matrix, right_matrix, solver, threshold):
    """``blocking._score_and_solve_component`` as it was: one GEMM and one
    ``putmask`` per component.  Kept here as the oracle of the scored-edge path."""
    left_rows, right_rows, pair_rows, pair_cols = payload
    cost = cosine_distance_matrix(left_matrix[left_rows], right_matrix[right_rows])
    forbidden = np.ones(cost.shape, dtype=bool)
    forbidden[pair_rows, pair_cols] = False
    np.putmask(cost, forbidden, PROHIBITIVE_COST)
    assignment = [(0, 0)] if cost.shape == (1, 1) else solver.solve(cost)
    return [
        (row, column, float(cost[row, column])) for row, column in assignment if cost[row, column] < threshold
    ]


def reference_match(matcher: BlockedValueMatcher, left, right) -> List[Tuple[object, object, float]]:
    """The old ``match`` over the matcher's own candidate keys: embed the used
    values, score every component on its own, solve it, threshold."""
    edges = matcher._scored_edges(left, right)
    if edges is None:
        return []
    keys, _, _ = edges
    left_used, pair_left = _compact(keys // len(right), len(left))
    right_used, pair_right = _compact(keys % len(right), len(right))
    left_vectors = matcher.embedder.embed_many([left[i] for i in left_used.tolist()])
    right_vectors = matcher.embedder.embed_many([right[i] for i in right_used.tolist()])
    _, (left_order, left_bounds), (right_order, right_bounds), (pair_order, pair_bounds) = _components(
        pair_left, pair_right, len(left_used), len(right_used)
    )
    accepted = []
    for component in range(len(pair_bounds) - 1):
        rows = left_order[left_bounds[component] : left_bounds[component + 1]]
        columns = right_order[right_bounds[component] : right_bounds[component + 1]]
        members = pair_order[pair_bounds[component] : pair_bounds[component + 1]]
        local_rows = np.searchsorted(rows, pair_left[members])
        local_columns = np.searchsorted(columns, pair_right[members])
        payload = (rows, columns, local_rows, local_columns)
        for row, column, distance in _old_score_and_solve_component(
            payload, left_vectors, right_vectors, matcher.solver, matcher.threshold
        ):
            accepted.append((left[left_used[rows[row]]], right[right_used[columns[column]]], distance))
    return sorted(accepted, key=lambda match: (match[2], str(match[0]), str(match[1])))


def _matchers(embedder, **kwargs):
    """Surface only, semantic on (exact pass) and semantic through the LSH index."""
    return [
        BlockedValueMatcher(embedder, semantic_blocker=blocker, **kwargs)
        for blocker in (
            None,
            SemanticBlocker(embedder, min_similarity=0.3),
            SemanticBlocker(embedder, min_similarity=0.3, brute_force_cells=0),
        )
    ]


class TestScoredEdgeSeam:
    def test_fixture_matches_equal_the_per_component_scoring(self):
        embedder = MistralEmbedder()
        for n_groups, group_size in ((12, 3), (6, 5), (3, 1)):
            left, right = _workload(n_groups, group_size)
            for matcher in _matchers(embedder, threshold=0.7):
                matches = {match.as_tuple(): match.distance for match in matcher.match(left, right)}
                reference = {match[:2]: match[2] for match in reference_match(matcher, left, right)}
                assert matches and set(matches) == set(reference)
                assert max(abs(matches[pair] - reference[pair]) for pair in matches) <= 1e-12
                assert matcher.last_statistics.components > 1

    @settings(max_examples=60, deadline=None)
    @given(value_lists(min_size=1, max_size=20), value_lists(min_size=1, max_size=20), st.booleans())
    def test_generated_matches_equal_the_per_component_scoring(self, left, right, singleton_batching):
        # Duplicate values tie exactly, and which of two tied cells is taken is
        # the solver's choice: same size, same cost, every match an old-path distance.
        embedder = SimulatedTransformerEmbedder(model_name="graph")
        for matcher in _matchers(embedder, threshold=0.7, singleton_batching=singleton_batching):
            matches = matcher.match(left, right)
            reference = reference_match(matcher, left, right)
            assert len(matches) == len(reference)
            assert abs(sum(m.distance for m in matches) - sum(m[2] for m in reference)) <= 1e-9
            for match in matches:
                assert match.distance == pytest.approx(
                    float(np.clip(1.0 - embedder.embed(match.left) @ embedder.embed(match.right), 0.0, 1.0)),
                    abs=1e-12,
                )

    @pytest.mark.parametrize("backend,workers", [("thread", 3)])
    def test_backends_agree_on_scored_edges(self, backend, workers):
        embedder = MistralEmbedder()
        left, right = _workload()
        executor = ExecutorConfig(backend=backend, max_workers=workers, min_parallel_items=0, batch_size=2)
        for serial, pooled in zip(_matchers(embedder), _matchers(embedder, executor=executor)):
            assert _exact(pooled.match(left, right)) == _exact(serial.match(left, right))
            assert _exact(pooled.match_dense(left, right)) == _exact(serial.match_dense(left, right))

    def test_dense_path_is_the_one_component_call(self):
        embedder = MistralEmbedder()
        left, right = _workload()
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        component = matcher.match(left, right)
        cells = matcher.last_statistics.component_cells
        dense = matcher.match_dense(left, right)
        statistics = matcher.last_statistics
        assert _exact(dense) == _exact(component)
        assert statistics.components == 1 and len(cells) > 1
        assert statistics.component_cells == (statistics.largest_component,) == (statistics.pairs_scored,)
        assert statistics.largest_component > sum(cells)


# -- one similarity pass per column pair -----------------------------------------------
class _Counted(np.ndarray):
    """An embedding matrix that reports every ``@`` it is the left operand of."""

    calls: list = []

    @classmethod
    def of(cls, array: np.ndarray) -> "_Counted":
        return np.asarray(array).view(cls)

    def __matmul__(self, other):
        _Counted.calls.append(1)
        return np.asarray(self) @ np.asarray(other)


def _count_gemms(monkeypatch) -> list:
    calls: list = []
    monkeypatch.setattr(_Counted, "calls", calls)
    return calls


class _CountedEmbedder(MistralEmbedder):
    def embed_many(self, values):
        return _Counted.of(super().embed_many(values))


class TestOnePassPerColumnPair:
    def test_match_runs_one_gemm_per_block_and_none_per_component(self, monkeypatch):
        embedder = _CountedEmbedder()
        left, right = _workload(n_groups=12, group_size=3)
        matcher = BlockedValueMatcher(
            embedder, threshold=0.7, semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3)
        )
        # Nothing scores outside the pass: no per-component matrix, no gather route.
        assert not hasattr(blocking_module, "cosine_distance_matrix")
        monkeypatch.setattr(ann_module, "_pair_similarities", _refuse("_pair_similarities"))
        monkeypatch.setattr(blocking_module, "_pair_similarities", _refuse("_pair_similarities"))
        for block_cells, blocks in ((4_000_000, 1), (len(right) * 10, -(-len(left) // 10))):
            monkeypatch.setattr(ann_module, "PAIR_BLOCK_CELLS", block_cells)
            calls = _count_gemms(monkeypatch)
            matches = matcher.match(left, right)
            statistics = matcher.last_statistics
            assert calls == [1] * blocks
            # General components were solved — from edges, without another GEMM.
            assert statistics.largest_component > 1000 and statistics.ann_index_kind == "brute"
            assert matches

    def test_surface_only_match_scores_its_keys_once(self, monkeypatch):
        """Channel off: `_pair_similarities` over the keys, once, and still no
        per-component scoring."""
        embedder = MistralEmbedder()
        left, right = _workload()
        calls = []
        real = blocking_module._pair_similarities
        monkeypatch.setattr(
            blocking_module, "_pair_similarities", lambda *args: calls.append(len(args[0])) or real(*args)
        )
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matcher.match(left, right)
        assert calls == [matcher.last_statistics.candidate_pairs]


def _refuse(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran on the exact route")

    return refuse
