"""Equivalence tests for the vectorised ANN hot paths.

The PR that vectorised :mod:`repro.matching.ann` kept the original per-query
Python loops as module-level reference implementations
(:func:`~repro.matching.ann._probe_direction_reference` and
:func:`~repro.matching.ann._brute_force_reference`) precisely so this file
can assert the contract the vectorisation promised: **byte-identical
candidate sets and tie-break order** across seeds, table counts and
adversarial (duplicate-heavy, skewed) vocabularies.  The benchmark reuses the
same references as its speedup baseline.

Vocabularies are generated directly as unit vectors — the probe operates on
embeddings, so generating the vectors (instead of texts routed through an
embedder) lets the tests plant exact duplicates and tight clusters, the cases
where tie-breaking actually bites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching.ann import (
    IVF_PROBES,
    SemanticBlocker,
    _brute_force_reference,
    _probe_direction_reference,
    pairs_from_keys,
    scored_candidates,
)
from repro.embeddings.transformer import SimulatedTransformerEmbedder


def _unit(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vectors / norms


def random_vectors(n: int, dimension: int, seed: int) -> np.ndarray:
    """Generic vocabulary: i.i.d. unit vectors."""
    rng = np.random.default_rng(seed)
    return _unit(rng.standard_normal((n, dimension)))


def duplicate_heavy_vectors(n: int, dimension: int, seed: int) -> np.ndarray:
    """Few distinct vectors, many exact repeats — maximal tie pressure."""
    rng = np.random.default_rng(seed)
    base = _unit(rng.standard_normal((max(2, n // 8), dimension)))
    return base[rng.integers(0, base.shape[0], size=n)]


def skewed_vectors(n: int, dimension: int, seed: int) -> np.ndarray:
    """Most vectors huddle around one direction — degenerate LSH buckets."""
    rng = np.random.default_rng(seed)
    anchor = _unit(rng.standard_normal((1, dimension)))
    noise = 0.05 * rng.standard_normal((n, dimension))
    clustered = _unit(anchor + noise)
    outliers = _unit(rng.standard_normal((max(1, n // 10), dimension)))
    clustered[: outliers.shape[0]] = outliers
    return clustered


VOCABULARIES = {
    "random": random_vectors,
    "duplicate_heavy": duplicate_heavy_vectors,
    "skewed": skewed_vectors,
}


def _embedder():
    return SimulatedTransformerEmbedder(model_name="equiv", noise_level=0.1)


def _probe(blocker, queries, query_codes, index, index_codes):
    """``_probe_direction``'s key array as the set of pairs the oracles return."""
    keys = blocker._probe_direction(queries, query_codes, index, index_codes)
    assert np.array_equal(keys, np.unique(keys))  # sorted-unique: the key contract
    return set(pairs_from_keys(keys, index.shape[0]))


def _brute(blocker, left, right):
    keys, _, semantic = scored_candidates(
        left, right, np.empty(0, dtype=np.int64), blocker.top_k, blocker.min_similarity
    )
    assert semantic.all()  # no surface keys: every key is the top-k's
    return set(pairs_from_keys(keys, right.shape[0]))


class TestProbeEquivalence:
    """Vectorised ``_probe_direction`` == the removed per-query loop."""

    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("seed", [0, 7, 97])
    @pytest.mark.parametrize("n_tables,n_bits", [(1, 4), (4, 6), (8, 8)])
    def test_probe_matches_reference(self, vocabulary, seed, n_tables, n_bits):
        make = VOCABULARIES[vocabulary]
        queries = make(90, 24, seed)
        index = make(110, 24, seed + 1)
        blocker = SemanticBlocker(
            _embedder(),
            top_k=3,
            n_tables=n_tables,
            n_bits=n_bits,
            seed=seed,
            min_similarity=0.1,
        )
        planes = blocker._hyperplanes(queries.shape[1])
        query_codes = blocker._codes(queries, planes)
        index_codes = blocker._codes(index, planes)
        vectorised = _probe(blocker, queries, query_codes, index, index_codes)
        reference = _probe_direction_reference(
            queries,
            query_codes,
            index,
            index_codes,
            n_tables=n_tables,
            n_bits=n_bits,
            top_k=blocker.top_k,
            min_similarity=blocker.min_similarity,
            # Bit-identical duplicate rows tie, and the last bit of a BLAS
            # result decides a tie: those fixtures rank with the kernel's own
            # similarities (the tie rule of repro.matching.ann); the others
            # keep the gathered matvec as an independent check of them.
            shared_similarities=vocabulary == "duplicate_heavy",
        )
        assert vectorised == reference

    def test_exact_duplicate_ties_break_identically(self):
        """All-duplicate vocabularies put every rank boundary on a tie."""
        base = random_vectors(3, 16, seed=5)
        queries = base[np.zeros(40, dtype=np.int64)]
        index = base[np.tile(np.arange(3), 20)]
        blocker = SemanticBlocker(_embedder(), top_k=4, n_bits=4, seed=5)
        planes = blocker._hyperplanes(16)
        query_codes = blocker._codes(queries, planes)
        index_codes = blocker._codes(index, planes)
        vectorised = _probe(blocker, queries, query_codes, index, index_codes)
        assert vectorised == _probe_direction_reference(
            queries,
            query_codes,
            index,
            index_codes,
            n_tables=blocker.n_tables,
            n_bits=blocker.n_bits,
            top_k=blocker.top_k,
            min_similarity=blocker.min_similarity,
            shared_similarities=True,
        )

    def test_wide_codes_match_reference(self):
        """``n_bits > 20`` routes around the dense offset table.

        The searchsorted fallback branch must stay byte-identical too — it is
        the path the dense-table property tests above never touch.
        """
        queries = random_vectors(60, 24, seed=11)
        index = random_vectors(80, 24, seed=12)
        blocker = SemanticBlocker(
            _embedder(), top_k=3, n_tables=2, n_bits=22, seed=11, min_similarity=0.1
        )
        planes = blocker._hyperplanes(24)
        query_codes = blocker._codes(queries, planes)
        index_codes = blocker._codes(index, planes)
        vectorised = _probe(blocker, queries, query_codes, index, index_codes)
        assert vectorised == _probe_direction_reference(
            queries,
            query_codes,
            index,
            index_codes,
            n_tables=2,
            n_bits=22,
            top_k=3,
            min_similarity=0.1,
        )

    def test_probe_counts_candidates(self):
        queries = random_vectors(50, 16, seed=1)
        index = random_vectors(50, 16, seed=2)
        blocker = SemanticBlocker(_embedder(), n_bits=4, seed=1)
        planes = blocker._hyperplanes(16)
        blocker._probe_direction(
            queries, blocker._codes(queries, planes), index, blocker._codes(index, planes)
        )
        assert blocker.last_probe_candidates > 0


class TestBruteForceEquivalence:
    """The tiled exact pass == the removed row/column sort loops."""

    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("top_k", [1, 3, 8])
    def test_brute_force_matches_reference(self, vocabulary, seed, top_k):
        make = VOCABULARIES[vocabulary]
        left = make(70, 24, seed)
        right = make(55, 24, seed + 1)
        blocker = SemanticBlocker(_embedder(), top_k=top_k, min_similarity=0.1)
        assert _brute(blocker, left, right) == _brute_force_reference(
            left, right, top_k=top_k, min_similarity=0.1
        )

    def test_quantised_ties_break_identically(self):
        """Coarse-grid vectors force exact similarity ties across columns."""
        rng = np.random.default_rng(3)
        left = _unit(rng.integers(0, 2, size=(40, 6)).astype(np.float64) + 0.5)
        right = _unit(rng.integers(0, 2, size=(40, 6)).astype(np.float64) + 0.5)
        for top_k in (1, 2, 5):
            blocker = SemanticBlocker(_embedder(), top_k=top_k)
            assert _brute(blocker, left, right) == _brute_force_reference(
                left, right, top_k=top_k, min_similarity=0.0
            )

    def test_top_k_wider_than_matrix(self):
        left = random_vectors(6, 8, seed=0)
        right = random_vectors(4, 8, seed=1)
        blocker = SemanticBlocker(_embedder(), top_k=50, min_similarity=0.05)
        assert _brute(blocker, left, right) == _brute_force_reference(
            left, right, top_k=50, min_similarity=0.05
        )


class TestIvfIndex:
    def _blocker(self, **kwargs):
        kwargs.setdefault("brute_force_cells", 0)
        return SemanticBlocker(_embedder(), **kwargs)

    def test_forced_ivf_is_deterministic(self):
        values = [f"value number {index}" for index in range(120)]
        others = [f"entry number {index}" for index in range(120)]
        first = self._blocker(ann_index="ivf", seed=11)
        second = self._blocker(ann_index="ivf", seed=11)
        pairs = first.candidate_pairs(values, others)
        assert first.last_index_kind == "ivf"
        assert first.last_used_lsh  # "an index ran" compatibility flag
        assert pairs == second.candidate_pairs(values, others)
        assert pairs == first.candidate_pairs(values, others)

    @pytest.mark.parametrize("ann_index", ["lsh", "ivf"])
    def test_every_call_rebuilds_both_sides_identically(self, ann_index):
        values = [f"rebuilt value {index}" for index in range(90)]
        others = [f"rebuilt entry {index}" for index in range(90)]
        blocker = self._blocker(ann_index=ann_index, skew_threshold=1.0)
        first = blocker.candidate_pairs(values, others)
        assert (blocker.last_index_kind, blocker.index_builds) == (ann_index, 2)
        assert blocker.candidate_pairs(values, others) == first
        assert blocker.index_builds == 4

    def test_ivf_recovers_identity_neighbours(self):
        """Every value's own duplicate must survive IVF candidate pruning."""
        values = [f"shared city {index}" for index in range(150)]
        blocker = self._blocker(ann_index="ivf", top_k=3)
        pairs = blocker.candidate_pairs(values, list(values))
        assert {(index, index) for index in range(150)} <= set(pairs)

    def test_ivf_probe_matches_bruteforce_on_tight_clusters(self):
        """With every cluster probed, IVF degenerates to exact top-k."""
        vectors = random_vectors(IVF_PROBES, 16, seed=4)  # n_clusters <= IVF_PROBES
        blocker = self._blocker(ann_index="ivf", top_k=2, min_similarity=0.0)
        pairs = set(pairs_from_keys(blocker._ivf_probe(vectors, vectors), len(vectors)))
        exact = {
            (q, c)
            for q, c in _brute_force_reference(
                vectors, vectors, top_k=2, min_similarity=0.0
            )
            # reference probes both directions; _ivf_probe only one
            if (q, c)
            in _probe_rows(vectors, top_k=2)
        }
        assert pairs == exact

    def test_skew_fallback_engages_and_counts(self):
        # 200 near-identical strings: one dominant LSH bucket per table.
        values = ["the same repeated phrase"] * 200
        others = [f"distinct entry {index}" for index in range(200)]
        blocker = self._blocker(ann_index="lsh", top_k=2)
        blocker.candidate_pairs(values, others)
        assert blocker.last_bucket_skew > blocker.skew_threshold
        assert blocker.last_index_kind == "ivf"
        assert blocker.skew_fallbacks == 1

    def test_uniform_vocabulary_stays_on_lsh(self):
        values = [f"left item {index}" for index in range(100)]
        others = [f"right item {index}" for index in range(100)]
        blocker = self._blocker(ann_index="lsh")
        blocker.candidate_pairs(values, others)
        assert blocker.last_index_kind in ("lsh", "ivf")
        if blocker.last_index_kind == "lsh":
            assert blocker.skew_fallbacks == 0

    def test_skew_threshold_one_disables_fallback(self):
        values = ["the same repeated phrase"] * 200
        others = [f"distinct entry {index}" for index in range(200)]
        blocker = self._blocker(ann_index="lsh", skew_threshold=1.0)
        blocker.candidate_pairs(values, others)
        assert blocker.last_index_kind == "lsh"
        assert blocker.skew_fallbacks == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            SemanticBlocker(_embedder(), ann_index="faiss")
        with pytest.raises(ValueError):
            SemanticBlocker(_embedder(), skew_threshold=0.0)
        with pytest.raises(ValueError):
            SemanticBlocker(_embedder(), skew_threshold=1.5)


def _probe_rows(vectors: np.ndarray, *, top_k: int):
    """Row-direction exact top-k pairs (helper for the one-direction check)."""
    similarities = vectors @ vectors.T
    order = np.argsort(-similarities, axis=1, kind="stable")[:, :top_k]
    return {
        (row, int(column))
        for row in range(vectors.shape[0])
        for column in order[row]
    }
