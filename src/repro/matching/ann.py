"""Approximate-nearest-neighbour semantic blocking over value embeddings.

Surface blocking keys (:class:`~repro.matching.blocking.ValueBlocker`'s
n-grams, token prefixes and lexicon concepts) can only propose a candidate
pair when the two values share some *surface* evidence.  Pairs whose strings
share no characters at all — out-of-lexicon synonyms, abbreviations of names
the lexicon does not know — are exactly the fuzzy matches the paper's
embedding-distance matching is supposed to recover, and surface blocking
silently drops them before they are ever scored.

:class:`SemanticBlocker` closes that gap with a second, *semantic* candidate
channel: it indexes the value embeddings themselves (the same unit vectors
``embed_many`` already computes for scoring, so a warm
:class:`~repro.embeddings.base.EmbeddingCache` makes indexing free) and emits,
for every left value, its approximate nearest right values.  The candidate
pairs are unioned with the surface channel's pairs by
:class:`~repro.matching.blocking.BlockedValueMatcher` before component
decomposition, so the downstream engine is unchanged — the semantic channel
only ever *adds* edges to the candidate graph.

Three retrieval strategies, chosen per column pair by shape:

* **Exact tiled top-k** (:func:`scored_candidates`): one GEMM per block of
  left rows, exact top-k in both directions, and the surface channel's keys
  scored in the same pass.  Runs whenever the configured index would probe
  densely (:meth:`SemanticBlocker._runs_exact`) — at the default 8 × 8 shape
  that is every size — because scoring a dense probe computes every cell
  anyway, and the exact pass then costs no more and misses nothing.
* **Random-hyperplane LSH** (sparse shapes, ``n_bits >= 14``): ``n_tables``
  independent hash tables of ``n_bits`` signed random projections each.
  Values whose codes collide in any table (exactly, or — via single-bit
  multiprobe — at Hamming distance 1) become candidates; each value keeps its
  ``top_k`` nearest by true cosine similarity among its collision set, probing
  in both directions (left over the right tables and vice versa) so neither
  side can be starved by the other's top-k competition.  Numpy-only.
* **Seeded k-means IVF** (*skewed* pairs): hyperplane buckets degrade when
  the embeddings concentrate — duplicate-heavy or low-variance columns push
  most values into a handful of buckets.  When the largest LSH bucket of
  either side holds more than ``skew_threshold`` of its values (or when
  ``ann_index="ivf"`` is forced), retrieval switches to an inverted-file
  index: a few Lloyd iterations of seeded k-means over the index side, each
  query probing its ``IVF_PROBES`` nearest centroids.  Same
  ``top_k``/similarity-floor semantics, same both-direction probing.

A candidate pair is one int64 key ``query * n_index + candidate`` from the
probe to the caller (:func:`pairs_from_keys` turns a key array back into
tuples), and no loop runs per query or per pair.  On the index routes all
query codes and their single-bit multiprobe variants are one ``(n_queries,
n_bits + 1)`` XOR against the precomputed flip masks per table, bucket
membership is a span lookup over the stably-sorted index codes, the spans are
expanded and sort-deduplicated into ``(query, candidate)``-sorted keys,
:func:`_pair_similarities` scores them a block at a time, and
:func:`_segment_top_k` cuts each query's segment to its ``top_k`` best.

**Tie rule, stated once.**  A query keeps its ``top_k`` candidates of highest
similarity *as the pass computes it*; equal similarities go to the lowest
candidate index; only pairs above the similarity floor are kept.  BLAS results
depend on operand position and block shape in the last bit, so two
bit-identical index rows can score one ULP apart and which of them "ties" is
a property of the GEMM that ran, not of the vectors — which is why
``_probe_direction_reference`` (the per-query Python oracle: dict buckets, set
unions, a stable argsort per query) can rank with :func:`_pair_similarities`'
values.  ``_brute_force_reference`` is the row/column-loop oracle of the
exact pass.

Determinism: hyperplanes and k-means seeding come from a seeded
:func:`numpy.random.default_rng`, bucket iteration follows input positions,
and every top-k selection breaks ties by index via stable sorts — two runs
with the same seed over the same values produce identical candidate sets, on
any backend.

Index state lives in memory only: every indexed call builds each side's
codes (or IVF clusters) from the embeddings, counted in ``index_builds``.
What outlives the process is the embeddings themselves — the engine's
artifact store serves them warm, so a rebuild re-embeds nothing.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.utils.sorting import first_of_runs, sorted_unique, stable_order

#: Default number of LSH hash tables.  More tables raise recall (a pair only
#: needs to collide once) at linearly more probing work.
DEFAULT_ANN_TABLES = 8

#: Default number of random-hyperplane bits per table.  Fewer bits mean
#: larger buckets: higher recall, more true-similarity evaluations.  With
#: single-bit multiprobe, 8 bits keeps pairs at cosine similarity ≈0.6 —
#: the regime of surface-disjoint synonyms under the simulated LLM
#: embedders — above ~90% collision probability across the default tables.
DEFAULT_ANN_BITS = 8

#: Default candidates kept per probing value (nearest by true cosine
#: similarity among the collision set, or exact top-k on the exact pass;
#: both sides probe, so the pair budget is ~``top_k × (|left| + |right|)``).
DEFAULT_ANN_TOP_K = 5

#: Default seed of the random hyperplanes (and of the IVF k-means seeding).
#: Fixed so that two matchers built independently (e.g. one per engine worker
#: thread) block identically.
DEFAULT_ANN_SEED = 97

#: Index kinds accepted by :class:`SemanticBlocker` (and the ``ann_index``
#: configuration knob).  ``"lsh"`` still falls back to IVF per column pair
#: when the hyperplane buckets skew past ``skew_threshold``.
ANN_INDEX_KINDS = ("lsh", "ivf")

#: Largest-LSH-bucket share of a value list above which ``ann_index="lsh"``
#: falls back to the IVF index for that column pair.  At the default 8 bits a
#: uniform corpus puts ~1/256 of its values in each bucket; a bucket holding a
#: quarter of the corpus means the hyperplanes are not separating it and
#: probing is degenerating toward the dense cross product.
DEFAULT_SKEW_THRESHOLD = 0.25

#: Value lists smaller than this report a bucket skew of 0.0 and never
#: trigger the IVF fallback: with a handful of values the largest-bucket
#: share is quantised so coarsely (3 of 12 values colliding already reads as
#: 0.25) that it measures luck, not hyperplane degradation.
SKEW_MIN_VALUES = 64

#: Lloyd iterations of the seeded k-means IVF build.  Few on purpose: the
#: index only proposes candidates (true similarities re-rank them), so a
#: roughly converged clustering is as good as a converged one.
IVF_ITERATIONS = 5

#: Nearest centroids each query probes at IVF retrieval time.
IVF_PROBES = 4

#: Scratch budget of :func:`scored_candidates` and :func:`_pair_similarities`,
#: in float64 cells per block (32 MB): the rows of one GEMM block times the
#: other side's size, or twice the gathered rows of one slab.  Part of the bit
#: contract: a GEMM's last bits depend on its block shape, so changing it is a
#: re-record, like an embedder revision (docs/blocking.md, "Scored edges").
PAIR_BLOCK_CELLS = 4_000_000

#: Similarity-matrix cells per probe pair above which :func:`_pair_similarities`
#: gathers rows instead of running the block GEMM.  Measured break-even on one
#: core, 10 000 × 10 000 values: ≈ 100 cells per pair at d = 64, ≈ 120 at
#: d = 256 (docs/blocking.md, "The top-k kernel").
GEMM_CELLS_PER_PAIR = 100


def _ivf_cluster_count(n_values: int) -> int:
    """Cluster count of an IVF index over ``n_values`` vectors (≈ √n)."""
    return max(1, min(n_values, int(round(math.sqrt(n_values)))))


def _expand_spans(
    lo: np.ndarray, hi: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-(query, probe) ``[lo, hi)`` spans into candidate pairs.

    ``lo``/``hi`` are ``(n_queries, n_probes)`` searchsorted bounds into a
    stably-sorted code (or cluster-assignment) array; ``order`` maps sorted
    positions back to original index positions.  Returns ``(query_ids,
    candidate_ids)`` covering every span element — the vectorised equivalent
    of the old per-query bucket union, before deduplication.
    """
    lengths = (hi - lo).ravel().astype(np.int64)
    total = int(lengths.sum())
    n_queries = lo.shape[0]
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = lo.ravel().astype(np.int64)
    # Positions within the concatenated spans: a ramp 0..total minus each
    # span's cumulative offset, plus its start — one allocation, no loop.
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    flat += np.repeat(starts, lengths)
    per_query = lengths.reshape(n_queries, -1).sum(axis=1)
    query_ids = np.repeat(np.arange(n_queries, dtype=np.int64), per_query)
    return query_ids, np.asarray(order, dtype=np.int64)[flat]


def pairs_from_keys(keys: np.ndarray, n_right: int) -> List[Tuple[int, int]]:
    """``(left, right)`` tuples of a ``left * n_right + right`` key array, in key order."""
    return list(zip((keys // n_right).tolist(), (keys % n_right).tolist()))


def _pair_similarities(
    query_ids: np.ndarray,
    candidate_ids: np.ndarray,
    query_vectors: np.ndarray,
    index_vectors: np.ndarray,
) -> np.ndarray:
    """Cosine similarity of every ``(query, candidate)`` pair, sorted by query.

    Scores the index routes' probes and the blocked matcher's keys when no
    exact pass ran (see the module docstring's tie rule).  Dense pair sets
    take the query rows in blocks of at most :data:`PAIR_BLOCK_CELLS` cells,
    one GEMM ``Q[block] @ I.T`` and one gather per block: cheaper than
    materialising a vector per pair.
    Below one pair per :data:`GEMM_CELLS_PER_PAIR` cells the GEMM would
    mostly compute cells nobody asked for, so sparse probes take the gathered
    row-wise product instead, in slabs of the same scratch size.  The two
    agree to a few ULP; which one ran depends only on the pair density.
    """
    n_pairs = len(query_ids)
    n_index, dimension = index_vectors.shape
    similarities = np.empty(n_pairs, dtype=np.float64)
    if n_pairs == 0:
        return similarities
    if n_pairs * GEMM_CELLS_PER_PAIR < query_vectors.shape[0] * n_index:
        slab = max(1, PAIR_BLOCK_CELLS // (2 * dimension))
        for start in range(0, n_pairs, slab):
            rows = slice(start, start + slab)
            similarities[rows] = np.einsum(
                "ij,ij->i", index_vectors[candidate_ids[rows]], query_vectors[query_ids[rows]]
            )
        return similarities
    block_rows = max(1, PAIR_BLOCK_CELLS // n_index)
    for first in range(int(query_ids[0]), int(query_ids[-1]) + 1, block_rows):
        start, stop = np.searchsorted(query_ids, (first, first + block_rows))
        if start < stop:
            block = query_vectors[first : first + block_rows] @ index_vectors.T
            similarities[start:stop] = block[query_ids[start:stop] - first, candidate_ids[start:stop]]
    return similarities


def _segment_top_k(segment_ids: np.ndarray, similarities: np.ndarray, top_k: int) -> np.ndarray:
    """Mask of the ``top_k`` highest similarities of every contiguous segment.

    ``top_k`` rounds of a segmented maximum (``np.maximum.reduceat``): each
    round selects, per segment, the *first* position holding the segment's
    maximum and retires it, so equal similarities go to the earliest position
    — what a stable argsort per segment does, without the per-segment loop.
    """
    selected = np.zeros(len(segment_ids), dtype=bool)
    if not len(segment_ids):
        return selected
    starts = np.flatnonzero(np.r_[True, segment_ids[1:] != segment_ids[:-1]])
    lengths = np.diff(np.r_[starts, len(segment_ids)])
    segment = np.repeat(np.arange(len(starts)), lengths)
    work = similarities.copy()
    for _ in range(min(top_k, int(lengths.max()))):
        best = np.maximum.reduceat(work, starts)
        # An exhausted segment's maximum is the -inf of its retired pairs:
        # it re-selects one it already selected, which changes nothing.
        hits = np.flatnonzero(work == best[segment])
        hit_segments = segment[hits]
        first = hits[np.r_[True, hit_segments[1:] != hit_segments[:-1]]]
        selected[first] = True
        work[first] = -np.inf
    return selected


def _column_top_k(keys: np.ndarray, similarities: np.ndarray, n_right: int, top_k: int):
    """Cut row-major ``keys`` to each *column's* ``top_k``: one stable argsort
    by column keeps rows ascending inside a column, so ties go to the lowest row."""
    columns = keys % n_right
    order = stable_order(columns, n_right)
    order = order[_segment_top_k(columns[order], similarities[order], top_k)]
    return keys[order], similarities[order]


def scored_candidates(
    left_vectors: np.ndarray,
    right_vectors: np.ndarray,
    surface_keys: np.ndarray,
    top_k: int,
    floor: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tiled exact similarity pass over a column pair: ``(keys, similarities, semantic)``.

    ``keys`` is the sorted-unique union of ``surface_keys`` (sorted ``left *
    n_right + right`` keys, all kept whatever they score) and the exact
    top-k in both directions — every cell above ``floor`` that is among the
    ``top_k`` best of its row or of its column, equal similarities to the
    lowest index (oracle: :func:`_brute_force_reference`); ``semantic`` marks
    the latter.  Left rows are taken in blocks of at most
    :data:`PAIR_BLOCK_CELLS` cells, one GEMM ``L[block] @ R.T`` each, from
    which the block gathers its surface keys' similarities, masks the cells
    above the floor and cuts them per row and per column; the column cuts of
    the blocks are merged by one more cut, so memory is one block at any size
    and every similarity the caller sees comes from this one pass.
    """
    n_left, n_right = left_vectors.shape[0], right_vectors.shape[0]
    surface_similarities = np.empty(len(surface_keys), dtype=np.float64)
    parts = [(surface_keys, surface_similarities)]  # (keys, similarities) to union
    columns = []  # each block's per-column cut
    block_rows = max(1, PAIR_BLOCK_CELLS // max(1, n_right))
    for first in range(0, n_left if n_right else 0, block_rows):
        cells = (left_vectors[first : first + block_rows] @ right_vectors.T).ravel()
        origin = first * n_right
        start, stop = np.searchsorted(surface_keys, (origin, origin + len(cells)))
        surface_similarities[start:stop] = cells[surface_keys[start:stop] - origin]
        above = np.flatnonzero(cells > floor)
        keys, similarities = above + origin, cells[above]
        rows = _segment_top_k(above // n_right, similarities, top_k)
        parts.append((keys[rows], similarities[rows]))
        columns.append(_column_top_k(keys, similarities, n_right, top_k))
    if columns:
        parts.append(_column_top_k(*map(np.concatenate, zip(*columns)), n_right, top_k))
    keys, similarities = map(np.concatenate, zip(*parts))
    # Stable: a key's surface copy sorts before its top-k copies (all score
    # the same — one cell of one GEMM), so the run's last entry tells whether
    # the top-k proposed it.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first_of_run = first_of_runs(keys)
    last_of_run = np.r_[first_of_run[1:], True][: len(keys)]
    semantic = (order >= len(surface_keys))[last_of_run]
    return keys[first_of_run], similarities[order][first_of_run], semantic


def _probe_direction_reference(
    query_vectors: np.ndarray,
    query_codes: np.ndarray,
    index_vectors: np.ndarray,
    index_codes: np.ndarray,
    *,
    n_tables: int,
    n_bits: int,
    top_k: int,
    min_similarity: float,
    shared_similarities: bool = False,
) -> Set[Tuple[int, int]]:
    """The per-query Python probe loop, kept as the test oracle.

    Dict buckets and per-query set unions over tables and bit flips
    (:func:`_probe_candidates_reference`), then one gathered matvec and one
    stable argsort per query — the pre-vectorisation implementation, and the
    ANN benchmark's speedup baseline.  With ``shared_similarities`` the
    matvec is replaced by the query's slice of one :func:`_pair_similarities`
    call over all pairs: the oracle for inputs with bit-identical duplicate
    rows, where the last bit of a BLAS result decides a tie (module
    docstring, "Tie rule").  Not called on any production path.
    """
    query_ids, candidate_ids = _probe_candidates_reference(
        query_codes, index_codes, n_tables=n_tables, n_bits=n_bits
    )
    if shared_similarities:
        shared = _pair_similarities(query_ids, candidate_ids, query_vectors, index_vectors)
    pairs: Set[Tuple[int, int]] = set()
    if not len(query_ids):
        return pairs
    bounds = np.flatnonzero(np.r_[True, query_ids[1:] != query_ids[:-1], True])
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        query_index = int(query_ids[start])
        candidates = candidate_ids[start:end]
        if shared_similarities:
            similarities = shared[start:end]
        else:
            similarities = index_vectors[candidates] @ query_vectors[query_index]
        order = np.argsort(-similarities, kind="stable")[:top_k]
        for position in order:
            if similarities[position] > min_similarity:
                pairs.add((query_index, int(candidates[position])))
    return pairs


def _probe_candidates_reference(
    query_codes: np.ndarray,
    index_codes: np.ndarray,
    *,
    n_tables: int,
    n_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The old loop's probe phase only: dict buckets, set unions, ``sorted``.

    The candidate-retrieval half of :func:`_probe_direction_reference`,
    stopping where the similarity work starts.  Returns the ``(query_ids,
    candidate_ids)`` pair arrays in the same ``(query, candidate)`` order
    :meth:`SemanticBlocker._probe_candidates` emits, so the ANN benchmark can
    assert byte-identical candidate sets and time the probe phase in
    isolation.  Not called on any production path.
    """
    buckets: List[dict] = []
    for table in range(n_tables):
        table_buckets: dict = {}
        for index_position, code in enumerate(index_codes[table]):
            table_buckets.setdefault(int(code), []).append(index_position)
        buckets.append(table_buckets)

    flips = [1 << bit for bit in range(n_bits)]
    query_parts: List[np.ndarray] = []
    candidate_parts: List[np.ndarray] = []
    candidate_set: Set[int] = set()
    for query_index in range(query_codes.shape[1]):
        candidate_set.clear()
        for table in range(n_tables):
            table_buckets = buckets[table]
            code = int(query_codes[table][query_index])
            bucket = table_buckets.get(code)
            if bucket:
                candidate_set.update(bucket)
            for flip in flips:
                bucket = table_buckets.get(code ^ flip)
                if bucket:
                    candidate_set.update(bucket)
        if not candidate_set:
            continue
        candidates = np.fromiter(sorted(candidate_set), dtype=np.int64)
        candidate_parts.append(candidates)
        query_parts.append(np.full(len(candidates), query_index, dtype=np.int64))
    if not candidate_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(query_parts), np.concatenate(candidate_parts)


def _brute_force_reference(
    left_vectors: np.ndarray,
    right_vectors: np.ndarray,
    *,
    top_k: int,
    min_similarity: float,
) -> Set[Tuple[int, int]]:
    """The original row/column-loop brute-force top-k, kept as the test oracle."""
    similarities = left_vectors @ right_vectors.T
    pairs: Set[Tuple[int, int]] = set()
    k_rows = min(top_k, similarities.shape[1])
    row_order = np.argsort(-similarities, axis=1, kind="stable")[:, :k_rows]
    for left_index in range(similarities.shape[0]):
        for right_index in row_order[left_index]:
            if similarities[left_index, right_index] > min_similarity:
                pairs.add((left_index, int(right_index)))
    k_cols = min(top_k, similarities.shape[0])
    column_order = np.argsort(-similarities.T, axis=1, kind="stable")[:, :k_cols]
    for right_index in range(similarities.shape[1]):
        for left_index in column_order[right_index]:
            if similarities[left_index, right_index] > min_similarity:
                pairs.add((int(left_index), right_index))
    return pairs


class SemanticBlocker:
    """Emits candidate pairs of embedding-nearest values.

    The interface mirrors :meth:`ValueBlocker.candidate_pairs
    <repro.matching.blocking.ValueBlocker.candidate_pairs>`: a sorted list of
    ``(left_index, right_index)`` pairs.  The blocker never decides matches —
    it only proposes pairs for the assignment engine to score, so a loose
    ``top_k`` costs extra scored cells, never wrong matches.

    Parameters
    ----------
    embedder:
        Source of the value embeddings.  Lookups go through
        ``embedder.embed_many``, so indexing reuses (and warms) the
        embedder's cache — inside an :class:`~repro.core.engine.
        IntegrationEngine` the vectors are typically already cached and
        indexing re-embeds nothing.
    top_k:
        Candidates emitted per probing value (each side probes the other).
    n_tables / n_bits:
        LSH shape (see module docstring); also decides, with
        ``brute_force_cells`` unset, whether the index runs at all.
    seed:
        Seed of the random hyperplanes and of the IVF k-means seeding; same
        seed, same candidates.
    brute_force_cells:
        ``None`` (default): the exact pass runs whenever the configured index
        would probe densely (:meth:`_runs_exact`).  An integer is a
        cell-count cutoff at or below which the exact pass runs instead of
        the index (``0`` forces the index).
    min_similarity:
        Cosine-similarity floor on emitted pairs.  A top-k list is padded
        with whatever neighbours exist, however distant; below-floor pairs
        are dropped because they cannot survive the matcher's threshold θ
        anyway (distance ``1 - sim ≥ θ``) — and, worse, keeping them welds
        unrelated values into one giant connected component, inflating
        ``pairs_scored`` toward the dense cross product.  Callers that know
        θ should pass ``1 - θ`` (the blocked matcher's configuration layer
        does); ``0.0`` disables the floor.
    ann_index:
        ``"lsh"`` (the default) or ``"ivf"``.  ``"lsh"`` still switches to
        the IVF index per column pair when either side's hyperplane buckets
        skew past ``skew_threshold`` (see :attr:`last_bucket_skew`);
        ``"ivf"`` forces the inverted-file index for every indexed pair.
    skew_threshold:
        Largest-bucket share triggering the LSH→IVF fallback, in ``(0, 1]``
        (``1.0`` effectively disables the fallback).
    """

    def __init__(
        self,
        embedder: ValueEmbedder,
        top_k: int = DEFAULT_ANN_TOP_K,
        n_tables: int = DEFAULT_ANN_TABLES,
        n_bits: int = DEFAULT_ANN_BITS,
        seed: int = DEFAULT_ANN_SEED,
        brute_force_cells: Optional[int] = None,
        min_similarity: float = 0.0,
        ann_index: str = "lsh",
        skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {n_tables}")
        if not 1 <= n_bits <= 30:
            raise ValueError(f"n_bits must be in [1, 30], got {n_bits}")
        if brute_force_cells is not None and brute_force_cells < 0:
            raise ValueError(f"brute_force_cells must be >= 0, got {brute_force_cells}")
        if not 0.0 <= min_similarity < 1.0:
            raise ValueError(f"min_similarity must be in [0, 1), got {min_similarity}")
        if ann_index not in ANN_INDEX_KINDS:
            raise ValueError(
                f"ann_index must be one of {list(ANN_INDEX_KINDS)}, got {ann_index!r}"
            )
        if not 0.0 < skew_threshold <= 1.0:
            raise ValueError(f"skew_threshold must be in (0, 1], got {skew_threshold}")
        self.embedder = embedder
        self.top_k = top_k
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.seed = seed
        self.brute_force_cells = brute_force_cells
        self.min_similarity = min_similarity
        self.ann_index = ann_index
        self.skew_threshold = skew_threshold
        #: Whether the last call used an ANN index (``False``: the exact pass).
        self.last_used_lsh = False
        #: Index kind of the last call: ``""`` (no call yet), ``"brute"``,
        #: ``"lsh"`` or ``"ivf"`` — ``"ivf"`` either forced or by skew
        #: fallback; :attr:`skew_fallbacks` distinguishes the two.
        self.last_index_kind = ""
        #: Largest LSH bucket share observed on the last LSH-routed call
        #: (``0.0`` when no codes were computed — exact pass or forced IVF).
        self.last_bucket_skew = 0.0
        #: Deduplicated ``(query, candidate)`` similarity evaluations of the
        #: last call's probe phase, both directions — the probe-cost counter
        #: surfaced in ``BlockingStatistics`` (``0`` on the exact pass).
        self.last_probe_candidates = 0
        #: Keys the channel itself proposed on the last call (the exact
        #: top-k, or the index's candidates), surface duplicates included.
        self.last_semantic_pairs = 0
        #: Cumulative count of LSH→IVF skew fallbacks over this blocker's
        #: lifetime (one per direction-index whose buckets tripped the
        #: threshold — the per-call delta lands in ``BlockingStatistics``).
        self.skew_fallbacks = 0
        #: Index state built over this blocker's lifetime: one LSH code
        #: matrix or IVF clustering per indexed side.
        self.index_builds = 0
        # Hyperplanes are a function of (seed, tables, bits, dimension) only,
        # so they are drawn once and shared by every candidate_pairs call.
        self._planes: dict = {}

    # -- public API -----------------------------------------------------------------
    def candidate_pairs(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> List[Tuple[int, int]]:
        """Sorted embedding-neighbour index pairs between the two value lists."""
        return pairs_from_keys(self.candidate_keys(left_values, right_values), len(right_values))

    def candidate_keys(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> np.ndarray:
        """The same pairs as sorted-unique ``left * len(right_values) + right`` keys."""
        return self.scored_keys(left_values, right_values, np.empty(0, dtype=np.int64))[0]

    def scored_keys(
        self, left_values: Sequence[object], right_values: Sequence[object], surface_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``surface_keys`` ∪ this channel's keys, sorted-unique, each with its similarity.

        What the blocked matcher consumes: scored edges.  The exact route is
        one :func:`scored_candidates` pass; an index route proposes its keys
        first and scores the union with :func:`_pair_similarities`.
        :attr:`last_semantic_pairs` counts the keys this channel proposed.
        """
        self.last_bucket_skew = 0.0
        self.last_probe_candidates = 0
        self.last_semantic_pairs = 0
        self.last_used_lsh = False
        self.last_index_kind = "brute"
        if not left_values or not right_values:
            return surface_keys, np.empty(len(surface_keys), dtype=np.float64)
        left_vectors = self.embedder.embed_many(left_values)
        right_vectors = self.embedder.embed_many(right_values)
        if self._runs_exact(len(left_values), len(right_values)):
            keys, similarities, semantic = scored_candidates(
                left_vectors, right_vectors, surface_keys, self.top_k, self.min_similarity
            )
            self.last_semantic_pairs = int(semantic.sum())
            return keys, similarities
        self.last_used_lsh = True
        semantic_keys = self._indexed_pairs(left_vectors, right_vectors)
        self.last_semantic_pairs = len(semantic_keys)
        keys = sorted_unique(np.concatenate((surface_keys, semantic_keys)))
        left_ids, right_ids = np.divmod(keys, len(right_values))
        return keys, _pair_similarities(left_ids, right_ids, left_vectors, right_vectors)

    def _runs_exact(self, n_left: int, n_right: int) -> bool:
        """Whether a column pair takes the exact pass instead of the configured index.

        An explicit ``brute_force_cells`` is a cell-count cutoff.  The default
        (``None``) asks whether the index would probe densely: its expected
        probe share of the cells — ``n_tables · (n_bits + 1) / 2^n_bits`` for
        multiprobe LSH, ``IVF_PROBES / clusters`` for IVF — at or above one
        pair per :data:`GEMM_CELLS_PER_PAIR` cells is exactly when scoring the
        probe would take :func:`_pair_similarities`' GEMM route and compute
        every cell anyway, so the exact pass costs no more and finds
        everything.  The default 8 × 8 shape (share 0.28) is exact at every
        size; ``n_bits >= 14`` keeps the sub-quadratic route.
        """
        if self.brute_force_cells is not None:
            return n_left * n_right <= self.brute_force_cells
        if self.ann_index == "lsh":
            share = self.n_tables * (self.n_bits + 1) / 2**self.n_bits
        else:
            share = IVF_PROBES / _ivf_cluster_count(min(n_left, n_right))
        return share * GEMM_CELLS_PER_PAIR >= 1.0

    # -- indexed paths ----------------------------------------------------------------
    def _indexed_pairs(self, left_vectors: np.ndarray, right_vectors: np.ndarray) -> np.ndarray:
        """Route one above-cutoff column pair to the LSH or IVF index.

        ``ann_index="lsh"`` computes the codes first and measures bucket
        occupancy; a side whose largest bucket exceeds ``skew_threshold``
        falls back to IVF (counted in :attr:`skew_fallbacks`) because its
        hyperplanes are not separating the corpus.  ``ann_index="ivf"``
        skips the codes entirely.  Each direction returns ``query * n_index +
        candidate`` keys; the reverse direction is re-keyed, not re-tupled.
        """
        n_left, n_right = left_vectors.shape[0], right_vectors.shape[0]
        kind = self.ann_index
        if kind == "lsh":
            planes = self._hyperplanes(left_vectors.shape[1])
            left_codes = self._codes(left_vectors, planes)
            right_codes = self._codes(right_vectors, planes)
            skew = max(self._bucket_skew(left_codes), self._bucket_skew(right_codes))
            self.last_bucket_skew = skew
            if skew > self.skew_threshold:
                self.skew_fallbacks += 1
                kind = "ivf"
        self.last_index_kind = kind
        if kind == "lsh":
            forward = self._probe_direction(left_vectors, left_codes, right_vectors, right_codes)
            reverse = self._probe_direction(right_vectors, right_codes, left_vectors, left_codes)
        else:
            forward = self._ivf_probe(left_vectors, right_vectors)
            reverse = self._ivf_probe(right_vectors, left_vectors)
        return sorted_unique(
            np.concatenate((forward, reverse % n_left * n_right + reverse // n_left))
        )

    @staticmethod
    def _bucket_skew(codes: np.ndarray) -> float:
        """Largest bucket share over all tables of one side's code matrix.

        Sides below :data:`SKEW_MIN_VALUES` report ``0.0`` — too few values
        for the share to mean anything (see the constant's docstring).
        """
        n_values = codes.shape[1]
        if n_values < SKEW_MIN_VALUES:
            return 0.0
        worst = 0
        for table_codes in codes:
            starts = np.flatnonzero(first_of_runs(np.sort(table_codes)))
            worst = max(worst, int(np.diff(starts, append=n_values).max()))
        return worst / n_values

    # -- LSH index --------------------------------------------------------------------
    def _hyperplanes(self, dimension: int) -> np.ndarray:
        """The ``(n_tables, n_bits, dimension)`` random hyperplane stack."""
        planes = self._planes.get(dimension)
        if planes is None:
            rng = np.random.default_rng(self.seed)
            planes = rng.standard_normal((self.n_tables, self.n_bits, dimension))
            self._planes[dimension] = planes
        return planes

    def _codes(self, vectors: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """Per-table integer hash codes, shape ``(n_tables, n_values)``."""
        self.index_builds += 1
        weights = (1 << np.arange(self.n_bits, dtype=np.int64))
        codes = np.empty((self.n_tables, vectors.shape[0]), dtype=np.int64)
        for table in range(self.n_tables):
            bits = vectors @ planes[table].T >= 0.0
            codes[table] = bits @ weights
        return codes

    def _probe_direction(
        self,
        query_vectors: np.ndarray,
        query_codes: np.ndarray,
        index_vectors: np.ndarray,
        index_codes: np.ndarray,
    ) -> np.ndarray:
        """``query * n_index + candidate`` keys: each query keeps its top-k bucket-mates.

        Fully vectorised, the same pairs as the per-query loop
        (:func:`_probe_direction_reference`, property-tested): per table the
        index codes are stably sorted once, every query's code and its
        ``n_bits`` single-bit flips become one ``(n_queries, n_bits + 1)``
        XOR, and bucket membership is a span lookup whose spans are expanded
        and sort-deduplicated — the same candidate sets the dict buckets
        produced, in sorted candidate order.
        """
        query_ids, candidate_ids = self._probe_candidates(query_codes, index_codes)
        return self._select_top_k(query_ids, candidate_ids, query_vectors, index_vectors)

    def _probe_candidates(
        self, query_codes: np.ndarray, index_codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated ``(query, candidate)`` bucket-mate ids, both sorted.

        The probe phase proper — everything the old dict-bucket loop did
        before touching a similarity, as matrix ops.  Pairs come back sorted
        by ``(query, candidate)``: exactly each query's ``sorted()``
        candidate set under the old loop, so the benchmark asserts
        byte-identity against :func:`_probe_candidates_reference` with a
        plain array comparison.
        """
        n_index = index_codes.shape[1]
        masks = np.concatenate(
            (np.zeros(1, dtype=np.int64), 1 << np.arange(self.n_bits, dtype=np.int64))
        )
        # Up to ~1M distinct codes a dense offset table (bincount + cumsum)
        # answers every probe with one gather instead of a binary search —
        # the searchsorted pair is kept for wider codes, where the dense
        # table would dwarf the code arrays themselves.
        dense_offsets = self.n_bits <= 20
        key_parts: List[np.ndarray] = []
        for table in range(self.n_tables):
            table_codes = np.asarray(index_codes[table])
            order = np.argsort(table_codes, kind="stable")
            probes = np.asarray(query_codes[table])[:, None] ^ masks[None, :]
            if dense_offsets:
                offsets = np.zeros((1 << self.n_bits) + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(table_codes, minlength=1 << self.n_bits),
                    out=offsets[1:],
                )
                lo = offsets[probes]
                hi = offsets[probes + 1]
            else:
                sorted_codes = table_codes[order]
                lo = np.searchsorted(sorted_codes, probes, side="left")
                hi = np.searchsorted(sorted_codes, probes, side="right")
            query_ids, candidate_ids = _expand_spans(lo, hi, order)
            key_parts.append(query_ids * n_index + candidate_ids)
        keys = sorted_unique(np.concatenate(key_parts))
        return keys // n_index, keys % n_index

    # -- IVF index --------------------------------------------------------------------
    def _build_ivf(self, vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Seeded k-means over one side's vectors: ``(centroids, assignments)``.

        Deterministic end to end: seeded sampled initialisation, a fixed
        :data:`IVF_ITERATIONS` Lloyd iterations, first-occurrence ``argmax``
        tie-breaks, and empty clusters keep their previous centroid.  The
        centroids are renormalised to unit length so centroid similarity is
        the same cosine the retrieval re-ranking uses.
        """
        self.index_builds += 1
        n_values = vectors.shape[0]
        n_clusters = _ivf_cluster_count(n_values)
        rng = np.random.default_rng(self.seed)
        seeds = np.sort(rng.choice(n_values, size=n_clusters, replace=False))
        centroids = np.array(vectors[seeds], dtype=np.float64)
        assignments = np.zeros(n_values, dtype=np.int64)
        for _ in range(IVF_ITERATIONS):
            assignments = np.argmax(vectors @ centroids.T, axis=1)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignments, vectors)
            norms = np.linalg.norm(sums, axis=1)
            populated = norms > 0.0
            centroids[populated] = sums[populated] / norms[populated, None]
        assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
        return centroids, assignments

    def _ivf_probe(self, query_vectors: np.ndarray, index_vectors: np.ndarray) -> np.ndarray:
        """``query * n_index + candidate`` keys via the IVF index over ``index_vectors``.

        Each query probes its :data:`IVF_PROBES` most similar centroids
        (stable selection) and ranks the members of those clusters by true
        cosine similarity — the same top-k/floor semantics as the LSH path,
        through the same vectorised span-expansion and selection machinery.
        """
        centroids, assignments = self._build_ivf(index_vectors)
        order = np.argsort(assignments, kind="stable")
        sorted_assignments = assignments[order]
        centroid_similarities = query_vectors @ centroids.T
        n_probe = min(centroids.shape[0], IVF_PROBES)
        probed = np.argsort(-centroid_similarities, axis=1, kind="stable")[:, :n_probe]
        lo = np.searchsorted(sorted_assignments, probed, side="left")
        hi = np.searchsorted(sorted_assignments, probed, side="right")
        query_ids, candidate_ids = _expand_spans(lo, hi, order)
        # Probed clusters are distinct per query, so spans cannot overlap —
        # the point is the (query, candidate) order the selection's
        # tie-breaking relies on.
        n_index = index_vectors.shape[0]
        keys = sorted_unique(query_ids * n_index + candidate_ids)
        return self._select_top_k(
            keys // n_index, keys % n_index, query_vectors, index_vectors
        )

    # -- shared selection -------------------------------------------------------------
    def _select_top_k(
        self,
        query_ids: np.ndarray,
        candidate_ids: np.ndarray,
        query_vectors: np.ndarray,
        index_vectors: np.ndarray,
    ) -> np.ndarray:
        """Per-query top-k over ``(query, candidate)`` pairs, as sorted keys.

        Pairs must arrive sorted by ``(query, candidate)`` (the sorted key
        dedupe guarantees it), so every query is one contiguous segment.
        Pairs at or below the similarity floor are dropped first (a query's
        above-floor pairs outrank its others, so the order does not matter),
        then :func:`_segment_top_k`: ties go to the lowest candidate index.
        """
        self.last_probe_candidates += len(query_ids)
        similarities = _pair_similarities(query_ids, candidate_ids, query_vectors, index_vectors)
        above = similarities > self.min_similarity
        keys = (query_ids * index_vectors.shape[0] + candidate_ids)[above]
        return keys[_segment_top_k(query_ids[above], similarities[above], self.top_k)]

    def __repr__(self) -> str:
        return (
            f"SemanticBlocker(top_k={self.top_k}, n_tables={self.n_tables}, "
            f"n_bits={self.n_bits}, seed={self.seed}, ann_index={self.ann_index!r})"
        )
