"""Component-wise blocked fuzzy value matching at scale.

The Match Values component computes a full ``|A| × |B|`` cosine-distance
matrix per column pair.  For the paper's benchmark columns (~150 values) that
is trivial, but for wide data-lake columns with tens of thousands of distinct
values the quadratic matrix dominates.  This module replaces it with a
*sparse, component-wise* engine:

1. **Block.**  :class:`ValueBlocker` assigns cheap surface keys (character
   n-grams sampled evenly across the value, token prefixes, optional lexicon
   concepts) to every value; only value pairs sharing at least one key become
   candidates — one sorted int64 key ``left * n_right + right`` per pair,
   never a tuple.
2. **Score once.**  Every candidate becomes a *scored edge*: when the
   semantic channel engages, its tiled exact pass
   (:func:`~repro.matching.ann.scored_candidates`) scores the surface keys
   from the same GEMM blocks it cuts its top-k from; otherwise only the
   values some key reaches are embedded and
   :func:`~repro.matching.ann._pair_similarities` scores the keys.  Nothing
   downstream touches an embedding again.
3. **Decompose.**  The edge graph is split into connected components by a
   numpy hook-and-shortcut labelling.  Values in different components can
   never be matched to each other, so the global assignment decomposes
   exactly into one independent assignment per component.
4. **Solve small.**  One dense assignment is solved per component, its cost
   matrix filled from the component's edges.  The largest matrix ever
   allocated is the largest component, not the full ``|A| × |B|`` cross
   product; :class:`BlockingStatistics` reports both.

Two executions of step 4 are layered on top of the decomposition:

* **Vectorised singleton batching.**  Components with a single value on
  either side (1×1, 1×N, N×1 — the overwhelming majority in sparse candidate
  graphs) have a closed-form optimal assignment: the cheapest candidate cell.
  All of them are batched into one grouped-argmin pass over their edges that
  never touches the assignment solver — a hot-path win even single-threaded.
* **Parallel component solving.**  The remaining general components are
  independent, so they are solved through
  :func:`repro.utils.executor.run_partitioned` (serial or thread backend,
  weight-balanced batches).  A work item is the component's edges —
  a few small arrays, no embedding rows.  The merge is positional, so the
  result is byte-identical to the serial loop for every backend and worker
  count.

Non-candidate cells inside a component keep a prohibitive cost so the
semantics stay "each value matched at most once, never above the threshold θ,
only ever to a blocked candidate".  Blocking trades a small amount of recall
(pairs with no shared surface key and no shared block are never scored — e.g.
full-form abbreviations with disjoint surfaces unless the semantic key is
enabled) for a large reduction in scored pairs; the accompanying ablation
benchmarks quantify the trade-off, the component-wise speedup and the
parallel scaling.

Step 1 optionally runs a second, *semantic* candidate channel next to the
surface keys: a :class:`~repro.matching.ann.SemanticBlocker` (exact top-k, or
an index, over the value embeddings) proposes embedding-nearest pairs, which
are **unioned** with the surface pairs before the decomposition of step 3.  The
union restores candidates whose surfaces share nothing at all;
:class:`BlockingStatistics` reports how many pairs the channel contributed
(``ann_pairs_added``) and how many it re-proposed (``ann_pairs_duplicate``).

Determinism guarantees
----------------------
The engine's result is a pure function of ``(left_values, right_values,
embedder, threshold, blocker configuration)`` — the executor configuration
(backend, worker count, batch size) and the singleton-batching switch never
change which matches are returned, only how fast:

* Surface candidates are a sorted, duplicate-free key array and the
  semantic channel breaks ties by index (its indexes use a fixed seed), so
  the candidate set is identical run to run.
* Components are solved independently and merged *positionally*
  (:func:`repro.utils.executor.run_partitioned` returns results in input
  order whatever the backend), so serial == thread, byte for byte, for
  every worker count.
* The singleton fast path picks each star component's winner with a stable
  grouped argmin — the same cell the per-component solver would pick.

``tests/matching/test_parallel_matching.py`` asserts these guarantees
across backends and worker counts.
"""

from __future__ import annotations

import threading
from functools import partial
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.embeddings.lexicon import SemanticLexicon, default_lexicon
from repro.matching.ann import (
    SemanticBlocker,
    _expand_spans,
    _pair_similarities,
    pairs_from_keys,
)
from repro.matching.assignment import AssignmentSolver, ScipyAssignment
from repro.matching.bipartite import IndexMatches, ValueMatch, exact_first, value_matches
from repro.obs import COMPONENT_SIZE_BUCKETS
from repro.utils.components import component_labels
from repro.utils.executor import ExecutorConfig, run_partitioned
from repro.utils.sorting import first_of_runs, sorted_unique, stable_order
from repro.utils.text import character_ngrams, normalize_value, tokenize

#: Cost written into cells the assignment must never select (non-candidate
#: cells inside a component, and every cell of the legacy dense path that is
#: not a blocked candidate).  Any value comfortably above the distance range
#: [0, 1] works; matches at this cost are always rejected by the threshold.
PROHIBITIVE_COST = 10.0

#: Default frequent-key cap: a blocking key whose smaller posting list
#: exceeds this is skipped by candidate generation (``None`` disables).
DEFAULT_FREQUENT_KEY_CAP: Optional[int] = 1000

#: Entries each memo of a :class:`ValueBlocker` holds (key tuples per text,
#: key ids per string value).  Overflow clears the whole memo (no LRU
#: bookkeeping on the hot path): the memo exists for duplicate-heavy columns
#: and recurring requests, whose distinct-value count is far below this; a
#: workload that actually overflows it was getting no reuse worth preserving.
KEY_MEMO_LIMIT = 200_000
#: Keys a :class:`ValueBlocker` interns before its id memo clears: arrays over key ids stay small and radix-sortable.
KEY_ID_LIMIT = 1 << 16

#: Candidate pairs one slab of :meth:`ValueBlocker.candidate_keys` expands
#: before deduplicating (32 MB of int64 keys): a key shared by thousands of
#: values on one side repeats its pairs under every other shared key, and the
#: raw expansion is never held whole.
PAIR_SLAB = 4_000_000

#: Lazily built lexicon shared by every ValueBlocker that does not bring its
#: own.  ``default_lexicon()`` rebuilds the whole knowledge base per call;
#: an engine constructs one matcher (and blocker) per override combination,
#: so sharing the read-only lexicon keeps that cheap.
_SHARED_DEFAULT_LEXICON: Optional[SemanticLexicon] = None
_SHARED_DEFAULT_LEXICON_LOCK = threading.Lock()


def _shared_default_lexicon() -> SemanticLexicon:
    global _SHARED_DEFAULT_LEXICON
    if _SHARED_DEFAULT_LEXICON is None:
        # Locked: engines on different threads constructing their first
        # matcher at once must not each rebuild the knowledge base this cache
        # exists to share.
        with _SHARED_DEFAULT_LEXICON_LOCK:
            if _SHARED_DEFAULT_LEXICON is None:
                _SHARED_DEFAULT_LEXICON = default_lexicon()
    return _SHARED_DEFAULT_LEXICON


def _sample_ngrams(grams: List[str], max_ngrams: int) -> List[str]:
    """At most ``max_ngrams`` grams spread evenly across the whole value.

    Taking the *first* ``max_ngrams`` grams would make long values block
    solely on their prefix; even sampling always includes the first and last
    gram, so pairs sharing any region (suffixes included) remain candidates.
    """
    if max_ngrams <= 0 or len(grams) <= max_ngrams:
        return grams
    if max_ngrams == 1:
        return [grams[0]]
    # Same float round() selection as always (changing it would silently
    # change blocking keys); positions are non-decreasing, so deduping
    # against the previous position suffices.
    step = (len(grams) - 1) / (max_ngrams - 1)
    sampled: List[str] = []
    previous = -1
    for index in range(max_ngrams):
        position = round(index * step)
        if position != previous:
            sampled.append(grams[position])
            previous = position
    return sampled


def _surface_keys_for_text(
    normalised: str,
    *,
    ngram_size: int,
    max_ngrams: int,
    prefix_length: int,
    lexicon: Optional[SemanticLexicon],
) -> Tuple[str, ...]:
    """Blocking keys of one already-normalised text, as a sorted tuple.

    A pure function of its arguments — the single source of truth for what
    :meth:`ValueBlocker.keys` computes.  The tuple is sorted (not a set) so
    its ordering is identical across interpreters regardless of hash
    randomisation.
    """
    keys: Set[str] = set()
    for token in tokenize(normalised, normalized=True):
        keys.add(f"p:{token[:prefix_length]}")
    grams = character_ngrams(normalised, n=ngram_size, normalized=True)
    for gram in _sample_ngrams(grams, max_ngrams):
        keys.add(f"g:{gram}")
    if lexicon is not None:
        concept = lexicon.lookup(normalised)
        if concept is not None:
            keys.add(f"c:{concept}")
    if not keys and normalised:
        keys.add(f"p:{normalised[:prefix_length]}")
    return tuple(sorted(keys))


def _compact(ids: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids`` (all in ``[0, size)``), ascending, and each id's rank among them.

    ``np.unique(ids, return_inverse=True)`` for bounded ids, in one pass and no sort.
    """
    present = np.zeros(size, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _group_by_component(component: np.ndarray, n_components: int):
    """``(order, bounds)``: ``order[bounds[c]:bounds[c + 1]]`` are the items
    labelled ``c``, in their original (ascending) order."""
    order = stable_order(component, n_components)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(component, minlength=n_components))))
    return order, bounds


def _local_ranks(order: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per item grouped by :func:`_group_by_component` into ``(order, bounds)``,
    its position in its component's run ``order[bounds[c] : bounds[c + 1]]``."""
    ranks = np.empty(order.size, dtype=np.intp)
    ranks[order] = np.arange(order.size) - np.repeat(bounds[:-1], np.diff(bounds))
    return ranks


def _components(
    pair_left: np.ndarray, pair_right: np.ndarray, n_left: int, n_right: int, decompose: bool = True
):
    """Split the candidate graph (edges between used rows) into components.

    Components are numbered by their smallest left row — the order in which
    the sorted pair list first reaches them; without ``decompose`` the whole
    graph is one.  Returns every pair's component number and the
    :func:`_group_by_component` pairs of the left rows, the right rows and
    the pairs.
    """
    if decompose:
        roots, node_component = _compact(
            component_labels(pair_left, pair_right, n_left, n_right), n_left + n_right
        )
        n_components = len(roots)
    else:
        node_component, n_components = np.zeros(n_left + n_right, dtype=np.int64), 1
    pair_component = node_component[pair_left]
    return (
        pair_component,
        _group_by_component(node_component[:n_left], n_components),
        _group_by_component(node_component[n_left:], n_components),
        _group_by_component(pair_component, n_components),
    )


@dataclass(frozen=True)
class BlockingStatistics:
    """How much work blocking saved for one column pair.

    ``candidate_pairs`` counts the blocked pairs; ``pairs_scored`` counts the
    cost-matrix cells the solver sees (the sum of component matrix sizes,
    which can exceed ``candidate_pairs``: a component is solved as one dense
    matrix).  ``largest_component`` is the cell count of the biggest matrix
    allocated — the engine's peak memory driver.  The value matcher folds the
    fields :mod:`repro.obs` declares as ``pair.<field>`` sources into its
    statistics; the others describe the pair and are not counted.
    """

    left_values: int
    right_values: int
    candidate_pairs: int
    components: int = 0
    largest_component: int = 0
    pairs_scored: int = 0
    #: Cost-matrix cell count of every component, in component order.  The
    #: distribution (see :meth:`component_size_histogram`) drives cutoff and
    #: batching tuning: singleton-dominated graphs favour the vectorised fast
    #: path, a fat tail favours bigger executor batches.
    component_cells: Tuple[int, ...] = ()
    #: Blocking keys dropped by the blocker's ``frequent_key_cap`` — non-zero
    #: means candidate generation was truncated (a possible recall loss worth
    #: surfacing when debugging missing matches).
    skipped_keys: int = 0
    #: Candidate pairs the semantic ANN channel contributed that no surface
    #: key proposed — the channel's recall gain, pre-threshold.  Zero when
    #: semantic blocking is off (or ``"auto"`` found full surface coverage).
    ann_pairs_added: int = 0
    #: Semantic-channel pairs the surface keys had already proposed.  A high
    #: duplicate share means the surfaces carry the semantics and the ANN
    #: channel is paying for little.
    ann_pairs_duplicate: int = 0
    #: Retrieval strategy the semantic channel used: ``"brute"`` (the tiled
    #: exact pass), ``"lsh"`` or ``"ivf"`` (``""``: channel off or not engaged).
    ann_index_kind: str = ""
    #: Largest LSH bucket share observed while routing the semantic channel
    #: (0.0 off the LSH route or below the skew measurement size).
    ann_bucket_skew: float = 0.0
    #: LSH→IVF fallbacks the semantic channel took for this column pair
    #: because hyperplane buckets skewed past the threshold — non-zero means
    #: ``ann_index_kind == "ivf"`` was chosen *for* the data, not by config.
    ann_skew_fallbacks: int = 0
    #: Deduplicated ``(query, candidate)`` similarity evaluations of the
    #: semantic channel's index probe — compare against ``full_matrix_pairs``
    #: to see what the index saved (0 on the exact pass: nothing is probed).
    ann_probe_candidates: int = 0

    @property
    def full_matrix_pairs(self) -> int:
        """Number of pairs the unblocked matcher would have scored."""
        return self.left_values * self.right_values

    @property
    def pairs_avoided(self) -> int:
        """Distance computations skipped relative to the full matrix."""
        return max(0, self.full_matrix_pairs - self.pairs_scored)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of pairs avoided (0 when nothing was saved)."""
        total = self.full_matrix_pairs
        if total == 0:
            return 0.0
        return 1.0 - self.candidate_pairs / total

    def component_size_histogram(self) -> Dict[str, int]:
        """Component counts bucketed by cost-matrix cells (log-ish buckets).

        Keys are ordered from smallest to largest bucket; every bucket is
        present even when empty so reports line up across column pairs.
        """
        counts = {label: 0 for label, _ in COMPONENT_SIZE_BUCKETS}
        for cells in self.component_cells:
            for label, upper in COMPONENT_SIZE_BUCKETS:
                if upper is None or cells <= upper:
                    counts[label] += 1
                    break
        return counts


class ValueBlocker:
    """Assigns surface-key blocks to values.

    Keys: lower-cased token prefixes (first 4 characters of each token),
    character 3-grams sampled evenly across the normalised value (capped at
    ``max_ngrams``, always covering both ends so suffix-sharing pairs block
    together), and — optionally — the lexicon concept of the value, which lets
    known abbreviation/synonym pairs share a block even though their surfaces
    are disjoint.

    ``frequent_key_cap`` bounds the *smaller* posting list of one key: a
    stop-word-like key shared by thousands of values on both sides would
    alone contribute a quadratic block of candidate pairs (and weld most of
    the graph into one giant component), so such keys are skipped entirely.
    One-sided blocks (many left values, few right ones) stay linear and are
    always kept.  Pairs also sharing a rarer key survive through that key;
    ``None`` disables the cap.

    Key computation is memoised per normalised text (duplicate-heavy columns
    recompute nothing), and :meth:`candidate_keys` memoises the key *ids* of
    each ``str`` value (``1``, ``1.0`` and ``True`` are one dict key but
    normalise differently, so other values take the text memo).  Ids are
    interned once per blocker; memo and table clear together, before a call,
    at :data:`KEY_MEMO_LIMIT` values or :data:`KEY_ID_LIMIT` keys, so a call's
    two sides share one id space and its arrays over ids stay small.  The
    memos assume the key parameters (``ngram_size`` etc.) are fixed after construction.
    """

    def __init__(
        self,
        ngram_size: int = 3,
        max_ngrams: int = 6,
        prefix_length: int = 4,
        use_lexicon: bool = True,
        lexicon: Optional[SemanticLexicon] = None,
        frequent_key_cap: Optional[int] = DEFAULT_FREQUENT_KEY_CAP,
    ) -> None:
        if frequent_key_cap is not None and frequent_key_cap < 1:
            raise ValueError(f"frequent_key_cap must be >= 1 or None, got {frequent_key_cap}")
        self.ngram_size = ngram_size
        self.max_ngrams = max_ngrams
        self.prefix_length = prefix_length
        self.use_lexicon = use_lexicon
        self.lexicon = lexicon if lexicon is not None else (
            _shared_default_lexicon() if use_lexicon else None
        )
        self.frequent_key_cap = frequent_key_cap
        #: Keys skipped by the frequent-key cap in the last candidate pass.
        self.last_skipped_keys = 0
        self._key_memo: Dict[str, Tuple[str, ...]] = {}
        self._id_memo: Dict[str, bytes] = {}
        self._interned: Dict[str, int] = {}

    def keys(self, value: object) -> Set[str]:
        """The blocking keys of one value."""
        return set(self._keys_for_normalised(normalize_value(value)))

    def _keys_for_normalised(self, normalised: str) -> Tuple[str, ...]:
        """Memoised key tuple of one normalised text."""
        memo = self._key_memo
        keys = memo.get(normalised)
        if keys is None:
            if len(memo) >= KEY_MEMO_LIMIT:
                memo.clear()
            keys = _surface_keys_for_text(
                normalised,
                ngram_size=self.ngram_size,
                max_ngrams=self.max_ngrams,
                prefix_length=self.prefix_length,
                lexicon=self.lexicon if self.use_lexicon else None,
            )
            memo[normalised] = keys
        return keys

    def _key_ids(self, values: Sequence[object]) -> Tuple[np.ndarray, np.ndarray]:
        """``(key id, value position)`` of every key occurrence, in position order; a value's
        ids are memoised as ``int32`` bytes (one join concatenates them, a third of an array's memory)."""
        memo, interned = self._id_memo, self._interned
        ids = [memo.get(value) if type(value) is str else None for value in values]
        for position in [position for position, found in enumerate(ids) if found is None]:
            keys = self._keys_for_normalised(normalize_value(values[position]))
            found = ids[position] = np.array([interned.setdefault(key, len(interned)) for key in keys], dtype=np.int32).tobytes()
            if type(values[position]) is str:
                memo[values[position]] = found
        lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)) // 4
        return np.frombuffer(b"".join(ids), dtype=np.int32), np.repeat(np.arange(len(ids), dtype=np.int64), lengths)

    def candidate_pairs(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> List[Tuple[int, int]]:
        """Index pairs (into left/right) sharing at least one blocking key."""
        return pairs_from_keys(self.candidate_keys(left_values, right_values), len(right_values))

    def candidate_keys(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> np.ndarray:
        """The pairs sharing an uncapped blocking key, as sorted-unique
        ``left * len(right_values) + right`` keys.

        The array form the matchers consume, without a tuple per pair: every
        left key occurrence is a query whose span is its key's right posting
        list, the frequent-key cap is a mask over key ids, and the spans are
        expanded :data:`PAIR_SLAB` pairs at a time and merge-deduplicated.
        Sets :attr:`last_skipped_keys`.
        """
        n_right = len(right_values)
        if len(self._id_memo) >= KEY_MEMO_LIMIT or len(self._interned) >= KEY_ID_LIMIT:
            self._id_memo, self._interned = {}, {}
        left_keys, left_positions = self._key_ids(left_values)
        right_keys, right_positions = self._key_ids(right_values)
        key_count = len(self._interned)
        left_counts = np.bincount(left_keys, minlength=key_count)
        right_counts = np.bincount(right_keys, minlength=key_count)
        # Quadratic blowup needs *both* sides of a key to be populous; a
        # 10000×1 block is linear and may carry a value's only candidates,
        # so the cap compares the smaller posting list.
        cap = self.frequent_key_cap
        capped = np.minimum(left_counts, right_counts) > (np.inf if cap is None else cap)
        self.last_skipped_keys = int(capped.sum())
        entries = np.flatnonzero(~capped[left_keys])
        entry_left = left_positions[entries]
        offsets = np.concatenate(([0], np.cumsum(right_counts)))
        lo, hi = offsets[left_keys[entries]], offsets[left_keys[entries] + 1]
        posting_order = right_positions[stable_order(right_keys, key_count)]
        # Entries whose expansion starts inside the same PAIR_SLAB window of
        # the concatenated spans form one slab (one oversized span is its own).
        window = (np.cumsum(hi - lo) - (hi - lo)) // PAIR_SLAB
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(window)) + 1, [len(entries)]))
        slabs = []
        for start, stop in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            entry, right = _expand_spans(lo[start:stop, None], hi[start:stop, None], posting_order)
            slabs.append(sorted_unique(entry_left[start:stop][entry] * n_right + right))
        return slabs[0] if len(slabs) == 1 else sorted_unique(np.concatenate(slabs))


def _solve_component(
    payload: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    solver: AssignmentSolver,
    threshold: float,
) -> List[Tuple[int, int, float]]:
    """Solve one general component from its scored edges; the executor's work unit.

    ``payload`` is ``(rows, columns, pair_rows, pair_cols, distances)``: the
    component's used rows and columns and, per candidate edge, its
    component-local cell and its distance.  Every other cell — values
    connected only transitively are not candidates of each other — keeps the
    prohibitive cost.  No similarity is computed here: the edges were scored
    once, by the pass that proposed them.  A tall component is filled in
    Fortran order: its bytes are then the wide C-ordered matrix scipy solves,
    which :class:`ScipyAssignment` hands over uncopied.  Returns accepted
    ``(row, column, distance)`` triples in solver order.
    """
    rows, columns, pair_rows, pair_cols, distances = payload
    order = "F" if len(rows) > len(columns) else "C"
    cost = np.full((len(rows), len(columns)), PROHIBITIVE_COST, dtype=np.float64, order=order)
    cost[pair_rows, pair_cols] = distances
    # A 1×1 component has exactly one possible assignment; skip the solver
    # round-trip (only reached when singleton batching is disabled).
    assignment = [(0, 0)] if cost.shape == (1, 1) else solver.solve(cost)
    return [
        (row, column, float(cost[row, column]))
        for row, column in assignment
        if cost[row, column] < threshold
    ]


class BlockedValueMatcher:
    """Threshold bipartite matching restricted to blocked candidate pairs.

    The interface mirrors :class:`repro.matching.bipartite.BipartiteValueMatcher`
    (``match(left_values, right_values) -> list[ValueMatch]``), so it can be
    dropped into the Match Values component for very wide columns.  ``match``
    uses the component-wise engine described in the module docstring;
    ``match_dense`` is the same engine told not to decompose (one
    prohibitive-cost matrix).

    ``executor`` distributes the general (≥2×≥2) components over a worker
    pool; the default runs serially.  ``singleton_batching`` routes 1×1 / 1×N
    / N×1 components through one vectorised argmin pass instead of individual
    solver calls.  Neither knob changes the matches.  ``match_dense`` and
    ``singleton_batching=False`` are the references the fast paths are checked
    against (``test_parallel_matching.py``, ``test_scored_edges.py``,
    ``test_candidate_graph.py`` and ``test_blocking.py`` under
    ``tests/matching``).

    ``semantic_blocker`` adds the ANN candidate channel (see
    :mod:`repro.matching.ann`): its embedding-neighbour pairs are unioned
    with the surface pairs before component decomposition.  ``semantic_mode``
    controls when the channel runs: ``"on"`` always, ``"auto"`` only when the
    surface keys left at least one value on either side without a single
    candidate (the cheap signal that surface blocking is losing recall).
    """

    def __init__(
        self,
        embedder: ValueEmbedder,
        threshold: float = 0.7,
        solver: Optional[AssignmentSolver] = None,
        blocker: Optional[ValueBlocker] = None,
        executor: Optional[ExecutorConfig] = None,
        singleton_batching: bool = True,
        semantic_blocker: Optional[SemanticBlocker] = None,
        semantic_mode: str = "on",
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if semantic_mode not in ("on", "auto"):
            raise ValueError(f"semantic_mode must be 'on' or 'auto', got {semantic_mode!r}")
        self.embedder = embedder
        self.threshold = threshold
        self.solver = solver if solver is not None else ScipyAssignment()
        self.blocker = blocker if blocker is not None else ValueBlocker()
        self.semantic_blocker = semantic_blocker
        self.semantic_mode = semantic_mode
        self.executor = executor if executor is not None else ExecutorConfig()
        self.singleton_batching = singleton_batching
        self.last_statistics: Optional[BlockingStatistics] = None

    def match(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> List[ValueMatch]:
        """Match the two value lists, one small assignment per component.

        Singleton-sided components are solved in one vectorised batch; the
        general components go through the configured executor.  Both paths
        merge deterministically, so every backend/worker-count combination
        returns exactly what the serial loop returns.
        """
        return value_matches(left_values, right_values, *self.match_indices(left_values, right_values))

    def match_dense(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> List[ValueMatch]:
        """The same scored edges solved as *one* component: every used row and
        column in a single prohibitive-cost matrix: the reference the tests
        check the decomposition against; prefer :meth:`match`.
        """
        return value_matches(left_values, right_values, *self.match_indices(left_values, right_values, False))

    def match_indices(
        self, left_values: Sequence[object], right_values: Sequence[object], decompose: bool = True
    ) -> IndexMatches:
        """:meth:`match` (or, not ``decompose``-d, :meth:`match_dense`) as
        ``(left positions, right positions, distances)``."""
        edges = self._scored_edges(left_values, right_values)
        if edges is None:
            return [], [], []
        # From here on a value is its rank among the used values of its side
        # and an edge is (left rank, right rank, distance).
        keys, distances, ann_statistics = edges
        left_used, pair_left = _compact(keys // len(right_values), len(left_values))
        right_used, pair_right = _compact(keys % len(right_values), len(right_values))
        (
            pair_component,
            (left_order, left_bounds),
            (right_order, right_bounds),
            (pair_order, pair_bounds),
        ) = _components(pair_left, pair_right, len(left_used), len(right_used), decompose)
        left_sizes, right_sizes = np.diff(left_bounds), np.diff(right_bounds)
        component_cells = tuple((left_sizes * right_sizes).tolist())
        trivial = (left_sizes == 1) | (right_sizes == 1)
        if not self.singleton_batching:
            trivial[:] = False

        # Accepted (left row, right row, distance) triples: the star
        # components' in one batch, then each general component's.
        star = pair_order[trivial[pair_component[pair_order]]]
        accepted = self._match_trivial_batched(
            pair_left[star], pair_right[star], pair_component[star], distances[star]
        )

        # Every row's and column's rank within its component: an edge's
        # component-local coordinates are one gather each.
        left_local, right_local = _local_ranks(left_order, left_bounds), _local_ranks(right_order, right_bounds)
        payloads = []
        for component in np.flatnonzero(~trivial).tolist():
            rows = left_order[left_bounds[component] : left_bounds[component + 1]]
            columns = right_order[right_bounds[component] : right_bounds[component + 1]]
            members = pair_order[pair_bounds[component] : pair_bounds[component + 1]]
            local_rows, local_columns = left_local[pair_left[members]], right_local[pair_right[members]]
            payloads.append((rows, columns, local_rows, local_columns, distances[members]))
        solved = run_partitioned(
            payloads,
            partial(_solve_component, solver=self.solver, threshold=self.threshold),
            self.executor,
            weight=lambda payload: len(payload[0]) * len(payload[1]),
        )
        for (rows, columns, *_), component_accepted in zip(payloads, solved):
            accepted.extend(
                (rows[row], columns[column], distance) for row, column, distance in component_accepted
            )
        rows, columns, distances = zip(*accepted) if accepted else ((), (), ())
        self.last_statistics = BlockingStatistics(
            left_values=len(left_values),
            right_values=len(right_values),
            candidate_pairs=len(keys),
            components=len(component_cells),
            largest_component=max(component_cells, default=0),
            pairs_scored=sum(component_cells),
            component_cells=component_cells,
            skipped_keys=self.blocker.last_skipped_keys,
            **ann_statistics,
        )
        return left_used[list(rows)].tolist(), right_used[list(columns)].tolist(), list(distances)

    def _match_trivial_batched(
        self,
        pair_left: np.ndarray,
        pair_right: np.ndarray,
        groups: np.ndarray,
        distances: np.ndarray,
    ) -> List[Tuple[int, int, float]]:
        """One vectorised pass over every 1×1 / 1×N / N×1 component.

        A component with a single value on one side is a star graph: every
        cell is a candidate (each edge touches the hub), and the optimal
        assignment is simply its cheapest cell.  So instead of one cost
        matrix + solver call per component, pick each component's winner
        among its edges (rows ``pair_left`` / ``pair_right``, component
        numbers ``groups``, scored ``distances``) with one grouped (stable,
        therefore deterministic) argmin.  Returns the accepted ``(left row,
        right row, distance)`` triples in group order.
        """
        if not len(groups):
            return []
        # Stable sort by (group, distance): the first row of each group is its
        # cheapest cell, ties resolved by candidate order — deterministic.
        order = np.lexsort((distances, groups))
        winners = order[first_of_runs(groups[order])]
        winners = winners[distances[winners] < self.threshold]
        return list(
            zip(pair_left[winners].tolist(), pair_right[winners].tolist(), distances[winners].tolist())
        )

    def match_exact_first(self, left_values: Sequence[object], right_values: Sequence[object]) -> List[ValueMatch]:
        """Match identical values first, then block-and-match the remainder."""
        return value_matches(left_values, right_values, *exact_first(self.match_indices, left_values, right_values))

    def match_degraded(self, left_values: Sequence[object], right_values: Sequence[object]) -> IndexMatches:
        """Embedding-free fallback: normalised surface equality, as index matches.

        The degraded path of ``degraded_mode="surface"``, used while the
        embedder's backend is down, after the caller has paired the
        identical values.  It never calls the embedder (and never the ANN
        channel): the values are matched greedily one-to-one wherever a
        blocked candidate pair's *normalised* texts are equal (``"Berlin "``
        ↔ ``"berlin"`` still matches; ``"Berlinn"`` ↔ ``"Berlin"`` does not —
        recall strictly below the embedding path, precision preserved).
        The greedy walks the sorted candidate keys, so the matches come back
        ascending by left position.  Which pairs match depends on no order:
        values with one normalised text have one key set, so either every
        pair of such a class is a candidate or none is, and classes share no
        value — each class pairs its i-th left with its i-th right value.
        """
        normalised_left = [normalize_value(value) for value in left_values]
        normalised_right = [normalize_value(value) for value in right_values]
        used_left: Dict[int, int] = {}
        used_right: Set[int] = set()
        pairs, skipped = [], 0
        if left_values and right_values:
            pairs, skipped = self.blocker.candidate_pairs(left_values, right_values), self.blocker.last_skipped_keys
        for left_index, right_index in pairs:
            if left_index in used_left or right_index in used_right:
                continue
            text = normalised_left[left_index]
            if text and text == normalised_right[right_index]:
                used_left[left_index] = right_index
                used_right.add(right_index)
        self.last_statistics = BlockingStatistics(
            left_values=len(left_values),
            right_values=len(right_values),
            candidate_pairs=len(pairs),
            skipped_keys=skipped,
        )
        return list(used_left), list(used_left.values()), [0.0] * len(used_left)

    # -- helpers --------------------------------------------------------------------
    def _scored_edges(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, Dict[str, object]]]:
        """Surface ∪ semantic candidate keys, each one's cosine distance, and the
        semantic channel's ``BlockingStatistics`` fields (``None`` when nothing
        blocks together).

        When the semantic channel engages, its pass scores the surface keys
        as it goes; otherwise only the values some key reaches are embedded
        and :func:`_pair_similarities` scores the keys.
        """
        ann_statistics: Dict[str, object] = {}
        n_left, n_right = len(left_values), len(right_values)
        if not n_left or not n_right:
            self.last_statistics = BlockingStatistics(n_left, n_right, 0)
            return None
        keys = self.blocker.candidate_keys(left_values, right_values)
        semantic = self.semantic_blocker
        if semantic is not None and self._semantic_engages(keys, n_left, n_right):
            fallbacks_before = semantic.skew_fallbacks
            n_surface = len(keys)
            keys, similarities = semantic.scored_keys(left_values, right_values, keys)
            added = len(keys) - n_surface
            ann_statistics = dict(
                ann_pairs_added=added,
                ann_pairs_duplicate=semantic.last_semantic_pairs - added,
                ann_index_kind=semantic.last_index_kind,
                ann_bucket_skew=semantic.last_bucket_skew,
                ann_skew_fallbacks=semantic.skew_fallbacks - fallbacks_before,
                ann_probe_candidates=semantic.last_probe_candidates,
            )
        else:
            left_used, pair_left = _compact(keys // n_right, n_left)
            right_used, pair_right = _compact(keys % n_right, n_right)
            similarities = _pair_similarities(
                pair_left,
                pair_right,
                self.embedder.embed_many([left_values[i] for i in left_used.tolist()]),
                self.embedder.embed_many([right_values[i] for i in right_used.tolist()]),
            )
        if not len(keys):
            # skipped_keys matters most here: an all-capped key set is
            # indistinguishable from "nothing blocks together" without it.
            self.last_statistics = BlockingStatistics(
                n_left, n_right, 0, skipped_keys=self.blocker.last_skipped_keys
            )
            return None
        return keys, np.clip(1.0 - similarities, 0.0, 1.0), ann_statistics

    def _semantic_engages(self, surface_keys: np.ndarray, n_left: int, n_right: int) -> bool:
        """Whether the ANN channel runs for this column pair.

        ``"on"`` always engages.  ``"auto"`` engages exactly when the surface
        channel left some value with no candidate at all: a fully covered
        graph can still be missing *better* pairs, but an uncovered value is
        a guaranteed recall hole — and checking coverage costs two
        ``np.bincount`` over the keys, not an index build.
        """
        if self.semantic_mode == "on":
            return True
        return not (
            np.bincount(surface_keys // n_right, minlength=n_left).all()
            and np.bincount(surface_keys % n_right, minlength=n_right).all()
        )
