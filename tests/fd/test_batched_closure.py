"""The generation-batched closure kernel against its definitions.

Four test-side references, none of which shares code with the kernel:

* ``reference_closure`` (``test_complementation``) — the definitional pairwise
  fixpoint: which tuples, with which provenance;
* :func:`sequential_closure` — the tuple-at-a-time loop the kernel batches:
  every tuple meets the distinct inputs with smaller ids (an input) or every
  input (a merged tuple); ids in creation order, provenance carried through
  every merge;
* the same loop with every smaller id a partner (``all_pairs=True``), the
  kernel before it met inputs only: the same closed set, subsumed mask and
  provenance, in another order;
* :func:`component_at_a_time` — the input-partner loop run on one connected
  component after the other, which is what the closure lists when it labels
  the components.

Mutations of the kernel and the first test here that fails on each (the
pinned digests of ``test_complementation`` catch all three as well):

* an input's candidates not cut at ``id < owner`` (whole posting lists) —
  ``test_same_ids_and_provenance_as_the_sequential_loop`` (a pair of inputs
  met from both sides creates its merge too early) and the 12 / 12 counter pin;
* an owner's partners not sorted by id —
  ``test_more_positions_than_bits_of_the_pattern_word`` (value-posting
  partners then come before smaller null-posting ones);
* the null posting skipped — ``test_close_equals_the_pairwise_fixpoint``
  (partners that are null at the selective position are never met).

``TestInputPartners`` fails when either mark line is dropped (the sets then
differ from the all-pairs loop's), when a merged tuple misses its largest
input partner (the chains), and when the postings are rebuilt or a mask is
recomputed over earlier tuples (the spy).

The closure also marks the tuples it strictly subsumes, and it tests, merges
and deduplicates tuples as ``TupleIndex``'s bit-field words.
``TestSubsumedMaskAndDedup`` holds the mask and the dedup against the code
they replaced: the mask against ``reduce_coded``'s second subsumption join,
the dedup against the set of byte keys it used to keep.  Dropping either mark
line of the kernel, or numbering a key by its last occurrence instead of its
first, fails it.  ``TestWordLayout`` holds the words against the per-position
definitions; the closure inputs stretch columns to the edges of a field's
width and fill words to their bit limits.

A tuple expands only the candidates whose pattern meets its own, read in
runs of one pattern (``MeetingRuns``); after the first generation a tuple
holding a code at the cut reads only the runs null or holding that code there.
``TestTwoPositionListing`` holds that route against the sequential loop, spies
on its builds and on what each kind of owner reads, and counts what it expands
(``complementation_expanded`` is that count).

``TestWhatTheFdStageAlreadyHolds`` holds what the FD stage reuses instead of
deriving again against what it replaced: every owner's inherited listing key
against the key recomputed from its codes and label, ``span_blocks``' one
block against the block-boundary search, the outer union against the
re-dictionaried one and ``Relation.to_table`` against the coercing ``Table``.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import IntegrationEngine
from repro.datasets import multi_schema_lake
from repro.datasets.imdb import ImdbBenchmark
from repro.fd import AliteFullDisjunction, get_algorithm
from repro.fd import complementation
from repro.fd.complementation import ComplementationEngine, component_roots, position_bits, subsumed_sources
from repro.table import NULL, Table, remove_subsumed, subsumes
from repro.table import coded
from repro.table.coded import TupleIndex
from repro.table.relation import Relation, dictionary, outer_union, sources
from repro.table.subsumption import reduce_coded, subsumers
from test_complementation import LabelledRoute, UnlabelledRoute, close, encode_rows, low_cardinality_rows, reference_closure


#: Pair blocks so small that every generation crosses block boundaries, and the real one.
BLOCKS = pytest.mark.parametrize("block", [1, 5, 7, 1 << 16])


def blocks_of(block):
    return patch.object(coded, "PAIR_BLOCK", block)


def sources_of(rows):
    return [frozenset({f"s{index}"}) for index in range(len(rows))]


def sequential_closure(rows, provenance, all_pairs=False):
    """Tuple-at-a-time closure: every tuple, in id order, meets in id order the
    distinct inputs with smaller ids (all of them, for a merged tuple) or, with
    ``all_pairs``, every smaller id; a new merge gets the next id, a known one
    gains provenance."""
    closed, sources = [], []
    for values, tuple_sources in zip(rows, provenance):
        if values in closed:
            sources[closed.index(values)] |= tuple_sources
        else:
            closed.append(values)
            sources.append(set(tuple_sources))
    inputs = len(closed)
    generation = [0] * len(closed)
    current = -1
    while (current := current + 1) < len(closed):
        current_sources = frozenset(sources[current])
        for partner in range(current if all_pairs else min(current, inputs)):
            pairs = list(zip(closed[current], closed[partner]))
            agreements = [l == r for l, r in pairs if l is not NULL and r is not NULL]
            if not agreements or not all(agreements):
                continue
            merged = tuple(r if l is NULL else l for l, r in pairs)
            if merged not in closed:
                closed.append(merged)
                sources.append(set())
                generation.append(generation[current] + 1)
            sources[closed.index(merged)] |= current_sources | sources[partner]
    return closed, [frozenset(entry) for entry in sources], max(generation, default=0)


def chain(links):
    """Inputs that each overlap the next in one column: link ``k`` holds columns ``k`` and ``k + 1``."""
    return [tuple(f"v{p}" if link <= p <= link + 1 else NULL for p in range(links + 1)) for link in range(links)]


def chain_closure(links):
    """The closure of :func:`chain` as a set: every run of consecutive links
    ``i..j``, with their sources, strictly subsumed unless it is the whole chain."""
    return {
        tuple(f"v{p}" if first <= p <= last + 1 else NULL for p in range(links + 1)): (
            frozenset(f"s{link}" for link in range(first, last + 1)),
            (first, last) != (0, links - 1),
        )
        for first in range(links)
        for last in range(first, links)
    }


def chains(count, links):
    """``count`` chains side by side on one schema, no value shared between
    them: link ``k`` of chain ``c`` holds ``c.k`` and ``c.k+1`` in columns ``k`` and ``k + 1``."""
    return [
        tuple(f"{c}.{p}" if link <= p <= link + 1 else NULL for p in range(links + 1))
        for c in range(count)
        for link in range(links)
    ]


def listed_past_the_cells(rows):
    """Whether the distinct ``rows``, as inputs, list more candidates — each
    the inputs with smaller ids holding its value or null at its listing key's
    position, recounted from the codes — than they have cells: the first
    generation that does builds :class:`~repro.table.coded.MeetingRuns`."""
    codes = encode_rows(list(dict.fromkeys(rows)), len(rows[0]))[0]
    labels = np.zeros(codes.shape[1], dtype=np.intp)
    keys = selective_keys(codes, labels, codes, labels)
    listed = 0
    for owner in np.flatnonzero((codes >= 0).any(axis=0)):
        position = keys[owner] % codes.shape[0]
        column = codes[position, :owner]
        listed += int(np.count_nonzero((column == codes[position, owner]) | (column < 0)))
    return listed > codes.size


def closed_sets(rows):
    """The kernel's closure of ``rows`` as a set: row -> (provenance, strictly subsumed)."""
    codes, values = encode_rows(rows, len(rows[0]))
    closed, subsumed, _ = ComplementationEngine().close_coded(codes)
    inputs, holders = subsumed_sources(closed, codes, np.flatnonzero((closed < 0).all(axis=0)))
    decoded = Relation("closed", map(str, range(len(values))), closed, values).decode()
    provenance = sources(sources_of(rows), inputs, holders, closed.shape[1])
    return dict(zip(decoded, zip(provenance, subsumed.tolist())))


def all_pairs_sets(rows):
    """The all-pairs loop's closure of ``rows`` as :func:`closed_sets` gives it."""
    closed, provenance, _ = sequential_closure(rows, sources_of(rows), all_pairs=True)
    return {
        row: (entry, any(other != row and subsumes(other, row) for other in closed))
        for row, entry in zip(closed, provenance)
    }


def components_of(rows):
    """The row indices of each connected component of the value-sharing graph,
    in the order of each component's first row."""
    label = list(range(len(rows)))
    changed = True
    while changed:
        changed = False
        for left in range(len(rows)):
            for right in range(left):
                shares = any(l == r and l is not NULL for l, r in zip(rows[left], rows[right]))
                if shares and label[left] != label[right]:
                    low, high = sorted((label[left], label[right]))
                    label = [low if entry == high else entry for entry in label]
                    changed = True
    return [[index for index in range(len(rows)) if label[index] == component] for component in sorted(set(label))]


def component_at_a_time(rows, provenance):
    """The closures of the connected components of the value-sharing graph,
    one after the other in the order of each component's first row."""
    closed, sources = [], []
    components = components_of(rows)
    for members in components:
        part, part_sources, _ = sequential_closure(
            [rows[index] for index in members], [provenance[index] for index in members]
        )
        closed += part
        sources += part_sources
    return closed, sources, len(components)


def reduced(rows, provenance):
    """Subsumption removal of a closure (``remove_subsumed`` has its own reference)."""
    table = remove_subsumed(Table("closed", [f"c{p}" for p in range(len(rows[0]))], rows, provenance=provenance))
    return table.rows, table.provenance


@st.composite
def multi_component_rows(draw):
    """2-4 groups of rows over disjoint vocabularies (so at least that many
    components), interleaved, with duplicates and fully-null rows among them."""
    width = draw(st.integers(3, 5))
    rows = []
    for group in range(draw(st.integers(2, 4))):
        cell = st.one_of(st.just(NULL), st.sampled_from([f"g{group}a", f"g{group}b"]))
        rows += draw(st.lists(st.tuples(*[cell] * width), min_size=1, max_size=4))
    return draw(st.permutations(rows))


class TestClosureAgainstTheDefinition:
    @BLOCKS
    @given(rows=low_cardinality_rows())
    @settings(max_examples=60, deadline=None)
    def test_close_equals_the_pairwise_fixpoint(self, block, rows):
        with blocks_of(block):
            closed, provenance = close(ComplementationEngine(), rows, sources_of(rows))
        assert len(set(closed)) == len(closed)
        assert dict(zip(closed, provenance)) == reference_closure(rows, sources_of(rows))

    @BLOCKS
    @given(rows=low_cardinality_rows())
    @settings(max_examples=60, deadline=None)
    def test_same_ids_and_provenance_as_the_sequential_loop(self, block, rows):
        statistics = {}
        with blocks_of(block):
            closed, provenance = close(ComplementationEngine(), rows, sources_of(rows), statistics)
        expected, expected_provenance, _ = sequential_closure(rows, sources_of(rows))
        assert (closed, provenance) == (expected, expected_provenance)
        assert statistics.get("complementation_tuples", 0.0) == len(expected)

    @given(low_cardinality_rows())
    @settings(max_examples=60, deadline=None)
    def test_provenance_is_the_sources_of_the_subsumed_inputs(self, rows):
        provenance = sources_of(rows)
        for values, sources in zip(*close(ComplementationEngine(), rows, provenance)):
            informative = any(cell is not NULL for cell in values)
            expected = [
                entry
                for row, entry in zip(rows, provenance)
                # A fully-null input merges with nothing: it is its own closed tuple.
                if (any(cell is not NULL for cell in row) and subsumes(values, row))
                or (not informative and row == values)
            ]
            assert sources == frozenset().union(*expected)

    @BLOCKS
    def test_chain_of_four_generations(self, block):
        # Each input overlaps the next in one column and a merge meets inputs
        # only, so a span grows by one link per generation: 17 links need 16
        # generations of merges.
        width = 18
        rows = chain(width - 1)
        expected, expected_provenance, generations = sequential_closure(rows, sources_of(rows))
        assert generations == width - 2
        with blocks_of(block):
            closed, provenance = close(ComplementationEngine(), rows, sources_of(rows))
        assert (closed, provenance) == (expected, expected_provenance)
        full = closed.index(tuple(f"v{p}" for p in range(width)))
        assert provenance[full] == frozenset().union(*sources_of(rows))

    def test_more_positions_than_bits_of_the_pattern_word(self):
        # The quick "hold a position in common" test keeps one bit per position
        # modulo 63, so positions 0, 63 and 126 look alike: tuples that only
        # look alike must not merge, partners that meet beyond bit 62 must.
        rng = random.Random(63)
        positions = [0, 1, 63, 64, 126, 129]
        rows = [
            tuple(rng.choice("uv") if p in held else NULL for p in range(130))
            for held in [rng.sample(positions, 2) for _ in range(24)]
        ]
        closed, provenance = close(ComplementationEngine(), rows, sources_of(rows))
        expected, expected_provenance, generations = sequential_closure(rows, sources_of(rows))
        assert (closed, provenance) == (expected, expected_provenance)
        assert generations >= 2 and len(closed) > 2 * len(set(rows))
        assert closed_sets(rows) == all_pairs_sets(rows)

    @BLOCKS
    def test_duplicate_inputs_and_fully_null_rows(self, block):
        empty = (NULL, NULL, NULL)
        rows = [empty, ("k", "x", NULL), ("k", "x", NULL), empty, ("k", NULL, "y"), ("k", "x", NULL)]
        with blocks_of(block):
            closed, provenance = close(ComplementationEngine(), rows, sources_of(rows))
        assert closed == [empty, ("k", "x", NULL), ("k", NULL, "y"), ("k", "x", "y")]
        assert provenance == [
            frozenset({"s0", "s3"}),
            frozenset({"s1", "s2", "s5"}),
            frozenset({"s4"}),
            frozenset({"s1", "s2", "s4", "s5"}),
        ]
        assert (closed, provenance) == sequential_closure(rows, sources_of(rows))[:2]

    @BLOCKS
    def test_max_tuples_is_exact_mid_generation_and_mid_block(self, block):
        # Generation 0 (three inputs) creates ids 3-5, generation 1 the 7th
        # tuple: the bound is hit inside a generation and, with one-pair
        # blocks, between two blocks of it.
        rows = [("k", "x", NULL, NULL), ("k", NULL, "y", NULL), ("k", NULL, NULL, "z")]
        with blocks_of(block):
            closed, _ = close(ComplementationEngine(max_tuples=7), rows, sources_of(rows))
            assert len(closed) == 7
            for bound in (6, 4, 3, 2):
                with pytest.raises(RuntimeError, match=f"exceeded {bound} tuples"):
                    close(ComplementationEngine(max_tuples=bound), rows, sources_of(rows))


class TestAlgorithmsAgainstTheSequentialLoop:
    @BLOCKS
    @given(rows=multi_component_rows())
    @settings(max_examples=40, deadline=None)
    def test_alite_lists_the_closure_in_id_order(self, block, rows):
        table = Table("t", [f"c{p}" for p in range(len(rows[0]))], rows).with_default_provenance()
        closed, provenance, _ = sequential_closure(table.rows, table.provenance)
        with blocks_of(block):
            result = AliteFullDisjunction().integrate([table]).table
        assert (result.rows, result.provenance) == reduced(closed, provenance)

    def test_both_routes_record_the_same_counters(self):
        # Tables joined on a first column that is never null: no list of
        # candidates is shorter than the holders of a tuple's key, whether a
        # null is posted for the whole input or per component.
        keys = random.Random(20).sample(range(1000), 150)
        tables = [
            Table(name, ["k", name], [(f"k{key}", f"{name}{key}") for key in keys[:size]])
            for name, size in (("a", 150), ("b", 150), ("c", 75))
        ]
        statistics = {
            algorithm.name: algorithm.integrate(tables).statistics
            for algorithm in (get_algorithm("alite"), LabelledRoute(), UnlabelledRoute())
        }
        counters = ["outer_union_tuples"] + [f"complementation_{kind}" for kind in ("comparisons", "merges", "tuples")]
        for name, recorded in statistics.items():
            assert [recorded[key] for key in counters] == [statistics["alite"][key] for key in counters], name
            assert recorded["complementation_merges"] > 0
        # Its lists are short: the closure does not label on its own.
        assert statistics["alite"].get("components") is None

    def test_labelled_components_never_meet_the_other_schemas(self):
        # Two unrelated join groups over different schemas.  Every tuple of
        # the second is null wherever the first holds a value, so closed
        # together each is a candidate of all of the first: quadratic.  With
        # the nulls of each component posted apart, which is what ``alite``
        # does here, a tuple meets its own component only: exactly the three
        # tests of each two-tuple component (tuple, tuple, their merge), and
        # the same Full Disjunction.
        entities = 500
        tables = [
            Table(f"{side}{group}", [f"k{group}", f"{side}{group}"],
                  [(f"e{group}.{index}", f"{side}{index}") for index in range(entities)])
            for group in range(2)
            for side in "ab"
        ]
        alite = UnlabelledRoute().integrate(tables)
        assert alite.statistics["complementation_comparisons"] > (2 * entities) ** 2
        result = get_algorithm("alite").integrate(tables)
        assert result.statistics["components"] == 2 * entities
        assert result.statistics["complementation_comparisons"] == 3 * 2 * entities
        assert sorted(zip(result.table.rows, map(sorted, result.table.provenance)), key=repr) == sorted(
            zip(alite.table.rows, map(sorted, alite.table.provenance)), key=repr
        )

    def test_fully_null_rows_ride_on_the_survivor_standing_for_the_first_row(self):
        # The first component has two survivors and its first row folds into
        # the second of them: that one takes the fully-null row's source,
        # whichever route lists it.
        rows = [("k", NULL, NULL, "p"), ("j", "x", NULL, "p"), ("k", NULL, "y", NULL), (NULL,) * 4]
        for algorithm in (get_algorithm("alite"), LabelledRoute()):
            name = algorithm.name
            result = algorithm.integrate([Table("t", list("abcd"), rows)]).table
            assert result.rows == [("j", "x", NULL, "p"), ("k", NULL, "y", "p")], name
            assert result.provenance == [frozenset({"t:1"}), frozenset({"t:0", "t:2", "t:3"})], name
            # With no tuple of information, the fully-null rows are one survivor.
            only_nulls = algorithm.integrate([Table("N", ["k"], [(NULL,), (NULL,)])]).table
            assert (only_nulls.rows, only_nulls.provenance) == ([(NULL,)], [frozenset({"N:0", "N:1"})]), name

    def test_tables_without_columns(self):
        for algorithm in (get_algorithm("alite"), LabelledRoute()):
            result = algorithm.integrate([Table("t", [], [(), ()])]).table
            assert (result.rows, result.provenance) == ([()], [frozenset({"t:0", "t:1"})])


class TestSubsumptionJoin:
    def test_join_equals_pairwise_subsumes_across_blocks(self, monkeypatch):
        rng = random.Random(7)
        width = 4
        lower = [tuple(NULL if rng.random() < 0.5 else rng.randrange(3) for _ in range(width)) for _ in range(60)]
        upper = [tuple(NULL if rng.random() < 0.2 else rng.randrange(3) for _ in range(width)) for _ in range(50)]
        codes, _ = encode_rows(lower + upper, width)
        inferior, superior = codes[:, : len(lower)], codes[:, len(lower) :]
        expected = [
            (i, j)
            for i, low in enumerate(lower)
            if any(cell is not NULL for cell in low)
            for j, high in enumerate(upper)
            if subsumes(high, low)
        ]
        assert len(expected) > 3 * 16
        for block in (1, 16, 1 << 16):
            monkeypatch.setattr(coded, "PAIR_BLOCK", block)
            owner, found = subsumers(inferior, superior)
            assert list(zip(owner.tolist(), found.tolist())) == expected


#: Codes per column that put a field at the edges of its width: none (no
#: field), one, and 2^k - 1 (all ones) or 2^k (the top bit only) codes.
CODE_COUNTS = [0, 1, 2, 3, 4, 7, 8, 4095, 4096]
#: Fields of 13, 13, 12 × 6 and 3 bits: under the default bound, the first
#: word's 62 bits and the second word's 39 are exactly full.
FILLED = [4096, 4096, 4095, 4095, 4095, 4095, 4095, 4095, 7]


@st.composite
def closure_inputs(draw):
    """Coded rows of every shape the closure meets: several schemas (sets of
    positions a row may hold), duplicates, fully-null rows, no columns at all,
    more positions than the 63 bits of a word, and columns stretched to
    :data:`CODE_COUNTS` codes, or :data:`FILLED`, each holding its largest."""
    width = draw(st.sampled_from([0, 1, 4, 6, len(FILLED), 70]))
    positions = st.integers(0, max(width - 1, 0)) if width < 70 else st.sampled_from([0, 1, 2, 62, 63, 64, 69])
    schemas = draw(st.lists(st.lists(positions, min_size=1, max_size=4, unique=True), min_size=1, max_size=3))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["row", "row", "row", "empty", "repeat"]), min_size=1, max_size=10)):
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "empty" or not width:
            rows.append((NULL,) * width)
        else:
            cells = [NULL] * width
            for position in draw(st.sampled_from(schemas)):
                cells[position] = draw(st.sampled_from([NULL, "a", "b"]))
            rows.append(tuple(cells))
    codes = encode_rows(rows, width)[0]
    counts = st.lists(st.sampled_from(CODE_COUNTS), min_size=width, max_size=width)
    counts = draw(st.one_of(counts, st.just(FILLED)) if width == len(FILLED) else counts)
    # Code k becomes count - 1 - k: a column's first value takes its largest code.
    largest = np.array(counts, dtype=np.int64).reshape(-1, 1) - 1
    return np.where(codes < 0, -1, np.maximum(largest - codes, np.minimum(largest, 0))).astype(np.int32)


@st.composite
def tuple_batches(draw):
    """Batches of coded tuples drawn from a small palette (so they repeat within
    and across batches) over columns of up to 2^31 codes: fields of up to 32
    bits, so several words and their prefixes numbered across batches."""
    codes_per_column = draw(st.lists(st.sampled_from([0, 1, 2, 1000, (1 << 31) - 1, 1 << 31]), max_size=8))
    cells = [st.integers(-1, count - 1) for count in codes_per_column]
    palette = draw(st.lists(st.tuples(*cells), min_size=1, max_size=5))
    return codes_per_column, draw(st.lists(st.lists(st.sampled_from(palette), max_size=12), max_size=6))


def reduced_by_the_join(codes, provenance):
    """Full Disjunction as it was computed before the closure marked what it
    subsumes: a second subsumption join of the whole closure."""
    closed = ComplementationEngine().close_coded(codes)[0]
    kept, stands_for = reduce_coded(closed)
    empty_to = np.searchsorted(kept, stands_for[(closed < 0).all(axis=0)])
    survivors = closed[:, kept]
    inputs, holders = subsumed_sources(survivors, codes, empty_to)
    return survivors, sources(provenance, inputs, holders, survivors.shape[1])


def disjunction(codes, provenance):
    """``disjunction_coded`` with the survivors' provenance as sets of ``provenance``."""
    survivors, empty_to = ComplementationEngine().disjunction_coded(codes)
    inputs, holders = subsumed_sources(survivors, codes, empty_to)
    return survivors, sources(provenance, inputs, holders, survivors.shape[1])


class SetOfByteKeys(TupleIndex):
    """The closure's dedup before it packed keys: a dict of byte keys, one tuple
    at a time, keyed by the bytes of whatever columns it receives (words, from
    the closure); the layout it hands out is :class:`TupleIndex`'s."""

    def __init__(self, codes_per_column, capacity=5_000_000):
        super().__init__(np.array(codes_per_column), capacity)
        self.known = {}

    def __len__(self):
        return len(self.known)

    def add(self, columns):
        numbers, fresh = [], []
        for offset, column in enumerate(columns.T):
            key = column.tobytes()
            if key not in self.known:
                self.known[key] = len(self.known)
                fresh.append(offset)
            numbers.append(self.known[key])
        return np.array(numbers, dtype=np.int64), np.array(fresh, dtype=np.intp)


class TestSubsumedMaskAndDedup:
    @BLOCKS
    @given(codes=closure_inputs())
    @settings(max_examples=80, deadline=None)
    def test_subsumed_mask_is_what_the_subsumption_join_finds(self, block, codes):
        provenance = sources_of(range(codes.shape[1]))
        with blocks_of(block):
            closed, subsumed, _ = ComplementationEngine().close_coded(codes)
            kept, _ = reduce_coded(closed)
            survivors, sources = disjunction(codes, provenance)
            expected, expected_sources = reduced_by_the_join(codes, provenance)
        assert np.flatnonzero(~subsumed).tolist() == kept.tolist()
        assert np.array_equal(survivors, expected) and sources == expected_sources

    def test_each_mark_line_is_needed(self):
        # The later tuple is subsumed (marked as the owner of the pair), then
        # the earlier one (marked as the candidate).
        for rows, subsumed in (([("k", "x"), ("k", NULL)], [False, True]), ([("k", NULL), ("k", "x")], [True, False])):
            closed, mask, _ = ComplementationEngine().close_coded(encode_rows(rows, 2)[0])
            assert closed.shape[1] == 2 and mask.tolist() == subsumed

    def test_the_first_survivor_of_a_chain_takes_the_fully_null_rows(self):
        # Tuple 0 is absorbed by tuple 2, which is absorbed by their merge 4:
        # the fully-null rows ride on the end of that chain.
        rows = [("k", NULL, NULL), ("j", "x", NULL), ("k", "x", NULL), (NULL,) * 3, ("k", NULL, "y"), (NULL,) * 3]
        codes = encode_rows(rows, 3)[0]
        provenance = sources_of(rows)
        survivors, sources = disjunction(codes, provenance)
        expected, expected_sources = reduced_by_the_join(codes, provenance)
        assert np.array_equal(survivors, expected) and sources == expected_sources
        assert frozenset({"s3", "s5"}) <= sources[-1]

    @given(stream=tuple_batches())
    @settings(max_examples=80, deadline=None)
    def test_dedup_numbers_tuples_like_the_set_loop(self, stream):
        codes_per_column, batches = stream
        index, reference = TupleIndex(np.array(codes_per_column), 5_000_000), SetOfByteKeys(codes_per_column)
        for batch in batches:
            columns = np.array(batch, dtype=np.int32).reshape(len(batch), len(codes_per_column)).T
            numbers, fresh = index.add(index.pack(columns))
            expected_numbers, expected_fresh = reference.add(columns)
            assert numbers.tolist() == expected_numbers.tolist() and fresh.tolist() == expected_fresh.tolist()
            assert len(index) == len(reference)

    @BLOCKS
    @given(codes=closure_inputs())
    @settings(max_examples=40, deadline=None)
    def test_closure_and_bound_match_the_set_loop(self, block, codes):
        with blocks_of(block):
            closed, subsumed, _ = ComplementationEngine().close_coded(codes)
            with patch.object(complementation, "TupleIndex", SetOfByteKeys):
                expected_closed, expected_subsumed, _ = ComplementationEngine().close_coded(codes)
            assert np.array_equal(closed, expected_closed) and np.array_equal(subsumed, expected_subsumed)
            # The set loop raised on the first tuple past the bound: every bound
            # below the closure's size stops it inside a generation (and, with
            # small blocks, inside a block); its size does not.
            for bound in range(1, closed.shape[1]):
                with pytest.raises(RuntimeError, match=f"exceeded {bound} tuples"):
                    ComplementationEngine(bound).close_coded(codes)
            ComplementationEngine(max(closed.shape[1], 1)).close_coded(codes)


@st.composite
def tuple_pairs(draw):
    """A layout (codes per column up to 2^31, and a capacity) and 64 pairs of
    coded tuples, the second drawn from the first: at each position the same
    code, null, or any code.  A cell is null, code 0, the column's largest
    code or any code, equally often."""
    counts = draw(st.lists(st.sampled_from(CODE_COUNTS + [(1 << 31) - 1, 1 << 31]), min_size=1, max_size=70))
    capacity = draw(st.sampled_from([1, 8, 5_000_000, 1 << 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    largest = np.array(counts).reshape(-1, 1) - 1

    def cells():
        kind, anything = rng.integers(0, 4, (len(counts), 64)), rng.integers(0, 1 << 31, (len(counts), 64))
        chosen = np.select([kind == 0, kind == 1, kind == 2], [-1, 0, largest], anything % (largest + 1).clip(1))
        return np.where(largest < 0, -1, chosen)

    mine, other = cells(), cells()
    kind = rng.integers(0, 3, mine.shape)
    theirs = np.where(kind == 0, mine, np.where(kind == 1, -1, other))
    return np.array(counts), capacity, mine.astype(np.int32), theirs.astype(np.int32)


class TestWordLayout:
    """``TupleIndex``'s bit fields against the per-position definitions.

    Mutations, each caught here: the low bits dropped from the non-null test
    (``held``), the two subset flags of ``compare`` swapped, and a later word
    given one bit more than its limit (the key of the largest prefix number
    then reaches the sentinel)."""

    @given(tuple_pairs())
    @settings(max_examples=80, deadline=None)
    def test_word_test_flags_are_the_per_position_definition(self, drawn):
        counts, capacity, mine, theirs = drawn
        index = TupleIndex(counts, capacity)
        words = index.pack(np.concatenate((mine, theirs), axis=1))
        pairs = np.arange(mine.shape[1])
        flags = index.compare(words, index.held(words), pairs, pairs + pairs.size)
        conflict, common, mine_within, theirs_within = flags
        both = (mine >= 0) & (theirs >= 0)
        assert conflict.tolist() == (both & (mine != theirs)).any(axis=0).tolist()
        assert common.tolist() == both.any(axis=0).tolist()
        assert mine_within.tolist() == ((mine < 0) | (theirs >= 0)).all(axis=0).tolist()
        assert theirs_within.tolist() == ((theirs < 0) | (mine >= 0)).all(axis=0).tolist()
        # Partners merge to the OR of their words.
        partners = ~conflict
        merged = words[:, pairs[partners]] | words[:, pairs[partners] + pairs.size]
        assert np.array_equal(merged, index.pack(np.maximum(mine, theirs)[:, partners]))

    def test_keys_at_the_largest_prefix_number_the_layout_admits(self):
        # Capacity 8: prefix numbers up to 7, three bits, so a later word holds
        # 59.  Fields of 31, 31 | 31 | 29 bits: the 29 does not fit beside the
        # third 31.  Tuple 7 is the eighth prefix, all ones after it.
        counts = np.array([(1 << 31) - 1] * 3 + [(1 << 29) - 1])
        index, reference = TupleIndex(counts, 8), SetOfByteKeys(counts, 8)
        assert index.bits == [62, 31, 29]
        columns = np.array([[row, 0, (1 << 31) - 2, (1 << 29) - 2] for row in range(8)], dtype=np.int32).T
        for _ in range(2):
            numbers, fresh = index.add(index.pack(columns))
            expected_numbers, expected_fresh = reference.add(columns)
            assert numbers.tolist() == expected_numbers.tolist() == list(range(8))
            assert fresh.tolist() == expected_fresh.tolist()
        assert len(index) == 8
        with pytest.raises(RuntimeError, match="exceeded 8 tuples"):
            index.add(index.pack(columns[:, :1] + 8))
        # The largest capacity leaves a later word the widest field's 32 bits.
        assert TupleIndex(np.array([1 << 31] * 3), 1 << 30).bits == [32, 32, 32]
        with pytest.raises(ValueError):
            TupleIndex(counts, (1 << 30) + 1)


def decoded_rows(codes):
    """The rows of a code matrix, a code ``c`` spelled ``vc``."""
    return [tuple(NULL if code < 0 else f"v{code}" for code in column) for column in codes.T.tolist()]


def rows_with_provenance(table):
    """The rows with their provenance, in one order whatever order the table lists them in."""
    return sorted(repr((row, sorted(sources))) for row, sources in zip(table.rows, table.provenance))


class TestInputPartners:
    """A tuple meets inputs only: every closed tuple is the union of a
    value-connected set of inputs, so adding one input at a time reaches it,
    and a strictly subsumed closed tuple shares a value with an input that
    adds one to it, so it is still marked.  The all-pairs loop, where every
    tuple met every smaller id, gives the same sets."""

    @given(rows=st.one_of(low_cardinality_rows().filter(bool), closure_inputs().map(decoded_rows).filter(bool)))
    @settings(max_examples=80, deadline=None)
    def test_same_sets_as_the_all_pairs_loop(self, rows):
        assert closed_sets(rows) == all_pairs_sets(rows)

    def test_chains(self):
        assert all_pairs_sets(chain(17)) == chain_closure(17) == closed_sets(chain(17))
        # 11 325 closed tuples: too many for the all-pairs loop, whose closure
        # of a chain is its runs of links (as on 17 links above).
        assert closed_sets(chain(150)) == chain_closure(150)

    def test_postings_once_and_each_tuples_masks_once(self):
        # The 17-link chain closes over 16 generations.  The postings are
        # built once, over the inputs; every tuple's pattern and held masks
        # are computed once, when it is added.
        built, held, patterns = [], [], []
        original_held = TupleIndex.held

        class Spied(coded.PairPostings):
            def __init__(self, codes, *args):
                built.append(codes.shape[1])
                super().__init__(codes, *args)

        def spied_held(index, words):
            held.append(words.shape[1])
            return original_held(index, words)

        def spied_bits(columns):
            patterns.append(columns.shape[1])
            return position_bits(columns)

        rows = chain(17)
        with patch.object(complementation, "PairPostings", Spied), patch.object(
            TupleIndex, "held", spied_held
        ), patch.object(complementation, "position_bits", spied_bits):
            closed = ComplementationEngine().close_coded(encode_rows(rows, 18)[0])[0]
        assert built == [17]
        # The inputs, then what each generation adds: the runs one link longer.
        assert held == patterns == list(range(17, -1, -1))
        assert sum(held) == closed.shape[1] == len(chain_closure(17))


class TestOnePassAgainstComponentsAlone:
    """With labels the kernel closes every component in one pass, each tuple
    meeting the holders of its own component's nulls only.

    Mutations, each caught by the property test: one null posting shared by
    all components (a ``PairPostings`` that ignores its labels) fails the
    count; survivors not sorted by label fail the order."""

    @BLOCKS
    @given(rows=st.one_of(closure_inputs().map(decoded_rows), multi_component_rows()))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_lists_and_counts_what_closing_each_component_alone_would(self, block, rows):
        columns = [f"c{p}" for p in range(len(rows[0]))]
        table = Table("t", columns, rows).with_default_provenance()
        closed, provenance, _ = component_at_a_time(table.rows, table.provenance)
        expected = reduced(closed, provenance)
        alone = sum(
            AliteFullDisjunction().integrate([Table("t", columns, [rows[index] for index in members])])
            .statistics["complementation_comparisons"]
            for members in components_of(rows)
        )
        with blocks_of(block):
            result = LabelledRoute().integrate([table])
        assert (result.table.rows, result.table.provenance) == expected
        assert result.statistics["complementation_comparisons"] == alone

    def test_one_pass_on_a_multi_schema_lake(self):
        # Four unrelated pairs of tables, a thousand two-tuple components each:
        # three tests per component, where the whole-input closure meets every
        # tuple of the other schemas through their nulls.
        tables = multi_schema_lake(4, 1_000)
        alite = UnlabelledRoute().integrate(tables)
        result = get_algorithm("alite").integrate(tables)
        assert result.statistics["components"] == 4_000
        assert result.statistics["complementation_comparisons"] == 12_000
        assert result.statistics["complementation_comparisons"] * 100 < alite.statistics["complementation_comparisons"]
        assert rows_with_provenance(result.table) == rows_with_provenance(alite.table)

    def test_component_order_past_two_to_the_sixteen_labels(self):
        # Every input tuple is a component of its own, so the labels run to
        # 2¹⁶ + 2 (0 is the fully-null tuples'): a survivor sort by label that
        # wrapped at 16 bits would list the last components first.
        n = (1 << 16) + 1
        left = Table("L", ["k", "a"], [(f"k{i}", f"a{i}") for i in range(n)])
        right = Table("R", ["k", "b"], [("r", "b")])
        result = LabelledRoute().integrate([left, right])
        assert result.table.rows == [(f"k{i}", f"a{i}", NULL) for i in range(n)] + [("r", NULL, "b")]
        assert result.table.provenance == [frozenset({f"L:{i}"}) for i in range(n)] + [frozenset({"R:0"})]
        alite = get_algorithm("alite").integrate([left, right]).table
        assert set(zip(result.table.rows, result.table.provenance)) == set(zip(alite.rows, alite.provenance))


@contextmanager
def kernel_events():
    """Record, in order, what the kernel does: each closure it starts
    (``close``), each :class:`~repro.table.coded.MeetingRuns` it builds
    (``build``, the postings and the inputs' patterns), each copy ordered by
    the cut it adds (``split``, the inputs' codes at the cut) and each listing
    it reads (``read``: the owners, their pairs, their codes at the cut or
    ``None``, and the ``(owner, candidate)`` blocks it expands)."""
    events = []
    close_coded = ComplementationEngine.close_coded

    class Spied(coded.MeetingRuns):
        def __init__(self, postings, patterns):
            events.append(("build", postings, patterns.copy()))
            super().__init__(postings, patterns)

        def cut(self, at_cut, codes):
            events.append(("split", at_cut.copy()))
            return super().cut(at_cut, codes)

        def meeting(self, owners, pairs, patterns, limits, at_cut=None):
            read = ("read", owners, pairs, at_cut, [])
            events.append(read)
            for block in super().meeting(owners, pairs, patterns, limits, at_cut):
                read[4].append(block)
                yield block

    def spied_close(engine, *args):
        events.append(("close",))
        return close_coded(engine, *args)

    with patch.object(complementation, "MeetingRuns", Spied), patch.object(
        ComplementationEngine, "close_coded", spied_close
    ):
        yield events


def per_closure(events, kind):
    """How many events of ``kind`` each closure recorded."""
    counts = []
    for event in events:
        if event[0] == "close":
            counts.append(0)
        elif event[0] == kind:
            counts[-1] += 1
    return counts


def builds_per_closure(events):
    return per_closure(events, "split")


def expanded(events):
    """The candidates each listing expanded, in order."""
    return [sum(owner.size for owner, _ in event[4]) for event in events if event[0] == "read"]


def closure_in_order(rows):
    """The kernel's whole-input closure of ``rows`` (one label for every
    input) in id order: rows, provenance, strictly subsumed."""
    codes, values = encode_rows(rows, len(rows[0]))
    closed, subsumed, _ = ComplementationEngine().close_coded(codes, {}, np.zeros(codes.shape[1], dtype=np.intp))
    inputs, holders = subsumed_sources(closed, codes, np.flatnonzero((closed < 0).all(axis=0)))
    decoded = Relation("closed", map(str, range(len(values))), closed, values).decode()
    return decoded, sources(sources_of(rows), inputs, holders, closed.shape[1]), subsumed.tolist()


def sequential_in_order(rows):
    """:func:`sequential_closure` in id order, with the strictly subsumed tuples marked."""
    closed, provenance, _ = sequential_closure(rows, sources_of(rows))
    marked = [any(other != row and subsumes(other, row) for other in closed) for row in closed]
    return closed, provenance, marked


def the_cut(events, closed):
    """The cut, from the inputs' codes there: positions with equal columns over
    the inputs are equal over every merge too."""
    (_, at_cut), = [event for event in events if event[0] == "split"]
    return next(position for position in range(len(closed)) if np.array_equal(closed[position, : at_cut.size], at_cut))


def owner_kinds(events, closed):
    """Which owners read the split lists: null at the cut, listed at the cut,
    listed elsewhere with a value at the cut."""
    (_, postings, _), = [event for event in events if event[0] == "build"]
    cut = the_cut(events, closed)
    kinds = set()
    for _, _, pairs, owner_at_cut, _ in (event for event in events if event[0] == "read"):
        if owner_at_cut is None:
            continue
        at = np.searchsorted(postings.values, pairs[:, 0], side="right") - 1 == cut
        kinds |= {"null"} if (owner_at_cut < 0).any() else set()
        kinds |= {"at the cut"} if (at & (owner_at_cut >= 0)).any() else set()
        kinds |= {"elsewhere"} if (~at & (owner_at_cut >= 0)).any() else set()
    return kinds


def meeting_kinds(events, closed, inputs):
    """Which kinds of owner expanded candidates — an input, a merged tuple
    before the lists are split, and after it one null at the cut or one
    holding a code there — asserting that every candidate meets its owner and,
    past the split, is null or agrees with it at the cut."""
    patterns = position_bits(closed)
    cut = the_cut(events, closed) if any(event[0] == "split" for event in events) else None
    kinds = set()
    for _, _, _, owner_at_cut, blocks in (event for event in events if event[0] == "read"):
        for owner, candidate in (block for block in blocks if block[0].size):
            assert ((patterns[owner] & patterns[candidate]) != 0).all()
            if owner_at_cut is None:
                kinds |= {"input" if owner.max() < inputs else "merged"}
            else:
                mine, theirs = closed[cut, owner], closed[cut, candidate]
                assert ((mine < 0) | (theirs < 0) | (mine == theirs)).all()
                kinds |= {"null at the cut"} if (mine < 0).any() else set()
                kinds |= {"at the cut"} if (mine >= 0).any() else set()
    return kinds


@st.composite
def generations_rows(draw):
    """Rows of 4-6 low-cardinality columns, enough of them that merged tuples
    of later generations list several candidates each."""
    width = draw(st.integers(4, 6))
    cell = st.sampled_from([NULL, NULL, "a", "b", "c"][: draw(st.integers(4, 5))])
    return draw(st.lists(st.tuples(*[cell] * width), min_size=6, max_size=14))


def load_pipeline_workloads():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "pipeline" / "workloads.py"
    spec = importlib.util.spec_from_file_location("pipeline_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their annotations there
    spec.loader.exec_module(module)
    return module


class TestTwoPositionListing:
    """A tuple expands, of its candidate lists, only the runs of holders whose
    pattern meets its own: an input, of each run, the ones with smaller ids.
    After the first generation, which learns the cut, a second copy of each
    list ordered by (code at the cut, pattern) is added once, the first time
    a later generation lists more than a block; from then on an owner holding
    a code at the cut reads, of that copy, the runs null or holding its code
    there.  With a block of 1, 5 or 7 pairs every later generation of the
    block-parametrised tests above reads the copy too.  The runs are built
    at the first generation that lists more candidates than the inputs have
    cells, so the spied cases here list more; a generation before that
    tests every listed holder's pattern, which meets the same pairs.

    Mutations and the first test here that fails on each: an input's runs
    not cut to smaller ids, the groups of holders null at the cut skipped,
    the lists split again in every generation (the first test); the meet
    test dropped from the runs
    (a candidate read that does not meet its owner); the cut re-learned or
    taken from a sample of the whole first generation (the count on 4 000
    IMDB tuples)."""

    def test_every_kind_of_owner_reads_the_split_lists(self):
        rng = random.Random(9)
        rows = [tuple(rng.choice([NULL, NULL, "a", "b", "c"]) for _ in range(5)) for _ in range(20)]
        assert listed_past_the_cells(rows)
        with blocks_of(1), kernel_events() as events:
            closure = closure_in_order(rows)
        assert closure == sequential_in_order(rows)
        closed = ComplementationEngine().close_coded(encode_rows(rows, 5)[0])[0]
        assert owner_kinds(events, closed) == {"null", "at the cut", "elsewhere"}
        kinds = [event[0] for event in events]
        assert kinds.count("build") == kinds.count("split") == 1
        split = kinds.index("split")
        assert kinds.index("build") < kinds.index("read") < split < kinds.index("read", split)

    def test_every_kind_of_owner_reads_only_meeting_runs(self):
        # Split at the second generation (a block of one pair), and never.
        rng = random.Random(9)
        rows = [tuple(rng.choice([NULL, NULL, "a", "b", "c"]) for _ in range(5)) for _ in range(20)]
        assert listed_past_the_cells(rows)
        kinds = {}
        for block in (1, coded.PAIR_BLOCK):
            with blocks_of(block), kernel_events() as events:
                closed = ComplementationEngine().close_coded(encode_rows(rows, 5)[0])[0]
            kinds[block] = meeting_kinds(events, closed, len(set(rows)))
        assert kinds == {1: {"input", "null at the cut", "at the cut"}, coded.PAIR_BLOCK: {"input", "merged"}}

    @pytest.mark.parametrize("block", [1, 5, 7])
    @given(rows=st.one_of(generations_rows(), closure_inputs().map(decoded_rows).filter(bool)))
    @settings(max_examples=60, deadline=None)
    def test_same_ids_order_provenance_and_mask_as_the_sequential_loop(self, block, rows):
        with blocks_of(block), kernel_events() as events:
            closure = closure_in_order(rows)
        assert closure == sequential_in_order(rows)
        assert builds_per_closure(events) in ([0], [1])
        assert per_closure(events, "build") == [int(bool(expanded(events)))]

    @pytest.mark.parametrize("block", [1, 5])
    @given(rows=multi_component_rows())
    @settings(max_examples=40, deadline=None)
    def test_several_components_under_labels(self, block, rows):
        table = Table("t", [f"c{p}" for p in range(len(rows[0]))], rows).with_default_provenance()
        closed, provenance, _ = component_at_a_time(table.rows, table.provenance)
        with blocks_of(block), kernel_events() as events:
            result = LabelledRoute().integrate([table])
        assert (result.table.rows, result.table.provenance) == reduced(closed, provenance)
        assert all(builds <= 1 for builds in builds_per_closure(events))

    @BLOCKS
    @pytest.mark.parametrize("width", [12, 70])
    def test_every_input_its_own_pattern(self, block, width):
        # Each input holds its own set of positions, so a list holds about as
        # many runs as holders.  At 70 positions, 0 / 63, 1 / 64, ... share a
        # bit of the pattern: tuples that only look alike must not merge.
        # After the first 20, 180 inputs that share no value with any other,
        # each closing to itself: enough that the inputs list more
        # candidates than their cells, so the runs are built.
        rng = random.Random(width)
        positions = list(range(width)) if width < 63 else [0, 1, 2, 3, 4, 5, 63, 64, 65, 66, 67, 68]
        held = []

        def hold(count):
            while len(held) < count:
                chosen = frozenset(rng.sample(positions, rng.randint(2, 4)))
                if chosen not in held:
                    held.append(chosen)

        hold(20)
        rows = [tuple(rng.choice("abc") if p in chosen else NULL for p in range(width)) for chosen in held]
        hold(200)
        rows += [tuple(f"{index}.{p}" if p in chosen else NULL for p in range(width)) for index, chosen in enumerate(held[20:])]
        assert listed_past_the_cells(rows)
        with blocks_of(block), kernel_events() as events:
            closure = closure_in_order(rows)
            result = UnlabelledRoute().integrate([Table("t", [f"c{p}" for p in range(width)], rows)])
        assert closure == sequential_in_order(rows)
        assert len(closure[0]) - 180 > 2 * 20
        (_, _, patterns), *_ = [event for event in events if event[0] == "build"]
        distinct = np.unique(patterns).size
        assert distinct == len(rows) if width < 63 else distinct < len(rows)
        second = [event[0] for event in events].index("close", 1)
        assert 0 < sum(expanded(events[second:])) <= result.statistics["complementation_comparisons"]

    def test_built_once_and_only_past_a_block(self):
        # Four chains side by side close over 7 generations, each listing two
        # candidates or more past the first, which lists more than the inputs'
        # cells: one split at a block of one pair, none at the real block; the
        # runs are built once either way.  IMDB lists more than a block after
        # its first generation.
        rows = chains(4, 8)
        assert listed_past_the_cells(rows)
        for block, builds in ((1, [1]), (coded.PAIR_BLOCK, [0])):
            with blocks_of(block), kernel_events() as events:
                ComplementationEngine().close_coded(encode_rows(rows, 9)[0])
            assert builds_per_closure(events) == builds
            assert per_closure(events, "build") == [1]
        with kernel_events() as events:
            get_algorithm("alite").integrate(ImdbBenchmark(13).tables(1000))
        assert builds_per_closure(events) == per_closure(events, "build") == [1]
        # The other workloads' closures list 439, 0 and 19 749 candidates on
        # seed 13, under a block each: none splits its lists.  Auto-Join's list
        # none, and each served request lists fewer than its inputs' cells,
        # so they build no runs either; the lake's first generation lists
        # more than 2 × CUT_SAMPLE, so it builds them to learn the cut.
        workloads = load_pipeline_workloads()
        for name in ("serve_recurring", "autojoin_cold", "lake_mixed"):
            workload = workloads.build(name, 13)
            with IntegrationEngine(workload.preset) as engine, kernel_events() as events:
                for tables in workload.requests:
                    engine.integrate(tables, **workload.overrides)
            assert builds_per_closure(events) == [0] * len(workload.requests), name
            builds = [1] if name == "lake_mixed" else [0] * len(workload.requests)
            assert per_closure(events, "build") == builds, name

    @BLOCKS
    @given(codes=closure_inputs(), components=st.booleans(), whole=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_reading_the_lists_whole_meets_the_pairs_the_runs_do(self, block, codes, components, whole):
        # One postings index, its lists read both ways: every listed holder
        # tested pattern by pattern, and the runs by pattern.  An input owner
        # reads the holders with smaller ids; with ``whole`` every holder, as
        # a merged owner does.
        inputs = codes.shape[1]
        labels = component_roots(codes) if components else np.zeros(inputs, dtype=np.intp)
        labels = np.unique(labels, return_inverse=True)[1].reshape(-1)
        postings = coded.PairPostings(codes, codes.max(axis=1, initial=-1) + 1, labels)
        patterns = position_bits(codes)
        owners = np.flatnonzero(patterns)
        pairs = postings.listing(postings.best(codes, labels)[owners], codes, owners, labels[owners])
        limit = np.full(owners.size, inputs) if whole else owners
        listed = np.repeat(np.arange(postings.held_by.size), postings.held_by) * inputs + postings.holders
        smaller = np.searchsorted(listed, pairs * inputs + limit[:, None]) - postings.starts[pairs]
        with blocks_of(block):
            read = list(postings.meeting(owners, pairs, smaller, patterns))
            runs = list(coded.MeetingRuns(postings, patterns).meeting(owners, pairs, patterns[owners], limit))

        def pair_list(blocks):
            pairs = [pair for owner, holder in blocks for pair in zip(owner.tolist(), holder.tolist())]
            assert [owner for owner, _ in pairs] == sorted(owner for owner, _ in pairs)  # as the closure adds merges
            return sorted(pairs)

        assert pair_list(read) == pair_list(runs)
        assert all((patterns[owner] & patterns[holder]).all() for owner, holder in read)

    def test_imdb_expands_exactly_the_meeting_candidates(self):
        # Of 1 040 012 candidates listed on 1 000 IMDB tuples, 37 039 meet
        # their owner (1 990 of the first generation's), and only those are
        # expanded: 281 539 were, before the lists were read by pattern.
        with kernel_events() as events:
            result = get_algorithm("alite").integrate(ImdbBenchmark(13).tables(1000))
        assert result.statistics["complementation_comparisons"] == 1_040_012
        assert expanded(events)[0] == 1_990
        assert sum(expanded(events)) == result.statistics["complementation_expanded"] == 37_039

    def test_the_cut_of_the_first_generation_keeps_most_candidates_unexpanded(self):
        # 16 538 948 candidates listed on 4 000 IMDB tuples, 151 538 (0.9 %)
        # expanded: 4 104 338 before the lists were read by pattern.  A cut
        # learned from a sample that barely meets (position 8) expands far more.
        with kernel_events() as events:
            result = get_algorithm("alite").integrate(ImdbBenchmark(13).tables(4000))
        count = sum(expanded(events))
        assert count <= 0.3 * result.statistics["complementation_comparisons"]
        assert count == 151_538


@contextmanager
def listing_events():
    """Record, per closure, the inputs and labels ``PairPostings.best`` keys
    and the keys it returns (``best``), the listing keys, tuples and labels of
    each generation's owners as listed (``listed``), and the closed tuples."""
    closures = []
    close_coded, best, listing = ComplementationEngine.close_coded, coded.PairPostings.best, coded.PairPostings.listing

    def spied_close(engine, *args):
        closures.append({"listed": []})
        closure = close_coded(engine, *args)
        closures[-1]["closed"] = closure[0].copy()
        return closure

    def spied_best(postings, codes, labels):
        keys = best(postings, codes, labels)
        closures[-1]["best"] = (codes.copy(), labels.copy(), keys.copy())
        return keys

    def spied_listing(postings, keys, codes, tuples, labels):
        closures[-1]["listed"].append((keys.copy(), tuples.copy(), labels.copy()))
        return listing(postings, keys, codes, tuples, labels)

    with patch.object(ComplementationEngine, "close_coded", spied_close), patch.object(
        coded.PairPostings, "best", spied_best
    ), patch.object(coded.PairPostings, "listing", spied_listing):
        yield closures


def selective_keys(inputs, input_labels, tuples, labels):
    """The listing key of each of ``tuples`` (in components ``labels``), counted
    on the ``inputs`` (in ``input_labels``): ``size × width + position`` of the
    non-null position, the first on ties, with the fewest inputs holding the
    tuple's code there or null there in its component, ``size`` of them."""
    width = inputs.shape[0]
    sizes = np.full(tuples.shape, np.iinfo(np.int64).max)
    components = int(max(input_labels.max(initial=0), labels.max(initial=0))) + 1
    for position in range(width):
        column, held = inputs[position], tuples[position] >= 0
        values = np.bincount(column[column >= 0], minlength=int(tuples[position].max(initial=-1)) + 1)
        nulls = np.bincount(input_labels[column < 0], minlength=components)
        sizes[position, held] = values[tuples[position, held]] + nulls[labels[held]]
    position = sizes.argmin(axis=0)
    return sizes[position, np.arange(tuples.shape[1])] * width + position


def inherited_keys_checked(closure):
    """Assert that every owner was listed under the key its codes and label
    give, and that its label is its inputs'; return how many owners that was."""
    inputs, input_labels, input_keys = closure["best"]
    closed = closure["closed"]
    none = np.empty(0, dtype=np.int64)
    keys, tuples, labels = (np.concatenate(column) for column in zip((none, none, none), *closure["listed"]))
    # Every known tuple holding a position is an owner of the one generation it is created in.
    assert np.array_equal(tuples, np.flatnonzero(position_bits(closed)))
    # An input is listed under its own label, a merge under the one of every input it stems from.
    is_input = tuples < inputs.shape[1]
    assert np.array_equal(labels[is_input], input_labels[tuples[is_input]])
    sourced, holders = subsumers(inputs, closed[:, tuples])
    assert np.array_equal(labels[holders], input_labels[sourced])
    assert np.array_equal(keys, selective_keys(inputs, input_labels, closed[:, tuples], labels))
    assert np.array_equal(keys[is_input], input_keys[tuples[is_input]])
    return tuples.size


def general_blocks(owners, starts, sizes, block):
    """:func:`~repro.table.coded.span_blocks`' block-boundary search, taken at
    every total: a block starts at the first span of the owner holding every
    ``block``-th entry."""
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    every = np.arange(0, int(ends[-1]) if ends.size else 0, block)
    holding = owners[np.searchsorted(offsets, every, side="right") - 1]
    bounds = np.searchsorted(owners, np.unique(holding)).tolist()
    shift = starts - offsets
    for low, high in zip(bounds, bounds[1:] + [sizes.size]):
        entries, counts = np.arange(offsets[low], ends[high - 1]), sizes[low:high]
        yield np.repeat(owners[low:high], counts), entries + np.repeat(shift[low:high], counts)


@st.composite
def spans(draw):
    """Owner-ascending spans, some empty, over a flat array of 1 000 entries."""
    count = draw(st.integers(0, 40))
    owners = np.array(sorted(draw(st.lists(st.integers(0, 15), min_size=count, max_size=count))), dtype=np.int64)
    sizes = np.array(draw(st.lists(st.integers(0, 9), min_size=count, max_size=count)), dtype=np.int64)
    starts = np.array([draw(st.integers(0, 1_000 - size)) for size in sizes.tolist()], dtype=np.int64)
    return owners, starts, sizes


#: Cells whose codes and spellings the union and the decoding must keep apart:
#: booleans beside the numbers they equal, ints beside equal floats, nulls.
UNION_CELLS = st.sampled_from([NULL, None, float("nan"), True, False, 0, 1, 1.0, 2, 2.5, "", "a", "1", "True"])


@st.composite
def relations_to_union(draw):
    """Two to four coded relations over columns drawn from one small pool, so
    that some columns have one holder and some several."""
    relations = []
    for index in range(draw(st.integers(2, 4))):
        columns = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True, max_size=4))
        rows = draw(st.lists(st.tuples(*[UNION_CELLS] * len(columns)), max_size=8))
        relations.append(Relation.of(Table(f"t{index}", columns, rows)))
    return relations


def redictionaried_union(relations):
    """The outer union as coded before a column of one relation kept its
    dictionary: every column's dictionaries merged through ``dictionary``."""
    schema = relations[0].schema
    for relation in relations[1:]:
        schema = schema.union(relation.schema)
    offsets = np.cumsum([0] + [relation.num_rows for relation in relations]).tolist()
    codes, values = np.full((len(schema), offsets[-1]), -1, dtype=np.int32), []
    for position, column in enumerate(schema):
        held = [(index, relation.schema.position(column)) for index, relation in enumerate(relations) if column in relation.schema]
        remap, merged = dictionary([value for index, at in held for value in relations[index].values[at]])
        start = 0
        for index, at in held:
            end, column = start + len(relations[index].values[at]), relations[index].codes[at]
            remapped = np.array(remap[start:end] + [-1], dtype=np.int32)[column] if start else column
            codes[position, offsets[index] : offsets[index + 1]] = remapped
            start = end
        values.append(merged)
    return schema, codes, values


class TestWhatTheFdStageAlreadyHolds:
    """The FD stage reuses what it has derived once instead of deriving it again.

    A known tuple's listing key (``PairPostings.best``) is computed once per
    input and, for a merge, taken as the smaller of its parents' keys; a
    merged owner's list lengths are the lists' sizes, unsearched;
    ``span_blocks`` expands spans that fit one block without its boundary
    search; the outer union keeps a column of one relation as it is coded; and
    ``Relation.to_table`` takes the decoded rows without coercing them.  Each
    against what it replaced: the key recomputed from the tuple's codes and
    label, the boundary search, the re-dictionaried union, the coercing
    constructor.

    Mutations and the first test here that fails on each: a merge keyed by
    the larger of its parents' keys, or by its owner's alone (the keys of the
    IMDB closure); an input's list lengths not searched (the 12 / 12 counter
    pin of ``test_complementation``)."""

    def test_every_owner_is_listed_under_its_selective_key_on_imdb(self):
        with listing_events() as closures:
            result = get_algorithm("alite").integrate(ImdbBenchmark(13).tables(1000))
        (closure,) = closures
        assert inherited_keys_checked(closure) == result.statistics["complementation_tuples"] == 7_104

    def test_every_owner_is_listed_under_its_selective_key_on_a_multi_schema_lake(self):
        # The closure labels this lake, so each component keys its own nulls:
        # the labels count.
        with listing_events() as closures:
            result = get_algorithm("alite").integrate(multi_schema_lake(4, 50))
        assert result.statistics["components"] == 200
        (closure,) = closures
        assert np.unique(closure["best"][1]).size > 100
        assert inherited_keys_checked(closure) == result.statistics["complementation_tuples"]

    @BLOCKS
    @given(rows=st.one_of(generations_rows(), multi_component_rows()))
    @settings(max_examples=40, deadline=None)
    def test_every_owner_is_listed_under_its_selective_key(self, block, rows):
        table = Table("t", [f"c{p}" for p in range(len(rows[0]))], rows)
        with blocks_of(block), listing_events() as closures:
            for algorithm in (get_algorithm("alite"), LabelledRoute()):
                algorithm.integrate([table])
        for closure in closures:
            inherited_keys_checked(closure)

    @pytest.mark.parametrize("width", [64, 70, 130])
    def test_past_63_positions(self, width):
        # Positions past the pattern word's bits, and keys past width 63: the
        # last position holds one of three values in every row, the fewest
        # holders of a value and a null together.
        rng = random.Random(width)
        cells = [["a", NULL, NULL]] * 63 + [[NULL] * 4 + ["f"]] * (width - 64) + [["b", "c", "d"]]
        rows = [tuple(map(rng.choice, cells)) for _ in range(16)]
        with listing_events() as closures:
            closure = closure_in_order(rows)
        assert closure == sequential_in_order(rows)
        (recorded,) = closures
        assert inherited_keys_checked(recorded) > len(rows)
        assert (np.concatenate([keys for keys, _, _ in recorded["listed"]]) % width == width - 1).all()

    def test_zero_width(self):
        # No position to key: every input keys int64 max and nothing is listed.
        with listing_events() as closures:
            result = get_algorithm("alite").integrate([Table("t", [], [(), (), ()])])
        (closure,) = closures
        inputs, _, keys = closure["best"]
        assert inputs.shape == (0, 1) and keys.tolist() == [np.iinfo(np.int64).max]
        assert closure["listed"] == []
        assert (result.table.rows, result.table.provenance) == ([()], [frozenset({"t:0", "t:1", "t:2"})])

    @given(drawn=spans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_block_is_the_general_path(self, drawn, data):
        # Below the block the spans come as one block, without the boundary
        # search; at and above it, in the blocks that search gives.
        owners, starts, sizes = drawn
        total = int(sizes.sum())
        block = data.draw(st.sampled_from([1, 5, 7, max(total, 1), total + 1, coded.PAIR_BLOCK]))
        with blocks_of(block):
            found = list(coded.span_blocks(owners, starts, sizes))
        expected = list(general_blocks(owners, starts, sizes, block))
        assert len(found) == len(expected) == (1 if 0 < total <= block else len(expected))
        for (owner, index), (want_owner, want_index) in zip(found, expected):
            assert owner.dtype == want_owner.dtype and index.dtype == want_index.dtype
            assert np.array_equal(owner, want_owner) and np.array_equal(index, want_index)
        flat = np.concatenate([index for _, index in found]) if found else np.empty(0, dtype=np.int64)
        assert np.array_equal(flat, np.concatenate([np.arange(s, s + n) for s, n in zip(starts, sizes)] + [flat[:0]]))

    def test_one_block_at_the_real_block(self):
        # A total of exactly PAIR_BLOCK entries is one block, one more is two.
        for total, blocks in ((coded.PAIR_BLOCK, 1), (coded.PAIR_BLOCK + 1, 2)):
            sizes = np.array([total // 2, total - total // 2])
            owners, starts = np.arange(2), np.array([0, 7])
            found = list(coded.span_blocks(owners, starts, sizes))
            expected = list(general_blocks(owners, starts, sizes, coded.PAIR_BLOCK))
            assert len(found) == len(expected) == blocks
            assert all(np.array_equal(a, b) for got, want in zip(found, expected) for a, b in zip(got, want))

    @given(relations=relations_to_union())
    @settings(max_examples=200, deadline=None)
    def test_outer_union_is_the_redictionaried_union(self, relations):
        schema, codes, values = outer_union(relations)
        want_schema, want_codes, want_values = redictionaried_union(relations)
        assert schema == want_schema and codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
        assert repr(values) == repr(want_values)

    @given(relations=relations_to_union())
    @settings(max_examples=200, deadline=None)
    def test_to_table_is_the_coercing_table(self, relations):
        schema, codes, values = outer_union(relations)
        provenance = [frozenset({f"r{row}", "s"}) for row in range(codes.shape[1])]
        for relation in (Relation("u", schema, codes, values), Relation("u", schema, codes, values, provenance)):
            table = relation.to_table()
            want = Table(relation.name, relation.schema, relation.decode(), provenance=relation.provenance)
            assert table == want and repr(table.rows) == repr(want.rows)
            assert all(type(row) is tuple and len(row) == len(schema) for row in table.rows)
            assert (table.name, table.columns, table.provenance) == (want.name, want.columns, want.provenance)
            assert relation.provenance is None or table.provenance is not relation.provenance
