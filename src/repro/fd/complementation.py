"""Complementation closure — the engine behind the coded FD algorithm.

ALITE computes Full Disjunction by (1) outer-unioning the input tables,
(2) repeatedly *complementing* pairs of tuples — merging any two tuples that
are join-consistent (they agree on every attribute where both are non-null and
share at least one non-null value) — until no new tuple can be produced, and
(3) removing subsumed tuples.  This module implements step (2) over integer
coded tuples (:mod:`repro.table.coded`).  Every closed tuple is the union of
a value-connected set of input tuples, so the closure adds one input at a
time: a tuple is only compared with the *inputs* that agree with it or are
null on its most selective column (in its component, where the closure labels
them: :data:`LISTED_PER_CELL`), found in value and null postings built once
over the inputs — of those only the ones whose non-null positions meet its
own, read in runs of one such pattern, and after the first generation of
those only the ones null or agreeing with it at a second column, the *cut* —
plus duplicate elimination so the closure terminates.  Comparisons, merges
and duplicate elimination run on tuples packed as bit-field words
(:class:`~repro.table.coded.TupleIndex`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.table import coded
from repro.table.coded import MeetingRuns, PairPostings, TupleIndex
from repro.table.subsumption import subsumers, survivor
from repro.utils.components import component_labels
from repro.utils.sorting import stable_order

#: About this many candidate pairs per block of the first generation, every
#: k-th (all of a smaller block), are tested at every position on codes; the
#: position where most conflicted is the cut.
CUT_SAMPLE = 256

#: The closure labels components when its inputs' unlabelled lists sum to
#: more than this many per non-null input cell; labels only shorten the null
#: lists.  The pipeline workloads' requests read 0.5–2.5, where labelling costs
#: more than it saves (their FD stage ×1.2–1.5 slower labelled); lakes of
#: unrelated schemas and join triangles read thousands (3 000 on a 4-group lake
#: of 8 000 tuples, 31 500 on 64 groups, 4 000 on a 3 × 8 000 triangle), where
#: labels make the closure some 20× faster.  A 1 000-tuple IMDB sample reads
#: 61 but is one component, which labels leave as it is.
LISTED_PER_CELL = 16


def position_bits(columns: np.ndarray) -> np.ndarray:
    """Per tuple of a ``(width, n)`` code matrix, one bit per non-null position, modulo 63.

    Partners share a value, so their bits meet.  (The held masks of several
    words, folded, would alias.)
    """
    bits = (np.arange(columns.shape[0]) % 63)[:, None]
    return np.bitwise_or.reduce((columns >= 0) << bits, axis=0, initial=0)


def grown(table: np.ndarray, kept: int, size: int) -> np.ndarray:
    """A copy of ``table`` with ``size`` entries along its last axis, the first ``kept`` of them its own."""
    larger = np.empty(table.shape[:-1] + (size,), table.dtype)
    larger[..., :kept] = table[..., :kept]
    return larger


class ComplementationEngine:
    """Closes a set of same-schema tuples under pairwise complementation.

    The closure runs over the integer coding of :mod:`repro.table.coded`,
    stored column-major — ``data[p]`` is column ``p`` of every known tuple —
    and, beside it, over the same tuples as :class:`~repro.table.coded.TupleIndex`'s
    bit-field words.  A tuple's partners are *input* tuples: a distinct
    input meets the inputs with smaller ids, a merged tuple every input,
    never another merged tuple.  That closes the same set as meeting every
    tuple: a closed tuple is the union of a value-connected set of inputs,
    and adding them one at a time, each sharing a value with the ones before,
    reaches it.  A partner ``c`` of a tuple ``t`` holds ``t[p]`` or null at
    *every* non-null position ``p`` of ``t``, so for any single position the
    partners are among ``posting(p, t[p]) ∪ posting(p, null in t's
    component)`` over the inputs; the engine takes its candidates from the
    position where that union is smallest — the same pairs ALITE's hash
    index on shared values finds, from far fewer candidates when a column
    such as ``genres`` is low-cardinality.  That position is found once per
    input; a merge holds its parents' positions with their codes, so it
    inherits the smaller of their listing keys.  Partners share a value, so
    their position bits meet: at the first generation that lists more
    candidates than the inputs have cells, the inputs' lists are ordered once
    more, by (pair, holder's position bits), and a tuple reads, of each list,
    only the runs whose bits meet its own
    (:class:`~repro.table.coded.MeetingRuns`) — never a candidate the meet
    test would drop; a generation before that tests the bits of every listed
    holder (:meth:`~repro.table.coded.PairPostings.meeting`).  It tests the
    rest on codes at one position, the *cut* (where the most of a sample of the first generation's candidates
    conflicted), and then on the words, every position at once: "no
    conflict", "shares a value" and which side holds only positions the other
    holds.  The cut is learned once and kept: the first later generation
    that lists more than a block of candidates orders the runs of each list
    by their holders' code at the cut, once, and from then on a tuple holding
    a code at the cut reads, of each list, only the meeting runs null or
    holding that code there — the candidates the cut would keep, never
    expanded to be dropped.  (Re-learned from those, the cut would drift:
    none of them conflicts there.)  A merge is the OR of two tuples' words,
    and the words are the keys it is deduplicated by; only the new tuples
    are coded, from their two parents, and their position bits and held
    masks are computed once, when they are added.

    The tuples created while one *generation* (the inputs, then what the
    inputs' merges created, ...) is tested get the next, contiguous ids, and
    the inputs do not change.  So a whole generation is tested in one
    vectorised pass, at a cost in proportion to its own tuples, and its
    merges, taken in (tuple, partner) order, receive exactly the ids a
    tuple-at-a-time loop over input partners would assign.

    Parameters
    ----------
    max_tuples:
        Safety limit on the number of distinct tuples the closure may create,
        at most 2**30; exceeded limits raise ``RuntimeError`` (Full
        Disjunction results can be exponential in pathological inputs, and a
        hard failure is more useful than an apparent hang).  The bit layout
        of :class:`~repro.table.coded.TupleIndex` is sized by it.
    """

    def __init__(self, max_tuples: int = 5_000_000) -> None:
        self.max_tuples = max_tuples

    def disjunction_coded(
        self,
        codes: np.ndarray,
        statistics: Dict[str, float] | None = None,
        labels: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full Disjunction of coded tuples: closure, then subsumption removal.

        Returns the surviving tuples, coded, and the survivor (none or one
        index) that takes the fully-null inputs' provenance; the rest of it
        is the inputs each survivor subsumes (:func:`subsumed_sources`).  With
        ``labels`` — one per input in ``[0, inputs]``, equal within each
        connected component of the value-sharing graph — the survivors come
        label by label, each label's in closure order, and each tuple meets its
        own label's inputs only: what closing the labels one after the other
        would list and test.  A merge never leaves its component, so a
        survivor's label is that of every input it subsumes.  Without
        ``labels`` the closure picks them itself (:meth:`close_coded`); one
        label for every input is the whole-input closure.  The rows and
        provenance are the same whatever the labels.
        """
        closed, subsumed, closed_labels = self.close_coded(codes, statistics, labels)
        kept = np.flatnonzero(~subsumed)
        # Fully-null inputs ride on the survivor standing for the closure's
        # fully-null tuple, which the first other tuple absorbs, as in
        # :func:`~repro.table.subsumption.reduce_coded`.
        empty = np.flatnonzero((closed < 0).all(axis=0)).tolist()
        starts = [int(index == 0) if subsumed[index] else index for index in empty]
        empty_to = np.searchsorted(kept, [survivor(closed, subsumed, start) for start in starts])
        if closed_labels is not None:
            order = stable_order(closed_labels[kept], codes.shape[1] + 1)
            kept, empty_to = kept[order], np.argsort(order)[empty_to]
        return closed[:, kept], empty_to

    def close_coded(
        self, codes: np.ndarray, statistics: Dict[str, float] | None = None, labels: np.ndarray | None = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """:meth:`close` over a ``(width, rows)`` code matrix, coded in and out.

        With ``labels`` (:meth:`disjunction_coded`), a tuple meets its label's
        inputs only.  Without them the closure labels the components itself
        where the inputs' unlabelled listing keys say it pays
        (:func:`worth_labelling`), reports their count as ``components`` and
        keys the inputs again.  Also returns, per closed tuple, whether another
        closed tuple strictly subsumes it and, unless the closure ran
        unlabelled, its label: that of the inputs it merged.  If ``s`` strictly
        subsumes ``t``, some input of ``s`` is not within ``t``, and one such
        input shares a value with ``t``: with an input of ``s`` within ``t``
        if there is one (the inputs of ``s`` are value-connected), else at any position ``t``
        holds.  That input adds a value to ``t`` without conflict, and the
        pair is tested — from ``t``'s side or, for two inputs, from the
        larger id's — and marks ``t``.  Provenance is not carried through: a
        closed tuple stems from the inputs it subsumes (:func:`subsumed_sources`).

        Every known tuple keeps one *listing key*, ``size × width + position``
        of its most selective position, ``size`` the inputs holding its value
        there plus those null there in its component
        (:meth:`~repro.table.coded.PairPostings.best`).  An input's key is
        computed from its codes (again, where the closure labels); a merge takes the smaller of its two
        parents' keys — its positions are theirs, with the same codes and
        label — so the first position on ties still wins, and a generation
        gathers its owners' two pairs in proportion to its owners, not to
        their cells.  Every input is below a merged owner's limit, so only
        the inputs' list lengths are searched.
        """
        statistics = statistics if statistics is not None else {}
        width = codes.shape[0]
        codes_per_column = codes.max(axis=1, initial=-1) + 1
        known = TupleIndex(codes_per_column, self.max_tuples)
        capacity = max(16, 2 * codes.shape[1])
        data = np.empty((width, capacity), dtype=np.int32)
        words = np.empty((len(known.bits), capacity), dtype=np.int64)
        held = np.empty_like(words)  # the top bit of every non-null field
        pattern = np.empty(capacity, dtype=np.int64)  # one bit per non-null position, modulo 63
        component = np.empty(capacity, dtype=np.intp)  # the label of every known tuple
        listing = np.empty(capacity, dtype=np.int64)  # the listing key of every known tuple

        def add(
            tuple_words: np.ndarray,
            tuple_labels: np.ndarray,
            columns: Callable[[np.ndarray], np.ndarray],
            keys: Callable[[np.ndarray], np.ndarray],
        ) -> None:
            """Append those of the tuples, given by their words, that are not
            known yet; ``columns(fresh)`` codes the ones at ``fresh`` and
            ``keys(fresh)`` gives their listing keys."""
            nonlocal data, words, held, pattern, component, listing
            start = len(known)
            fresh = known.add(tuple_words)[1]
            end = len(known)
            if end > data.shape[1]:  # one table at a time: each old one is freed before the next grows
                data = grown(data, start, 2 * end)
                words = grown(words, start, 2 * end)
                held = grown(held, start, 2 * end)
                pattern = grown(pattern, start, 2 * end)
                component = grown(component, start, 2 * end)
                listing = grown(listing, start, 2 * end)
            data[:, start:end] = columns(fresh)
            words[:, start:end] = tuple_words.take(fresh, axis=1)
            held[:, start:end] = known.held(words[:, start:end])
            pattern[start:end] = position_bits(data[:, start:end])
            component[start:end] = tuple_labels[fresh]
            listing[start:end] = keys(fresh)

        add(known.pack(codes), np.zeros(codes.shape[1], dtype=np.intp) if labels is None else labels,
            lambda fresh: codes[:, fresh], lambda fresh: 0)
        # Every tuple meets inputs only, so their postings are built once, and
        # the inputs' listing keys with them; a merge inherits its key.
        inputs = len(known)
        postings = PairPostings(data[:, :inputs], codes_per_column, component[:inputs])
        listing[:inputs] = postings.best(data[:, :inputs], component[:inputs])
        ranks = None if labels is not None else worth_labelling(data[:, :inputs], listing[:inputs])
        if ranks is not None:
            statistics["components"] = float(ranks.max())
            component[:inputs] = ranks
            postings = PairPostings(data[:, :inputs], codes_per_column, component[:inputs])
            listing[:inputs] = postings.best(data[:, :inputs], component[:inputs])
        merges = 0
        comparisons = 0
        expanded = 0
        subsumed = [np.empty(0, dtype=np.intp)]  # tuples another one strictly subsumes
        conflicting = np.zeros(width, dtype=np.int64)  # per position, in the first generation's samples
        cut = None  # learned on the first generation, then kept
        runs = None  # the inputs' lists in runs by pattern, built when a generation lists more than their cells
        split = False  # whether ``runs`` holds the lists ordered by their code at the cut too
        generation_start = 0
        while generation_start < len(known):
            count = len(known)
            owners = generation_start + np.flatnonzero(pattern[generation_start:count])
            generation_start = count
            if not owners.size:
                continue
            # Candidates of a tuple: the inputs holding its value or its
            # component's null at its listing key's position — for an input
            # the ones with smaller ids, a prefix of each list found by one
            # search of the lists keyed (pair, id); for a merged tuple all of them.
            pairs = postings.listing(listing.take(owners), data, owners, component.take(owners))
            limit = np.minimum(owners, inputs)
            if owners[0] < inputs:
                listed = np.repeat(np.arange(postings.held_by.size), postings.held_by) * inputs + postings.holders
                smaller = np.searchsorted(listed, pairs * inputs + limit[:, None]) - postings.starts[pairs]
            else:
                smaller = postings.held_by[pairs]
            candidates = int(smaller.sum())
            comparisons += candidates
            if not candidates:
                continue
            # Of those, a tuple expands only the runs whose pattern meets its
            # own.  After the first generation every owner is a merged tuple,
            # which reads whole lists; once a generation lists more than a
            # block, an owner holding a code at the cut reads only the runs
            # null or holding that code there.  Until a generation lists more
            # candidates than the inputs have cells, the runs are not worth
            # building: it reads its lists whole and tests every candidate's
            # pattern — the same pairs, in another order.  That order would
            # change the cut's sample past 2 × CUT_SAMPLE pairs, and the split
            # needs the runs, so those generations build them.
            whole = candidates < 2 * CUT_SAMPLE if cut is None else candidates <= coded.PAIR_BLOCK
            if runs is None and whole and candidates <= width * inputs:
                blocks = postings.meeting(owners, pairs, smaller, pattern)
            else:
                if runs is None:
                    runs = MeetingRuns(postings, pattern[:inputs])
                if not split and cut is not None and candidates > coded.PAIR_BLOCK:
                    runs, split = runs.cut(data[cut, :inputs], int(codes_per_column[cut])), True
                at_cut = data[cut].take(owners) if split else None
                blocks = runs.meeting(owners, pairs, pattern.take(owners), limit, at_cut)
            for owner, candidate in blocks:
                expanded += owner.size
                # The cut: the position where most of a sample of the first
                # generation's candidates conflict so far, on codes; then
                # every position at once, on the words.  The split lists only
                # candidates clear at the cut.
                if cut is None:
                    sample = slice(None, None, max(owner.size // CUT_SAMPLE, 1))
                    mine, theirs = data.take(owner[sample], axis=1), data.take(candidate[sample], axis=1)
                    conflicting += ((mine != theirs) & ((mine | theirs) >= 0)).sum(axis=1)
                if not split:
                    position = int(np.argmax(conflicting)) if cut is None else cut
                    mine, theirs = data[position].take(owner), data[position].take(candidate)
                    clear = (mine == theirs) | ((mine | theirs) < 0)
                    owner, candidate = owner[clear], candidate[clear]
                conflict, meets, owner_within, candidate_within = known.compare(words, held, owner, candidate)
                clear = ~conflict
                partners = meets & clear
                merges += int(np.count_nonzero(partners))
                # A partner holds the owner's code or null wherever the owner
                # is non-null, so the merge is the words' OR; it is one of the
                # two (a known tuple) unless each side adds a value to the
                # other.  A novel merge subsumes both sides; a side that holds
                # only positions the other holds is subsumed by it.
                novel = partners & ~owner_within & ~candidate_within
                subsumed.append(owner[novel | clear & owner_within])
                subsumed.append(candidate[novel | clear & candidate_within])
                # An owner's merges are taken in partner order, as if tested one by one.
                owner, candidate = owner[novel], candidate[novel]
                order = np.argsort(owner * inputs + candidate, kind="stable")
                owner, candidate = owner[order], candidate[order]
                add(
                    words.take(owner, axis=1) | words.take(candidate, axis=1),
                    component[owner],
                    lambda fresh: np.maximum(data.take(owner[fresh], axis=1), data.take(candidate[fresh], axis=1)),
                    lambda fresh: np.minimum(listing.take(owner[fresh]), listing.take(candidate[fresh])),
                )
            if cut is None:
                cut = int(np.argmax(conflicting))

        counters = (("comparisons", comparisons), ("expanded", expanded), ("merges", merges), ("tuples", len(known)))
        for name, value in counters:
            key = f"complementation_{name}"
            statistics[key] = statistics.get(key, 0.0) + float(value)
        closed = data[:, : len(known)]
        mask = np.zeros(len(known), dtype=bool)
        mask[np.concatenate(subsumed)] = True
        # A fully-null tuple is subsumed by any other; it is never a partner.
        mask[pattern[: len(known)] == 0] = len(known) > 1
        return closed, mask, None if labels is None and ranks is None else component[: len(known)]


def subsumed_sources(closed: np.ndarray, codes: np.ndarray, empty_to: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Provenance of tuples ``closed`` of the closure of the inputs ``codes``,
    as pairs: input ``inputs[k]`` is a source of closed tuple ``holders[k]``.

    A closed tuple ``t`` stems from the non-empty inputs it subsumes: each such
    input is a partner of ``t`` whose merge is ``t`` itself, and every tuple
    merged into ``t`` is subsumed by ``t``, hence so are the inputs it stems
    from.  Fully-null inputs merge with nothing; the tuple ``empty_to`` (none
    or one index) takes their sources.
    """
    inputs, holders = subsumers(codes, closed)
    empty = np.flatnonzero((codes < 0).all(axis=0))
    return np.concatenate((inputs, empty)), np.concatenate((holders, np.repeat(empty_to, empty.size)))


def worth_labelling(codes: np.ndarray, keys: np.ndarray) -> np.ndarray | None:
    """The :func:`component_ranks` of the distinct inputs ``codes`` if their
    unlabelled listing ``keys`` (:meth:`~repro.table.coded.PairPostings.best`)
    list more than :data:`LISTED_PER_CELL` per non-null cell and there are
    several components, else ``None``.  An input lists at most every input,
    and over one column at most itself and the fully-null input."""
    if codes.shape[1] <= LISTED_PER_CELL or codes.shape[0] == 1:
        return None
    listed = keys[keys < coded.NO_KEY] // codes.shape[0]
    if listed.sum() <= LISTED_PER_CELL * np.count_nonzero(codes >= 0):
        return None
    ranks = component_ranks(codes)
    return ranks if ranks.max() > 1 else None


def component_ranks(codes: np.ndarray) -> np.ndarray:
    """Per tuple of a code matrix, 0 if it is fully null, else the rank, from 1,
    of its value-sharing component (:func:`component_roots`) among the
    components in the order of their first tuples."""
    roots = component_roots(codes)
    informative = (codes >= 0).any(axis=0)
    first = np.zeros(codes.shape[1], dtype=bool)
    first[roots[informative]] = True
    return np.where(informative, np.cumsum(first)[roots], 0)


def component_roots(codes: np.ndarray) -> np.ndarray:
    """Per tuple of a code matrix, the smallest tuple id of its value-sharing component.

    Two tuples are connected when they share a non-null value in the same
    column.  Complementation can never merge tuples across components (a merge
    requires a shared value, and merged tuples only carry values from their
    sources), so the closure of the whole input is the closures of its
    components side by side — what lets the closure keep every tuple to its
    own component's.
    """
    count = codes.shape[1]
    codes_per_column = codes.max(axis=1, initial=-1) + 1
    held = np.flatnonzero(codes >= 0)  # cell ids, position-major: faster than a 2-D nonzero
    value = codes.ravel()[held] + (np.cumsum(codes_per_column) - codes_per_column)[held // count]
    return component_labels(held % count, value, count, int(codes_per_column.sum()))[:count]
