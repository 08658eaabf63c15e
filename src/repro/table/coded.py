"""Index structures over integer-coded tuples.

The Full Disjunction kernels (complementation closure, subsumption removal)
never look at cell values, only at whether two cells of one column are equal
and whether a cell is null.  So they run over a ``(width, rows)`` ``int32``
matrix — the codes of a :class:`~repro.table.relation.Relation`: every
distinct value of a column has a small code, ``-1`` is null (any flavour),
and one row of the matrix is one column of the table, which makes "this
column of these tuples" one contiguous gather.

The complementation closure also keeps each tuple as a few int64 words of bit
fields, one field per column (:class:`TupleIndex`): a word test compares two
tuples at every position at once, their merge is an OR, and the words are the
keys the closure deduplicates by.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from repro.utils.sorting import first_of_runs, sorted_unique, stable_order

#: (tuple, candidate) pairs the posting scans — complementation closure and
#: subsumption — expand and test at a time; bounds their scratch memory.
PAIR_BLOCK = 1 << 16

#: Bits of a word's key: every key stays below ``2**62``, under the sentinel
#: ``2**63 - 1`` that ends each word's sorted keys.
KEY_BITS = 62

#: ``2**63 - 1``, above every key (read once: ``np.iinfo`` builds an object per call).
NO_KEY = np.iinfo(np.int64).max


class TupleIndex:
    """The distinct coded tuples seen so far, numbered in order of first occurrence.

    Exact, with nothing hashed.  A tuple is a few int64 *words* of bit fields
    (:meth:`pack`): cell ``p`` holds ``code + 1`` (0 for null) in
    ``bit_length(codes_per_column[p])`` bits, and the fields pack, widest
    first, into the first word with room, none straddling two words.  The first
    word is a tuple's key there; a later word's key is the number of the
    tuple's prefix before it, shifted past the word.  So the first word has
    room for :data:`KEY_BITS` bits and a later one for those less the bits of
    the largest number the index hands out, ``capacity - 1``: numbering more
    than ``capacity`` distinct prefixes, or tuples, raises ``RuntimeError``.
    Each word keeps its keys seen so far sorted beside their numbers, and the
    last word's numbers number the tuples.

    The words also test, merge and compare tuples without unpacking them.
    ``low`` holds each field's bits but its top one and ``high`` its top bit,
    per word: ``((w & low) + low | w) & high`` carries any low bit of a field
    into its top bit, so it marks every non-null field (:meth:`held`).  Two
    tuples that agree wherever both hold a code merge to ``w | v``.
    """

    def __init__(self, codes_per_column: np.ndarray, capacity: int) -> None:
        widths = [int(count).bit_length() for count in codes_per_column.tolist()]
        self.capacity = capacity
        room = KEY_BITS - (capacity - 1).bit_length()
        if room < 32:  # a code below 2**31, plus one
            raise ValueError(f"a capacity of {capacity} tuples leaves a later word too few bits for a 32-bit field")
        rows, self.bits, low, high = [[0] * len(widths)], [0], [0], [0]
        for position in sorted(range(len(widths)), key=lambda position: -widths[position]):
            width = widths[position]
            if not width:
                break
            fits = (word for word, used in enumerate(self.bits) if used + width <= (room if word else KEY_BITS))
            word = next(fits, len(rows))
            if word == len(rows):
                rows.append([0] * len(widths))
                self.bits += [0]
                low += [0]
                high += [0]
            shift = self.bits[word]
            rows[word][position] = 1 << shift
            low[word] |= ((1 << (width - 1)) - 1) << shift
            high[word] |= 1 << (shift + width - 1)
            self.bits[word] += width
        self.multipliers = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        self.low, self.high = np.array(low, dtype=np.int64), np.array(high, dtype=np.int64)
        # A sentinel above every key ends each word's sorted keys.
        self.keys = [np.array([NO_KEY])] * len(rows)
        self.numbers = [np.array([-1])] * len(rows)

    def __len__(self) -> int:
        return self.numbers[-1].size - 1

    def pack(self, columns: np.ndarray) -> np.ndarray:
        """The ``(words, n)`` words of the ``(width, n)`` coded tuples."""
        # Tuple-major, so each tuple's codes are adjacent for the product (4× faster at 192 × 64 000).
        rows = np.ascontiguousarray(columns.T, dtype=np.int64) + 1  # code 2**31 - 1 takes a 32-bit field
        return (rows @ self.multipliers.T).T

    def held(self, words: np.ndarray) -> np.ndarray:
        """The top bit of every non-null field of ``words``."""
        low = self.low[:, None]
        return ((words & low) + low | words) & self.high[:, None]

    def compare(
        self, words: np.ndarray, held: np.ndarray, mine: np.ndarray, theirs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Test the tuple pairs ``(mine[i], theirs[i])`` of the ``(words, tuples)``
        table ``words`` and its :meth:`held` masks, every position at once.

        Per pair: whether the two conflict (some field both hold differs),
        whether they hold a position in common, whether mine holds only
        positions theirs holds, and the converse.  A loop over words, not positions.
        """
        conflict = common = mine_only = theirs_only = np.int64(0)
        for word, low, mask in zip(words, self.low, held):
            differ = word.take(mine) ^ word.take(theirs)
            mine_held, theirs_held = mask.take(mine), mask.take(theirs)
            both = mine_held & theirs_held
            conflict = conflict | both & ((differ & low) + low | differ)
            common = common | both
            mine_only = mine_only | mine_held ^ both
            theirs_only = theirs_only | theirs_held ^ both
        return conflict != 0, common != 0, mine_only == 0, theirs_only == 0

    def add(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Learn the ``(words, n)`` tuples: the number of each, and where the
        ones not seen before first occur, ascending."""
        key = words[0]
        for word in range(1, len(words)):
            key = self._number(word - 1, key)[0] << self.bits[word] | words[word]
        return self._number(len(words) - 1, key)

    def _number(self, word: int, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        order = np.argsort(keys)
        ordered = keys[order]
        head = first_of_runs(ordered)
        starts = np.flatnonzero(head)
        distinct, first = ordered[starts], np.minimum.reduceat(order, starts)
        at = np.searchsorted(self.keys[word], distinct)
        number = self.numbers[word][at]
        new = np.flatnonzero(self.keys[word][at] != distinct)
        rank = np.argsort(first[new])
        number[new[rank]] = len(self.numbers[word]) - 1 + np.arange(new.size)
        # Merge: the new keys land at their search positions, shifted by the new keys before them.
        slots = at[new] + np.arange(new.size)
        rest = np.ones(self.keys[word].size + new.size, dtype=bool)
        rest[slots] = False
        for table, fresh in ((self.keys, distinct[new]), (self.numbers, number[new])):
            merged = np.empty(rest.size, dtype=table[word].dtype)
            merged[slots], merged[rest] = fresh, table[word]
            table[word] = merged
        if self.numbers[word].size - 1 > self.capacity:
            raise RuntimeError(
                f"complementation closure exceeded {self.capacity} tuples; "
                "the input is pathological for Full Disjunction"
            )
        numbered = np.empty(keys.size, dtype=np.int64)
        numbered[order] = number[np.cumsum(head) - 1]
        return numbered, first[new][rank]


class PairPostings:
    """Which tuples of a ``(width, tuples)`` code matrix hold each pair: a position
    and a code there, or a position's null in one component.

    Position ``p`` owns the pairs ``values[p] - 1`` (its null) to ``values[p] +
    codes_per_column[p] - 1``.  Given several component ``labels``, a null cell
    holds the pair of its (position, label) instead: those that occur follow,
    sorted, then one empty pair.  One stable sort of all cells lists the
    holders of every pair in id order: ``holders[starts[pair] : starts[pair] + held_by[pair]]``.
    Both sorts know their key bound (pairs, positions × labels), so below
    2¹⁶ keys they are numpy's radix sort (:func:`~repro.utils.sorting.stable_order`).
    """

    def __init__(self, codes: np.ndarray, codes_per_column: np.ndarray, labels: np.ndarray | None = None) -> None:
        self.values = np.cumsum(codes_per_column + 1) - codes_per_column
        self.first_null = int((codes_per_column + 1).sum())
        several = labels is not None and labels.size and labels.min() < labels.max()
        self.components = int(labels.max()) + 1 if several else 1  # one: a null pair per position
        self.null_keys = np.array([NO_KEY])  # a sentinel above every key: the empty pair
        pairs = codes + self.values[:, None]
        if self.components > 1:
            position, row = np.nonzero(codes < 0)
            keys = position * self.components + labels[row]
            order = stable_order(keys, codes.shape[0] * self.components)  # merges the generations' sorted runs
            first = first_of_runs(keys[order])
            self.null_keys = np.append(keys[order][first], self.null_keys)
            pairs[position[order], row[order]] = self.first_null + np.cumsum(first) - 1
        self.held_by = np.bincount(pairs.ravel(), minlength=self.first_null + self.null_keys.size)
        self.starts = np.cumsum(self.held_by) - self.held_by
        self._pairs = pairs

    @cached_property
    def holders(self) -> np.ndarray:
        """The holders of every pair, in id order, sorted on first read: postings
        read only for their list lengths (:meth:`best`) never sort their cells."""
        pairs, self._pairs = self._pairs, None
        return stable_order(pairs.ravel(), self.held_by.size) % max(pairs.shape[1], 1)

    def nulls(self, positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The pair of the null at each position in each tuple's component."""
        if self.components == 1:
            return self.values[positions] - 1
        keys = positions * self.components + labels
        at = np.searchsorted(self.null_keys, keys)
        return self.first_null + np.where(self.null_keys[at] == keys, at, self.null_keys.size - 1)

    def selective(self, codes: np.ndarray) -> np.ndarray:
        """Per tuple of ``codes``, the pair of its value at the non-null position
        (the first, on ties) with the fewest holders."""
        pairs = codes + self.values[:, None]
        sizes = self.held_by[pairs]
        sizes[codes < 0] = np.iinfo(sizes.dtype).max
        return pairs[sizes.argmin(axis=0), np.arange(codes.shape[1])]

    def best(self, codes: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per tuple of ``codes`` in its component ``labels``, its *listing key*
        ``size × width + position``: of its non-null positions, the one (the
        first, on ties) where its value and its component's null have the
        fewest holders together, ``size`` of them; ``int64`` max for a tuple
        without one.  A merge of two tuples of one component holds each
        position of either with the same code, so its key is the smaller of theirs."""
        pairs = codes + self.values[:, None]
        sizes = self.held_by[pairs]
        if self.components == 1:
            sizes += self.held_by[self.values - 1][:, None]
        else:  # the nulls of the tuple's component where it holds a value
            held, owner = np.nonzero(codes >= 0)
            sizes[held, owner] += self.held_by[self.nulls(held, labels[owner])]
        keys = sizes * codes.shape[0] + np.arange(codes.shape[0])[:, None]
        keys[codes < 0] = NO_KEY
        return keys.min(axis=0, initial=NO_KEY)

    def listing(self, keys: np.ndarray, codes: np.ndarray, tuples: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The pairs whose holders the ``tuples`` of the code matrix ``codes`` may
        meet, ``(tuples, 2)``, given their listing ``keys`` (:meth:`best`) and
        component ``labels``: each one's code at its key's position and that
        position's null in its component."""
        positions = keys % self.values.size
        return np.stack((codes[positions, tuples] + self.values[positions], self.nulls(positions, labels)), axis=1)

    def meeting(
        self, owners: np.ndarray, pairs: np.ndarray, sizes: np.ndarray, patterns: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The first ``sizes`` holders of each of the ``(owners, k)`` ``pairs``
        whose pattern meets the owner's, as ``(owner, holder)`` blocks of about
        :data:`PAIR_BLOCK` (:func:`span_blocks`), ``owners`` ascending:
        every listed holder is read and tested, as :class:`MeetingRuns` would
        yield them without ordering the lists by pattern first.  ``patterns``
        holds every owner's and every holder's."""
        readers = np.repeat(owners, pairs.shape[1])
        for owner, index in span_blocks(readers, self.starts[pairs].ravel(), sizes.ravel()):
            holder = self.holders.take(index)
            meet = (patterns.take(owner) & patterns.take(holder)) != 0
            yield owner[meet], holder[meet]


class MeetingRuns:
    """:class:`PairPostings`' lists over the inputs, each pair's holders in runs
    whose *patterns* (a bit per non-null position, modulo 63) all meet a tuple
    or none do: ordered by (pair, pattern), ids ascending inside each run.

    Partners share a value, so their patterns meet: a tuple reads, of a list,
    only the runs whose pattern meets its own, and never expands a holder the
    meet test would drop.  The holders of a value all hold its position, so
    they all meet a tuple holding it: a value's list is one run; a null's list
    runs by pattern.  A run belongs to a *group*, its pair; :meth:`cut` adds
    a second copy of every list, grouped by (pair, holder's code at one
    position, the *cut*) and in the same runs inside each group.  A tuple
    holding code ``v`` at the cut conflicts with every holder of another code
    there, so it reads the groups of each list null or holding ``v`` at the cut.
    """

    def __init__(self, postings: PairPostings, patterns: np.ndarray) -> None:
        """``patterns``: the pattern of every tuple of ``postings``."""
        self.inputs, self.pairs, self.stride = patterns.size, postings.held_by.size, 0
        distinct = sorted_unique(patterns.copy())
        # The pattern of each rank; rank 0, a value's list, has every bit set.
        self.meets = np.append(-1, distinct)
        null = np.zeros(self.pairs + 1, dtype=bool)
        null[postings.values - 1] = null[postings.first_null :] = True
        pair = np.repeat(np.arange(self.pairs), postings.held_by)
        # Only the nulls' lists, each contiguous, are reordered: by (pair, rank), ids ascending.
        at = np.flatnonzero(null[pair])
        ranks = np.zeros(pair.size, dtype=np.intp)
        ranks[at] = np.searchsorted(distinct, patterns)[postings.holders[at]] + 1
        order = np.arange(pair.size)
        order[at] = at[stable_order(pair[at] * self.meets.size + ranks[at], self.pairs * self.meets.size)]
        self._layout(pair, postings.holders[order], ranks[order])
        # The runs of pair ``p``: ``first_runs[p]`` to ``first_runs[p + 1]``.
        self.first_runs = np.append(0, np.cumsum(np.bincount(self.groups, minlength=self.pairs)))

    def _layout(self, groups: np.ndarray, holders: np.ndarray, ranks: np.ndarray) -> None:
        """Take ``holders`` of ``groups`` in (group, rank) order as the runs."""
        self.holders, self.ranks = holders, ranks
        self.starts = np.flatnonzero(first_of_runs(groups) | first_of_runs(ranks))
        self.sizes = np.diff(self.starts, append=holders.size)
        self.groups, self.patterns = groups[self.starts], self.meets[ranks[self.starts]]
        # Each run's holders keyed (run, id), ascending: a search finds the ids below a limit.
        self.keys = np.repeat(np.arange(self.starts.size), self.sizes) * self.inputs + holders

    def cut(self, at_cut: np.ndarray, codes: int) -> "MeetingRuns":
        """These runs, then the second copy: groups ``pairs + pair * (codes + 1)
        + code + 1`` by each input's code ``at_cut`` (-1, null, first).  One
        stable sort of the runs, already in rank order inside each pair."""
        split = copy.copy(self)
        split.stride = codes + 1
        pair = np.repeat(self.groups, self.sizes)
        keys = self.pairs + pair * split.stride + at_cut[self.holders] + 1
        order = stable_order(keys, self.pairs * (split.stride + 1))
        split._layout(
            np.concatenate((pair, keys[order])),
            np.concatenate((self.holders, self.holders[order])),
            np.concatenate((self.ranks, self.ranks[order])),
        )
        # Each run's group, and where the next group's runs begin, past a
        # sentinel; then where each pair's null group begins in the copy.
        head = np.append(np.flatnonzero(first_of_runs(split.groups)), split.groups.size)
        split.bounds = np.append(split.groups, NO_KEY)
        split.ends = np.append(np.repeat(head[1:], np.diff(head)), split.groups.size)
        split.nulls = np.searchsorted(split.groups, self.pairs + np.arange(self.pairs) * split.stride)
        return split

    def meeting(
        self, owners: np.ndarray, pairs: np.ndarray, patterns: np.ndarray, limits: np.ndarray, at_cut=None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The holders of the ``(owners, k)`` ``pairs`` below each owner's limit
        whose pattern meets the owner's, as ``(owner, holder)`` blocks of about
        :data:`PAIR_BLOCK` (:func:`span_blocks`), ``owners`` ascending; the
        runs are expanded in blocks first.  ``patterns`` and ``limits`` are the
        owners'; a run is searched for an owner's limit only when that is below
        the inputs (an input owner), else read whole.  Given their codes
        ``at_cut``, an owner holding a code there reads, of each pair's second
        copy, the groups null or holding it."""
        first = self.first_runs[pairs]
        counts = self.first_runs[pairs + 1] - first
        if at_cut is not None:
            null = self.pairs + pairs * self.stride
            groups = np.concatenate((null, null + at_cut[:, None] + 1), 1)
            start = np.concatenate((self.nulls[pairs], np.searchsorted(self.groups, groups[:, pairs.shape[1] :])), 1)
            size = np.where(self.bounds[start] == groups, self.ends[start] - start, 0)
            holds = (at_cut >= 0)[:, None]
            first = np.where(holds, start, np.concatenate((first, first), 1))
            counts = np.where(holds, size, np.concatenate((counts, np.zeros_like(counts)), 1))
        readers = np.repeat(np.arange(owners.size), first.shape[1])
        searched = bool((limits < self.inputs).any())
        for reader, run in span_blocks(readers, first.ravel(), counts.ravel()):
            meet = (self.patterns.take(run) & patterns.take(reader)) != 0
            reader, run = reader[meet], run[meet]
            starts, sizes = self.starts.take(run), self.sizes.take(run)
            if searched:  # an input meets the inputs with smaller ids
                below = limits.take(reader) < self.inputs
                key = run[below] * self.inputs + limits.take(reader[below])
                sizes[below] = np.searchsorted(self.keys, key) - starts[below]
            for reader, index in span_blocks(reader, starts, sizes):
                yield owners.take(reader), self.holders.take(index)


def span_blocks(owners: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand the spans ``starts[s] : starts[s] + sizes[s]`` of owners ``owners[s]``, ascending.

    Yields ``(owner, index)`` arrays — every index of every span beside the
    span's owner, in span order — in blocks of about :data:`PAIR_BLOCK`
    entries that never split an owner: a block starts at the first span of the
    owner holding every ``PAIR_BLOCK``-th entry.  Spans of at most
    ``PAIR_BLOCK`` entries in all come as one block, found without that search.
    """
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    total = int(ends[-1]) if ends.size else 0
    if total <= PAIR_BLOCK:  # one block, or none
        bounds = [0] if total else []
    else:
        holding = owners[np.searchsorted(offsets, np.arange(0, total, PAIR_BLOCK), side="right") - 1]
        bounds = np.searchsorted(owners, sorted_unique(holding)).tolist()
    shift = starts - offsets  # a span's indices are the numbers of its entries, shifted
    for low, high in zip(bounds, bounds[1:] + [sizes.size]):
        entries, counts = np.arange(offsets[low], ends[high - 1]), sizes[low:high]
        yield np.repeat(owners[low:high], counts), entries + np.repeat(shift[low:high], counts)
