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

from typing import Iterator, List, Tuple

import numpy as np

from repro.utils.sorting import first_of_runs, sorted_unique, stable_order

#: (tuple, candidate) pairs the posting scans — complementation closure and
#: subsumption — expand and test at a time; bounds their scratch memory.
PAIR_BLOCK = 1 << 16


def compact_codes(codes: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Renumber the codes of some tuples of a larger matrix densely, column by column.

    The posting scans size their tables by the largest code of each column,
    so a few tuples cut out of a large input would pay for all its values.
    Null stays ``-1``.  Also returns, per column, the old code of every new one.
    """
    compact = np.empty_like(codes)
    present = []
    for position, column in enumerate(codes):
        old = sorted_unique(column.copy())
        compact[position] = np.searchsorted(old, column)
        if old.size and old[0] < 0:
            compact[position] -= 1
            old = old[1:]
        present.append(old)
    return compact, present


#: Bits of a word's key: every key stays below ``2**62``, under the sentinel
#: ``2**63 - 1`` that ends each word's sorted keys.
KEY_BITS = 62


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
        self.keys = [np.array([np.iinfo(np.int64).max])] * len(rows)
        self.numbers = [np.array([-1])] * len(rows)

    def __len__(self) -> int:
        return self.numbers[-1].size - 1

    def pack(self, columns: np.ndarray) -> np.ndarray:
        """The ``(words, n)`` words of the ``(width, n)`` coded tuples."""
        return self.multipliers @ (columns.astype(np.int64) + 1)  # code 2**31 - 1 takes a 32-bit field

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
        self.null_keys = np.array([np.iinfo(np.int64).max])  # a sentinel above every key: the empty pair
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
        self.holders = stable_order(pairs.ravel(), self.held_by.size) % max(codes.shape[1], 1)

    def nulls(self, positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The pair of the null at each position in each tuple's component."""
        if self.components == 1:
            return self.values[positions] - 1
        keys = positions * self.components + labels
        at = np.searchsorted(self.null_keys, keys)
        return self.first_null + np.where(self.null_keys[at] == keys, at, self.null_keys.size - 1)

    def selective(self, codes: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
        """Per tuple of ``codes``, the pairs whose holders it may meet, ``(tuples, k)``:
        its value at the non-null position (the first, on ties) with the fewest
        holders and, given the tuples' component ``labels``, that position's
        null in its component — whose holders then count towards the choice."""
        pairs = codes + self.values[:, None]
        sizes = self.held_by[pairs]
        if labels is not None and self.components == 1:
            sizes += self.held_by[self.values - 1][:, None]
        elif labels is not None:  # the nulls of the owner's component where the owner holds a value
            held, owner = np.nonzero(codes >= 0)
            sizes[held, owner] += self.held_by[self.nulls(held, labels[owner])]
        sizes[codes < 0] = np.iinfo(sizes.dtype).max
        position = sizes.argmin(axis=0)
        chosen = pairs[position, np.arange(codes.shape[1])]
        return chosen[:, None] if labels is None else np.stack((chosen, self.nulls(position, labels)), axis=1)


class CutPostings:
    """:class:`PairPostings`' lists with each pair's holders ordered by their code
    at one position, the *cut*: null first, then code by code, each run in id order.

    A tuple holding code ``v`` at the cut conflicts there with every holder of
    another code, so of each pair's holders it reads two runs, those null and
    those holding ``v`` at the cut; a tuple null at the cut reads the pair's
    whole list, the same holders as in :class:`PairPostings`, reordered.  One
    stable sort of the holders, by (pair, code at the cut), builds it.
    """

    def __init__(self, postings: PairPostings, at_cut: np.ndarray, codes: int) -> None:
        """``at_cut``: the code of every tuple of ``postings`` at the cut, of ``codes``."""
        self.starts, self.held_by, self.stride = postings.starts, postings.held_by, codes + 1
        pair = np.repeat(np.arange(self.held_by.size), self.held_by)
        cells = at_cut[postings.holders]
        keys = pair * self.stride + cells + 1
        order = stable_order(keys, self.held_by.size * self.stride)
        self.holders, self.keys = postings.holders[order], keys[order]
        self.nulls = np.bincount(pair[cells < 0], minlength=self.held_by.size)

    def spans(self, pairs: np.ndarray, at_cut: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(tuples, 2k)`` spans of :attr:`holders` that tuples holding
        ``at_cut`` at the cut read of their ``(tuples, k)`` ``pairs``, whole
        runs: per pair, the holders null at the cut, then those holding the
        tuple's code there (for a tuple null at the cut, the whole list, then
        nothing)."""
        whole = (at_cut < 0)[:, None]
        keys = pairs * self.stride + at_cut[:, None] + 1
        first = np.searchsorted(self.keys, keys)
        sizes = np.searchsorted(self.keys, keys, side="right") - first
        starts = np.stack((self.starts[pairs], np.where(whole, 0, first)), axis=2)
        sizes = np.stack((np.where(whole, self.held_by[pairs], self.nulls[pairs]), np.where(whole, 0, sizes)), axis=2)
        return starts.reshape(len(pairs), -1), sizes.reshape(len(pairs), -1)


def span_blocks(starts: np.ndarray, sizes: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand ``(owners, k)`` spans ``starts[o, s] : starts[o, s] + sizes[o, s]``.

    Yields ``(owner, index)`` arrays — every index of every span beside the
    owner of the span, owners ascending, an owner's spans in order — in blocks
    of about :data:`PAIR_BLOCK` entries that never split an owner: a block
    starts at the owner holding every ``PAIR_BLOCK``-th entry.
    """
    per_owner = sizes.shape[1]
    starts, sizes = starts.ravel(), sizes.ravel()
    ends = np.cumsum(sizes)
    offsets = ends - sizes
    every = np.arange(0, int(sizes.sum()), PAIR_BLOCK)
    first_spans = (np.searchsorted(offsets, every, side="right") - 1) // per_owner * per_owner
    bounds = sorted_unique(first_spans).tolist()
    owners = np.arange(sizes.size) // per_owner
    shift = starts - offsets  # a span's indices are the numbers of its entries, shifted
    for low, high in zip(bounds, bounds[1:] + [sizes.size]):
        entries, counts = np.arange(offsets[low], ends[high - 1]), sizes[low:high]
        yield np.repeat(owners[low:high], counts), entries + np.repeat(shift[low:high], counts)
