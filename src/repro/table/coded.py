"""Integer coding of same-schema rows.

The Full Disjunction kernels (complementation closure, subsumption removal)
never look at cell values, only at whether two cells of one column are equal
and whether a cell is null.  So they run over a ``(width, rows)`` ``int32``
matrix: every distinct value of a column gets a small code, ``-1`` is null
(any flavour), and one row of the matrix is one column of the table, which
makes "this column of these tuples" one contiguous gather.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.table.nulls import NULL, is_null
from repro.table.table import CellValue, RowValues

#: ``values[position][code]`` is the cell value a code of a column stands for.
CodeValues = List[List[CellValue]]

#: (tuple, candidate) pairs the posting scans — complementation closure and
#: subsumption — expand and test at a time; bounds their scratch memory.
PAIR_BLOCK = 1 << 16


def encode_rows(rows: Sequence[RowValues], width: int) -> Tuple[np.ndarray, CodeValues]:
    """Code ``rows`` column by column; equal values of a column share a code."""
    codes = np.empty((width, len(rows)), dtype=np.int32)
    values: CodeValues = []
    for position in range(width):
        code_of: dict = {}
        codes[position] = [
            -1
            if row[position] is NULL or is_null(row[position])
            else code_of.setdefault(row[position], len(code_of))
            for row in rows
        ]
        values.append(list(code_of))
    return codes, values


def decode_rows(codes: np.ndarray, values: CodeValues) -> List[RowValues]:
    """Inverse of :func:`encode_rows`; every null decodes to the plain ``NULL``."""
    if not len(values):
        return [()] * codes.shape[1]
    columns = []
    for column, column_values in zip(codes.tolist(), values):
        lookup = column_values + [NULL]  # code -1 indexes the last entry
        columns.append([lookup[code] for code in column])
    return list(zip(*columns))


def compact_codes(codes: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Renumber the codes of some tuples of a larger matrix densely, column by column.

    The posting scans size their tables by the largest code of each column,
    so a few tuples cut out of a large input would pay for all its values.
    Null stays ``-1``.  Also returns, per column, the old code of every new one.
    """
    compact = np.empty_like(codes)
    present = []
    for position, column in enumerate(codes):
        old, compact[position] = np.unique(column, return_inverse=True)
        if old.size and old[0] < 0:
            compact[position] -= 1
            old = old[1:]
        present.append(old)
    return compact, present


def tuple_keys(codes: np.ndarray) -> List[bytes]:
    """One hashable key per coded tuple (per column of ``codes``)."""
    stride = codes.itemsize * codes.shape[0]
    raw = codes.T.tobytes()
    return [raw[index * stride : (index + 1) * stride] for index in range(codes.shape[1])]


class PairPostings:
    """Which tuples of a ``(width, tuples)`` code matrix hold each (position, code) pair.

    Pairs are numbered column by column, a column's null first, so position
    ``p`` owns the numbers ``nulls[p]`` (its null cells) to ``nulls[p] +
    codes_per_column[p]``.  One stable sort of all cells lists the holders of
    every pair in id order: ``holders[starts[pair] : starts[pair] + held_by[pair]]``.
    """

    def __init__(self, codes: np.ndarray, codes_per_column: np.ndarray) -> None:
        self.nulls = np.cumsum(codes_per_column + 1) - (codes_per_column + 1)
        pairs = self.number(codes).ravel()
        self.held_by = np.bincount(pairs, minlength=int(codes_per_column.sum()) + len(codes))
        self.starts = np.cumsum(self.held_by) - self.held_by
        self.holders = np.argsort(pairs, kind="stable") % max(codes.shape[1], 1)

    def number(self, codes: np.ndarray) -> np.ndarray:
        """The pair number of every cell of a matrix over the same codes."""
        return codes + (self.nulls + 1)[:, None]

    def selective(self, codes: np.ndarray, with_nulls: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Per tuple of ``codes``, the non-null position (the first, on ties) whose
        pair has the fewest holders — counting, ``with_nulls``, the holders of
        the position's null as well — and that pair."""
        pairs = self.number(codes)
        sizes = self.held_by[pairs]
        if with_nulls:
            sizes += self.held_by[self.nulls][:, None]
        sizes[codes < 0] = np.iinfo(sizes.dtype).max
        position = sizes.argmin(axis=0)
        return position, pairs[position, np.arange(codes.shape[1])]


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
    bounds = np.unique(first_spans).tolist()
    owners = np.arange(sizes.size) // per_owner
    shift = starts - offsets  # a span's indices are the numbers of its entries, shifted
    for low, high in zip(bounds, bounds[1:] + [sizes.size]):
        entries, counts = np.arange(offsets[low], ends[high - 1]), sizes[low:high]
        yield np.repeat(owners[low:high], counts), entries + np.repeat(shift[low:high], counts)
