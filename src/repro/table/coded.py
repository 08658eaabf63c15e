"""Integer coding of same-schema rows.

The Full Disjunction kernels (complementation closure, subsumption removal)
never look at cell values, only at whether two cells of one column are equal
and whether a cell is null.  So they run over a ``(width, rows)`` ``int32``
matrix: every distinct value of a column gets a small code, ``-1`` is null
(any flavour), and one row of the matrix is one column of the table, which
makes "this column of these tuples" one contiguous gather.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.table.nulls import NULL, is_null
from repro.table.table import CellValue, RowValues

#: ``values[position][code]`` is the cell value a code of a column stands for.
CodeValues = List[List[CellValue]]


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


def tuple_keys(codes: np.ndarray) -> List[bytes]:
    """One hashable key per coded tuple (per column of ``codes``)."""
    stride = codes.itemsize * codes.shape[0]
    raw = codes.T.tobytes()
    return [raw[index * stride : (index + 1) * stride] for index in range(codes.shape[1])]
