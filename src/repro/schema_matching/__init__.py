"""Column alignment.

Before tuples can be integrated, the pipeline must know which columns of the
input tables align (represent the same attribute).  Columns align by header
name — the paper's Figure 1 setting, where aligned columns share names — or
by a :class:`ColumnAlignment` the caller builds, which names the columns that
align across different headers.
"""

from repro.schema_matching.alignment import AlignedColumn, ColumnAlignment, ColumnRef

__all__ = [
    "ColumnRef",
    "AlignedColumn",
    "ColumnAlignment",
]
