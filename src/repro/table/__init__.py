"""In-memory relational substrate.

The paper's pipeline operates over data-lake tables (CSV files).  This
subpackage provides the relational machinery every other part of the library
builds on: a :class:`~repro.table.table.Table` with named columns and nulls, a
:class:`~repro.table.schema.Schema`, labelled nulls used by the Full
Disjunction algorithms, relational operations (the natural full outer join,
outer union), tuple subsumption, and CSV I/O.

It deliberately replaces pandas, which is not available in this environment,
with a small purpose-built implementation (see ``docs/architecture.md``,
"Supporting layers").
"""

from repro.table.nulls import NULL, LabeledNull, is_null, non_null
from repro.table.schema import Schema
from repro.table.table import Row, Table
from repro.table.operations import full_outer_join, outer_union
from repro.table.subsumption import remove_subsumed, subsumes
from repro.table.io import read_csv, write_csv

__all__ = [
    "Table",
    "Row",
    "Schema",
    "NULL",
    "LabeledNull",
    "is_null",
    "non_null",
    "full_outer_join",
    "outer_union",
    "subsumes",
    "remove_subsumed",
    "read_csv",
    "write_csv",
]
