"""Relational operations over :class:`~repro.table.table.Table`.

These implement the algebra the Full Disjunction oracles are built from: the
natural full outer join (hash based) and the outer union (schema union with
labelled or plain nulls for missing attributes).  The join is *natural*:
tuples combine when they agree on every shared attribute on which both are
non-null, and share at least one non-null attribute (the standard
join-consistency condition used in the FD literature).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.table.nulls import NULL, fresh_labeled_null, is_null
from repro.table.schema import Schema
from repro.table.table import CellValue, Provenance, RowValues, Table

# ---------------------------------------------------------------------------------
# join machinery
# ---------------------------------------------------------------------------------


def join_consistent(
    left: RowValues,
    right: RowValues,
    shared_positions: Sequence[Tuple[int, int]],
) -> bool:
    """Return whether two tuples are join-consistent on their shared attributes.

    Join-consistency (as in Galindo-Legaria / Cohen et al.) requires the two
    tuples to agree on every shared attribute where *both* are non-null, and to
    have at least one shared attribute where both are non-null.  Labelled
    nulls never match anything.
    """
    agreed_on_some = False
    for left_position, right_position in shared_positions:
        left_value = left[left_position]
        right_value = right[right_position]
        if is_null(left_value) or is_null(right_value):
            continue
        if left_value != right_value:
            return False
        agreed_on_some = True
    return agreed_on_some


def merge_rows(
    left: RowValues,
    right: RowValues,
    left_schema: Schema,
    right_schema: Schema,
    output_schema: Schema,
) -> RowValues:
    """Merge two join-consistent tuples into a tuple over ``output_schema``.

    Non-null values win over nulls; when both sides are non-null they agree by
    the join-consistency precondition, so either can be taken.
    """
    merged: List[CellValue] = []
    for column in output_schema:
        left_value = left[left_schema.position(column)] if column in left_schema else NULL
        right_value = right[right_schema.position(column)] if column in right_schema else NULL
        if is_null(left_value):
            merged.append(NULL if is_null(right_value) else right_value)
        else:
            merged.append(left_value)
    return tuple(merged)


def _merge_provenance(left: Optional[Provenance], right: Optional[Provenance]) -> Provenance:
    return frozenset(left or frozenset()) | frozenset(right or frozenset())


def _build_join_index(
    table: Table, shared_columns: Sequence[str]
) -> Dict[Tuple[str, CellValue], List[int]]:
    """Index row ids of ``table`` by each non-null value in the shared columns."""
    index: Dict[Tuple[str, CellValue], List[int]] = {}
    positions = table.schema.positions(shared_columns)
    for row_id, values in enumerate(table.rows):
        for column, position in zip(shared_columns, positions):
            value = values[position]
            if is_null(value):
                continue
            index.setdefault((column, value), []).append(row_id)
    return index


def _candidate_partners(
    left_values: RowValues,
    left_schema: Schema,
    shared_columns: Sequence[str],
    right_index: Dict[Tuple[str, CellValue], List[int]],
) -> List[int]:
    """Right-row candidates that share at least one non-null value with the left row."""
    candidates: List[int] = []
    seen = set()
    for column in shared_columns:
        value = left_values[left_schema.position(column)]
        if is_null(value):
            continue
        for row_id in right_index.get((column, value), ()):
            if row_id not in seen:
                seen.add(row_id)
                candidates.append(row_id)
    return candidates


def full_outer_join(left: Table, right: Table, name: Optional[str] = None) -> Table:
    """Natural full outer join (all tuples of both sides preserved).

    Tables that share no attribute join no tuples: the result pads every
    tuple of both sides (this library never falls back to a cross product).
    """
    output_schema = left.schema.union(right.schema)
    shared_columns = left.schema.intersection(right.schema)
    shared_positions = [
        (left.schema.position(column), right.schema.position(column)) for column in shared_columns
    ]
    right_index = _build_join_index(right, shared_columns)

    left_prov = left.provenance
    right_prov = right.provenance
    has_prov = left_prov is not None or right_prov is not None

    rows: List[RowValues] = []
    provenance: List[Provenance] = []
    matched_right: set = set()
    for left_id, left_values in enumerate(left.rows):
        matched = False
        for right_id in _candidate_partners(left_values, left.schema, shared_columns, right_index):
            right_values = right.rows[right_id]
            if not join_consistent(left_values, right_values, shared_positions):
                continue
            matched = True
            matched_right.add(right_id)
            rows.append(merge_rows(left_values, right_values, left.schema, right.schema, output_schema))
            if has_prov:
                provenance.append(
                    _merge_provenance(
                        left_prov[left_id] if left_prov else None,
                        right_prov[right_id] if right_prov else None,
                    )
                )
        if not matched:
            rows.append(_pad_row(left_values, left.schema, output_schema))
            if has_prov:
                provenance.append(_merge_provenance(left_prov[left_id] if left_prov else None, None))
    for right_id, right_values in enumerate(right.rows):
        if right_id in matched_right:
            continue
        rows.append(_pad_row(right_values, right.schema, output_schema))
        if has_prov:
            provenance.append(_merge_provenance(None, right_prov[right_id] if right_prov else None))

    result_name = name or f"({left.name}⋈{right.name})"
    return Table(result_name, output_schema, rows, provenance=provenance if has_prov else None)


def _pad_row(values: RowValues, schema: Schema, output_schema: Schema) -> RowValues:
    """Extend ``values`` to ``output_schema`` filling absent attributes with NULL."""
    padded: List[CellValue] = []
    for column in output_schema:
        padded.append(values[schema.position(column)] if column in schema else NULL)
    return tuple(padded)


# ---------------------------------------------------------------------------------
# outer union
# ---------------------------------------------------------------------------------


def outer_union(
    tables: Sequence[Table],
    name: str = "outer_union",
    *,
    labeled_nulls: bool = False,
) -> Table:
    """Outer union: schema union, each tuple padded with nulls where absent.

    With ``labeled_nulls=True`` the padding uses fresh labelled nulls (one per
    padded cell), which is the form ALITE's complementation step expects; with
    the default plain nulls the result matches the textbook outer union.
    Provenance is preserved; tables lacking provenance contribute singleton
    provenance based on their name and row index.
    """
    if not tables:
        raise ValueError("outer_union requires at least one table")
    output_schema = tables[0].schema
    for table in tables[1:]:
        output_schema = output_schema.union(table.schema)

    rows: List[RowValues] = []
    provenance: List[Provenance] = []
    for table in tables:
        table_prov = table.provenance
        for row_id, values in enumerate(table.rows):
            padded: List[CellValue] = []
            for column in output_schema:
                if column in table.schema:
                    padded.append(values[table.schema.position(column)])
                elif labeled_nulls:
                    padded.append(fresh_labeled_null())
                else:
                    padded.append(NULL)
            rows.append(tuple(padded))
            if table_prov is not None:
                provenance.append(table_prov[row_id])
            else:
                provenance.append(frozenset({f"{table.name}:{row_id}"}))
    return Table(name, output_schema, rows, provenance=provenance)
