"""The :class:`Table` data structure used throughout the library.

A table is a named relation: an ordered schema plus a list of rows, where each
row is a tuple of cell values aligned with the schema.  Missing values are
represented by :data:`repro.table.nulls.NULL` (or labelled nulls during Full
Disjunction processing).

Tables optionally carry *provenance*: one frozenset of source tuple ids per
row.  The Full Disjunction operators use provenance to report, like the
paper's Figure 1, which input tuples were merged into each output tuple.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.table.nulls import NULL, is_null
from repro.table.schema import Schema

CellValue = object
RowValues = Tuple[CellValue, ...]
Provenance = frozenset


class Row:
    """A read-only view of one table row with access by column name."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[CellValue]) -> None:
        if len(values) != len(schema):
            raise ValueError(
                f"row width {len(values)} does not match schema width {len(schema)}"
            )
        self._schema = schema
        self._values = tuple(values)

    def __getitem__(self, key: str | int) -> CellValue:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.position(key)]

    def __iter__(self) -> Iterator[CellValue]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values and self._schema == other._schema
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Row({self.as_dict()!r})"

    @property
    def values(self) -> RowValues:
        """The raw cell values, aligned with the schema."""
        return self._values

    @property
    def schema(self) -> Schema:
        """The schema this row is aligned with."""
        return self._schema

    def get(self, column: str, default: CellValue = NULL) -> CellValue:
        """Return the value in ``column`` or ``default`` if the column is absent."""
        if column not in self._schema:
            return default
        return self._values[self._schema.position(column)]

    def as_dict(self) -> Dict[str, CellValue]:
        """Return the row as a ``column -> value`` dictionary."""
        return dict(zip(self._schema.columns, self._values))

    def is_null(self, column: str) -> bool:
        """Return whether the value in ``column`` is (any kind of) null."""
        return is_null(self[column])


class Table:
    """A named in-memory relation.

    Parameters
    ----------
    name:
        Table name (data-lake file name in the paper's setting).
    columns:
        Schema, or any iterable of column names.
    rows:
        Iterable of rows; each row may be a sequence aligned with the schema
        or a mapping from column name to value (missing keys become NULL).
    provenance:
        Optional iterable of tuple-id sets, one per row, recording which
        source tuples produced the row.  When omitted, tables created from raw
        data get singleton provenance ``{f"{name}:{row_index}"}`` lazily via
        :meth:`with_default_provenance`.
    """

    def __init__(
        self,
        name: str,
        columns: Schema | Iterable[str],
        rows: Iterable[Sequence[CellValue] | Mapping[str, CellValue]] = (),
        provenance: Optional[Iterable[Iterable[str]]] = None,
    ) -> None:
        self.name = str(name)
        self.schema = columns if isinstance(columns, Schema) else Schema(columns)
        self._rows: List[RowValues] = [self._coerce_row(row) for row in rows]
        if provenance is None:
            self._provenance: Optional[List[Provenance]] = None
        else:
            self._provenance = [frozenset(entry) for entry in provenance]
            if len(self._provenance) != len(self._rows):
                raise ValueError(
                    f"provenance length {len(self._provenance)} does not match "
                    f"row count {len(self._rows)}"
                )

    # -- construction ------------------------------------------------------------
    @classmethod
    def _trusted(
        cls, name: str, schema: Schema, rows: List[RowValues], provenance: Optional[List[Provenance]]
    ) -> "Table":
        """A table over ``rows`` that are already tuples aligned with ``schema``
        and ``provenance`` that is already one frozenset per row, taken as they
        are: the decoded form of a :class:`~repro.table.relation.Relation`."""
        table = cls.__new__(cls)
        table.name, table.schema, table._rows, table._provenance = name, schema, rows, provenance
        return table

    def _coerce_row(self, row: Sequence[CellValue] | Mapping[str, CellValue]) -> RowValues:
        if isinstance(row, Mapping):
            return tuple(row.get(column, NULL) for column in self.schema)
        values = tuple(row)
        if len(values) != len(self.schema):
            raise ValueError(
                f"row width {len(values)} does not match schema width {len(self.schema)} "
                f"for table {self.name!r}"
            )
        return values

    @classmethod
    def empty(cls, name: str, columns: Sequence[str]) -> "Table":
        """An empty table with the given schema."""
        return cls(name, columns, [])

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        for values in self._rows:
            yield Row(self.schema, values)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={list(self.schema.columns)!r}, rows={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    # -- accessors -----------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        """Column names, in order."""
        return self.schema.columns

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return len(self._rows)

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self.schema)

    @property
    def rows(self) -> List[RowValues]:
        """The raw row tuples (do not mutate)."""
        return self._rows

    @property
    def provenance(self) -> Optional[List[Provenance]]:
        """Per-row tuple-id sets, or ``None`` if the table carries no provenance."""
        return self._provenance

    def row(self, index: int) -> Row:
        """Return the row at ``index`` as a :class:`Row` view."""
        return Row(self.schema, self._rows[index])

    def cell(self, index: int, column: str) -> CellValue:
        """Return a single cell."""
        return self._rows[index][self.schema.position(column)]

    def column(self, column: str) -> List[CellValue]:
        """Return all values of ``column`` in row order (including nulls)."""
        position = self.schema.position(column)
        return [values[position] for values in self._rows]

    def column_values(self, column: str, *, dropna: bool = True) -> List[CellValue]:
        """Return the values of ``column``, optionally dropping nulls."""
        values = self.column(column)
        if dropna:
            return [value for value in values if not is_null(value)]
        return values

    def distinct_values(self, column: str, *, dropna: bool = True) -> List[CellValue]:
        """Return the distinct values of ``column`` preserving first-seen order."""
        seen = set()
        distinct: List[CellValue] = []
        for value in self.column_values(column, dropna=dropna):
            if value not in seen:
                seen.add(value)
                distinct.append(value)
        return distinct

    # -- transformation (all return new tables) -------------------------------------
    def with_default_provenance(self, prefix: Optional[str] = None) -> "Table":
        """Attach singleton provenance ``{prefix:index}`` to every row.

        The Full Disjunction operators call this on raw input tables so that
        output tuples can report which source tuples they combined.
        """
        prefix = self.name if prefix is None else prefix
        provenance = [frozenset({f"{prefix}:{index}"}) for index in range(len(self._rows))]
        return Table(self.name, self.schema, self._rows, provenance=provenance)

    def project(self, columns: Sequence[str]) -> "Table":
        """Return a table restricted to ``columns`` (keeps duplicates and order)."""
        positions = self.schema.positions(columns)
        rows = [tuple(row[position] for position in positions) for row in self._rows]
        return Table(self.name, columns, rows, provenance=self._provenance)

    def rename(self, mapping: Dict[str, str]) -> "Table":
        """Return a table with columns renamed according to ``mapping``."""
        return Table(self.name, self.schema.renamed(mapping), self._rows, provenance=self._provenance)

    def map_column(self, column: str, func: Callable[[CellValue], CellValue]) -> "Table":
        """Return a table with ``func`` applied to every non-null value of ``column``."""
        position = self.schema.position(column)
        rows = []
        for values in self._rows:
            value = values[position]
            if is_null(value):
                rows.append(values)
            else:
                rows.append(values[:position] + (func(value),) + values[position + 1 :])
        return Table(self.name, self.schema, rows, provenance=self._provenance)

    def replace_values(self, column: str, mapping: Mapping[CellValue, CellValue]) -> "Table":
        """Return a table where values of ``column`` found in ``mapping`` are replaced.

        This is the rewrite step of the Fuzzy Full Disjunction pipeline: every
        cell is replaced by the representative value of its match set.
        """
        return self.map_column(column, lambda value: mapping.get(value, value))

    def head(self, count: int = 5) -> "Table":
        """Return the first ``count`` rows as a new table."""
        provenance = self._provenance[:count] if self._provenance is not None else None
        return Table(self.name, self.schema, self._rows[:count], provenance=provenance)

    # -- export ----------------------------------------------------------------------
    def rows_as_set(self) -> frozenset:
        """Return the rows as a frozenset (for order-insensitive comparison).

        Labelled nulls are normalised to plain NULL so that logically equal
        results produced by different algorithms compare equal.
        """
        normalised = []
        for values in self._rows:
            normalised.append(tuple(NULL if is_null(value) else value for value in values))
        return frozenset(normalised)

    def same_rows(self, other: "Table") -> bool:
        """Order-insensitive row comparison over the intersection-free schema."""
        if set(self.schema.columns) != set(other.schema.columns):
            return False
        aligned_other = other.project(list(self.schema.columns))
        return self.rows_as_set() == aligned_other.rows_as_set()

    def to_pretty_string(self, max_rows: int = 20) -> str:
        """Render a small ASCII preview of the table (used by the examples)."""
        columns = list(self.schema.columns)
        shown = self._rows[:max_rows]
        cells = [[str(column) for column in columns]]
        for values in shown:
            cells.append(["⊥" if is_null(value) else str(value) for value in values])
        widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
        lines = []
        header = " | ".join(cell.ljust(width) for cell, width in zip(cells[0], widths))
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in cells[1:]:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)
