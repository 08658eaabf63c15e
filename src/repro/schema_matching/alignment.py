"""Column alignment data structures.

A :class:`ColumnAlignment` is the output of schema matching: a partition of
the input tables' columns into groups of aligning columns, each group given a
canonical output name.  Applying an alignment renames every table's columns to
the canonical names so that the downstream (natural-join-based) Full
Disjunction integrates exactly the aligned columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.table.table import Table


@dataclass(frozen=True)
class ColumnRef:
    """A reference to one column of one input table."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass
class AlignedColumn:
    """A group of columns (at most one per table) that align."""

    name: str
    members: List[ColumnRef] = field(default_factory=list)

    def tables(self) -> List[str]:
        """The tables contributing a column to this group."""
        return [member.table for member in self.members]

    def column_in(self, table: str) -> Optional[str]:
        """The column of ``table`` in this group, or ``None``."""
        for member in self.members:
            if member.table == table:
                return member.column
        return None

    def __len__(self) -> int:
        return len(self.members)


class ColumnAlignment:
    """A full alignment: every input column belongs to exactly one group."""

    def __init__(self, groups: Iterable[AlignedColumn]) -> None:
        self.groups: List[AlignedColumn] = list(groups)
        self._validate()

    def _validate(self) -> None:
        seen: Dict[ColumnRef, str] = {}
        names = set()
        for group in self.groups:
            if group.name in names:
                raise ValueError(f"duplicate aligned-column name {group.name!r}")
            names.add(group.name)
            tables_in_group = set()
            for member in group.members:
                if member in seen:
                    raise ValueError(f"column {member} appears in two aligned groups")
                seen[member] = group.name
                if member.table in tables_in_group:
                    raise ValueError(
                        f"aligned group {group.name!r} contains two columns of table {member.table!r}"
                    )
                tables_in_group.add(member.table)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def multi_table_groups(self) -> List[AlignedColumn]:
        """Groups spanning at least two tables — the only ones needing value matching."""
        return [group for group in self.groups if len(group) >= 2]

    def rename_map(self, table: str) -> Dict[str, str]:
        """``original column -> canonical name`` mapping for one table."""
        mapping: Dict[str, str] = {}
        for group in self.groups:
            column = group.column_in(table)
            if column is not None:
                mapping[column] = group.name
        return mapping

    def apply(self, tables: Sequence[Table]) -> List[Table]:
        """Rename every table's columns to the canonical aligned names.

        Every member must name a column of one of ``tables``: a member the
        request lacks raises :class:`ValueError` here, before any value is
        matched.
        """
        self.check(tables)
        return [table.rename(self.rename_map(table.name)) for table in tables]

    def check(self, tables: Sequence[Table], applied: bool = False) -> None:
        """Raise :class:`ValueError` naming the first member ``tables`` lack.

        With ``applied`` the tables already carry the canonical names (the
        output of :meth:`apply`), so a member's column is sought under its
        group's name.
        """
        columns = {table.name: table.schema for table in tables}
        for group in self.groups:
            for member in group.members:
                if member.table not in columns:
                    raise ValueError(f"aligned group {group.name!r} names {member}, but the request has no table {member.table!r}")
                column = group.name if applied else member.column
                if column not in columns[member.table]:
                    raise ValueError(f"aligned group {group.name!r} names {member}, but table {member.table!r} has no column {column!r}")

    def as_dict(self) -> Dict[str, List[str]]:
        """``canonical name -> ["table.column", ...]`` (for reports and tests)."""
        return {group.name: [str(member) for member in group.members] for group in self.groups}

    @classmethod
    def from_named_columns(cls, tables: Sequence[Table]) -> "ColumnAlignment":
        """Alignment that groups columns with identical names (Figure 1 setting)."""
        groups: Dict[str, AlignedColumn] = {}
        for table in tables:
            for column in table.columns:
                group = groups.setdefault(column, AlignedColumn(name=column))
                if group.column_in(table.name) is None:
                    group.members.append(ColumnRef(table=table.name, column=column))
        return cls(groups.values())
