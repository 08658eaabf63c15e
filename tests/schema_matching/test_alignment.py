"""Tests for the column alignment structure."""

from __future__ import annotations

import pytest

from repro.schema_matching import AlignedColumn, ColumnAlignment, ColumnRef
from repro.table import Table
from repro.table.relation import Relation


class TestColumnAlignment:
    def test_from_named_columns_groups_equal_headers(self, covid_tables):
        alignment = ColumnAlignment.from_named_columns(covid_tables)
        groups = alignment.as_dict()
        assert set(groups["City"]) == {"T1.City", "T2.City", "T3.City"}
        assert set(groups["Country"]) == {"T1.Country", "T2.Country"}

    def test_multi_table_groups(self, covid_tables):
        alignment = ColumnAlignment.from_named_columns(covid_tables)
        multi = {group.name for group in alignment.multi_table_groups()}
        assert multi == {"City", "Country"}

    def test_rename_map_and_apply(self):
        alignment = ColumnAlignment(
            [
                AlignedColumn("city", [ColumnRef("a", "Town"), ColumnRef("b", "City")]),
                AlignedColumn("b.extra", [ColumnRef("b", "extra")]),
            ]
        )
        table_a = Table("a", ["Town"], [("Berlin",)])
        table_b = Table("b", ["City", "extra"], [("Boston", "x")])
        renamed = alignment.apply([table_a, table_b])
        assert renamed[0].columns == ("city",)
        assert renamed[1].columns == ("city", "b.extra")

    def test_duplicate_column_in_two_groups_rejected(self):
        ref = ColumnRef("a", "x")
        with pytest.raises(ValueError):
            ColumnAlignment([AlignedColumn("g1", [ref]), AlignedColumn("g2", [ref])])

    def test_two_columns_of_same_table_in_group_rejected(self):
        with pytest.raises(ValueError):
            ColumnAlignment(
                [AlignedColumn("g", [ColumnRef("a", "x"), ColumnRef("a", "y")])]
            )

    def test_duplicate_group_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate aligned-column name 'g'"):
            ColumnAlignment([AlignedColumn("g", [ColumnRef("a", "x")]), AlignedColumn("g", [ColumnRef("b", "y")])])

    def test_aligned_column_lookups(self):
        group = AlignedColumn("city", [ColumnRef("a", "Town"), ColumnRef("b", "City")])
        assert group.tables() == ["a", "b"] and len(group) == 2
        assert group.column_in("b") == "City" and group.column_in("c") is None


class TestApply:
    """``apply`` renames the aligned columns and leaves the others; a member
    the request lacks is ``tests/core/test_engine.py::TestExplicitAlignment``."""

    TABLES = [Table("l", ["Town", "Country"], [("Berlin", "Germany")]), Table("r", ["City"], [("Berlin",)])]

    def test_a_canonical_name_taken_by_an_unaligned_column(self):
        # l.Town becomes "Country", which l already holds unaligned.
        alignment = ColumnAlignment([AlignedColumn("Country", [ColumnRef("l", "Town"), ColumnRef("r", "City")])])
        with pytest.raises(ValueError, match="duplicate column name 'Country'"):
            alignment.apply(self.TABLES)

    def test_unaligned_columns_keep_their_names(self):
        alignment = ColumnAlignment([AlignedColumn("City", [ColumnRef("l", "Town"), ColumnRef("r", "City")])])
        assert [table.columns for table in alignment.apply(self.TABLES)] == [("City", "Country"), ("City",)]

    def test_coded_relations_are_renamed_alike(self):
        alignment = ColumnAlignment([AlignedColumn("City", [ColumnRef("l", "Town"), ColumnRef("r", "City")])])
        coded = alignment.apply([Relation.of(table) for table in self.TABLES])
        assert [(relation.columns, relation.to_table().rows) for relation in coded] == [
            (table.columns, table.rows) for table in alignment.apply(self.TABLES)
        ]

    def test_check_of_applied_tables_seeks_the_canonical_names(self):
        alignment = ColumnAlignment([AlignedColumn("City", [ColumnRef("l", "Town"), ColumnRef("r", "City")])])
        alignment.check(alignment.apply(self.TABLES), applied=True)
        alignment.check(self.TABLES)
        with pytest.raises(ValueError, match="table 'l' has no column 'City'"):
            alignment.check(self.TABLES, applied=True)
