"""Tests for the Table/Row/Schema substrate."""

from __future__ import annotations

import pytest

from repro.table import NULL, Schema, Table, is_null


class TestSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            Schema(["a", "a"])

    def test_position_lookup(self):
        schema = Schema(["a", "b", "c"])
        assert schema.position("b") == 1
        with pytest.raises(KeyError):
            schema.position("missing")

    def test_union_preserves_order(self):
        left = Schema(["a", "b"])
        right = Schema(["b", "c"])
        assert list(left.union(right)) == ["a", "b", "c"]

    def test_intersection_and_difference(self):
        left = Schema(["a", "b", "c"])
        right = Schema(["c", "a"])
        assert left.intersection(right) == ["a", "c"]
        assert left.difference(right) == ["b"]

    def test_renamed(self):
        schema = Schema(["a", "b"]).renamed({"a": "x"})
        assert list(schema) == ["x", "b"]

    def test_equality_with_sequences(self):
        assert Schema(["a", "b"]) == ["a", "b"]
        assert Schema(["a", "b"]) == ("a", "b")


class TestTableConstruction:
    def test_rows_from_sequences(self):
        table = Table("t", ["a", "b"], [(1, 2), (3, 4)])
        assert table.num_rows == 2
        assert table.cell(1, "b") == 4

    def test_rows_from_mappings_fill_nulls(self):
        table = Table("t", ["a", "b"], [{"a": 1}])
        assert is_null(table.cell(0, "b"))

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Table("t", ["a", "b"], [(1,)])

    def test_empty_has_the_schema_and_no_rows(self):
        table = Table.empty("t", ["a", "b"])
        assert table.columns == ("a", "b")
        assert table.num_rows == 0
        assert table.column("a") == []

    def test_provenance_length_checked(self):
        with pytest.raises(ValueError):
            Table("t", ["a"], [(1,), (2,)], provenance=[{"x"}])


class TestTableAccess:
    @pytest.fixture()
    def table(self):
        return Table("t", ["City", "Cases"], [("Berlin", 5), ("Boston", NULL), ("Berlin", 7)])

    def test_row_view(self, table):
        row = table.row(0)
        assert row["City"] == "Berlin"
        assert row[1] == 5
        assert row.as_dict() == {"City": "Berlin", "Cases": 5}

    def test_column_values_drop_nulls(self, table):
        assert table.column_values("Cases") == [5, 7]
        assert len(table.column_values("Cases", dropna=False)) == 3

    def test_distinct_values_preserve_order(self, table):
        assert table.distinct_values("City") == ["Berlin", "Boston"]

    def test_row_get_and_is_null(self, table):
        row = table.row(1)
        assert row.get("City") == "Boston"
        assert row.get("Missing", "fallback") == "fallback"
        assert row.is_null("Cases") and not row.is_null("City")

    def test_iteration_yields_rows(self, table):
        assert [row["City"] for row in table] == ["Berlin", "Boston", "Berlin"]


class TestTableTransforms:
    @pytest.fixture()
    def table(self):
        return Table("t", ["City", "Country"], [("Berlin", "DE"), ("Boston", "US")])

    def test_project(self, table):
        projected = table.project(["Country"])
        assert projected.columns == ("Country",)
        assert projected.column("Country") == ["DE", "US"]

    def test_rename(self, table):
        renamed = table.rename({"City": "Town"})
        assert "Town" in renamed.schema
        assert renamed.column("Town") == ["Berlin", "Boston"]

    def test_map_column_skips_nulls(self):
        table = Table("t", ["a"], [(1,), (NULL,)])
        mapped = table.map_column("a", lambda value: value * 10)
        assert mapped.column("a", )[0] == 10
        assert is_null(mapped.column("a")[1])

    def test_replace_values(self, table):
        replaced = table.replace_values("Country", {"DE": "Germany"})
        assert replaced.column("Country") == ["Germany", "US"]

    def test_head(self, table):
        assert table.head(1).num_rows == 1

    def test_head_past_the_end_keeps_every_row_and_its_provenance(self, table):
        head = table.with_default_provenance().head(10)
        assert head.rows == table.rows
        assert head.provenance == [frozenset({"t:0"}), frozenset({"t:1"})]

    def test_project_keeps_provenance_and_rejects_unknown_columns(self, table):
        projected = table.with_default_provenance().project(["Country", "City"])
        assert projected.rows == [("DE", "Berlin"), ("US", "Boston")]
        assert projected.provenance == [frozenset({"t:0"}), frozenset({"t:1"})]
        with pytest.raises(KeyError):
            table.project(["Missing"])

    def test_transforms_leave_the_source_table_unchanged(self, table):
        before = list(table.rows)
        table.map_column("City", str.upper)
        table.replace_values("Country", {"DE": "Germany"})
        table.rename({"City": "Town"})
        assert table.rows == before and table.columns == ("City", "Country")

    def test_with_default_provenance(self, table):
        with_prov = table.with_default_provenance()
        assert with_prov.provenance == [frozenset({"t:0"}), frozenset({"t:1"})]

    def test_same_rows_order_insensitive(self, table):
        shuffled = Table("other", ["Country", "City"], [("US", "Boston"), ("DE", "Berlin")])
        assert table.same_rows(shuffled)

    def test_same_rows_tells_schemas_and_values_apart(self, table):
        assert not table.same_rows(table.rename({"City": "Town"}))
        assert not table.same_rows(table.replace_values("Country", {"DE": "Germany"}))

    def test_rows_as_set_treats_labelled_nulls_as_null(self):
        from repro.table.nulls import LabeledNull

        labelled = Table("t", ["a", "b"], [(1, LabeledNull(7))])
        plain = Table("u", ["a", "b"], [(1, NULL)])
        assert labelled.rows_as_set() == plain.rows_as_set()
        assert labelled.same_rows(plain)

    def test_equality_compares_schema_and_rows_not_name(self, table):
        assert table == Table("other", ["City", "Country"], table.rows)
        assert table != Table("t", ["City", "Country"], list(reversed(table.rows)))

    def test_pretty_string_truncates_past_max_rows(self):
        table = Table("t", ["a"], [(index,) for index in range(5)])
        lines = table.to_pretty_string(max_rows=2).splitlines()
        assert len(lines) == 2 + 2 + 1
        assert lines[-1] == "... (3 more rows)"

    def test_pretty_string_renders_nulls(self):
        table = Table("t", ["a"], [(NULL,)])
        assert "⊥" in table.to_pretty_string()


class TestNulls:
    def test_null_is_falsy_and_equal_to_itself(self):
        assert not NULL
        assert NULL == NULL

    def test_is_null_variants(self):
        from repro.table.nulls import LabeledNull

        assert is_null(None)
        assert is_null(NULL)
        assert is_null(LabeledNull())
        assert is_null(float("nan"))
        assert not is_null(0)
        assert not is_null("")

    def test_labeled_nulls_distinct(self):
        from repro.table.nulls import LabeledNull

        assert LabeledNull(1) == LabeledNull(1)
        assert LabeledNull(1) != LabeledNull(2)
        assert LabeledNull() != LabeledNull()
