"""Tests for CSV table I/O."""

from __future__ import annotations

import pytest

from repro.table import NULL, Table, is_null, read_csv, write_csv
from repro.table.io import load_directory


@pytest.fixture()
def table():
    return Table(
        "covid",
        ["City", "Cases", "Rate"],
        [("Berlin", "1.4M", NULL), ("Boston", NULL, "335")],
    )


class TestCsvRoundTrip:
    def test_round_trip_preserves_rows(self, table, tmp_path):
        path = write_csv(table, tmp_path / "covid.csv")
        loaded = read_csv(path)
        assert loaded.columns == table.columns
        assert loaded.num_rows == table.num_rows
        assert loaded.cell(0, "City") == "Berlin"

    def test_nulls_round_trip_as_empty_cells(self, table, tmp_path):
        loaded = read_csv(write_csv(table, tmp_path / "covid.csv"))
        assert is_null(loaded.cell(0, "Rate"))
        assert is_null(loaded.cell(1, "Cases"))

    def test_table_name_defaults_to_stem(self, table, tmp_path):
        loaded = read_csv(write_csv(table, tmp_path / "my_table.csv"))
        assert loaded.name == "my_table"

    def test_read_missing_header_raises(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_csv(empty)

    def test_short_rows_padded_with_nulls(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,c\n1,2\n")
        loaded = read_csv(path)
        assert is_null(loaded.cell(0, "c"))

    def test_custom_delimiter(self, table, tmp_path):
        path = write_csv(table, tmp_path / "covid.tsv", delimiter="\t")
        loaded = read_csv(path, delimiter="\t")
        assert loaded.num_rows == 2


class TestDirectoryLoading:
    def test_loads_all_csvs_sorted(self, table, tmp_path):
        write_csv(table, tmp_path / "b.csv")
        write_csv(Table("other", table.columns, table.rows), tmp_path / "a.csv")
        tables = load_directory(tmp_path)
        assert [t.name for t in tables] == ["a", "b"]
