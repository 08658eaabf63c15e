"""CSV I/O for tables.

Data-lake tables in the paper's benchmarks are CSV files.  Empty strings are
read back as nulls, and nulls are written as empty strings, which mirrors the
conventions of the public Auto-Join and ALITE benchmark files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.table.nulls import NULL, is_null
from repro.table.table import Table

PathLike = Union[str, Path]


def read_csv(path: PathLike, name: Optional[str] = None, *, delimiter: str = ",") -> Table:
    """Read a CSV file (header row required) into a :class:`Table`.

    Empty cells become NULL.  The table name defaults to the file stem.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"CSV file {path} is empty (no header row)") from None
        rows = []
        for record in reader:
            padded = list(record) + [""] * (len(header) - len(record))
            rows.append(tuple(NULL if cell == "" else cell for cell in padded[: len(header)]))
    return Table(name or path.stem, header, rows)


def write_csv(table: Table, path: PathLike, *, delimiter: str = ",") -> Path:
    """Write a table to CSV (nulls become empty cells).  Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(list(table.columns))
        for values in table.rows:
            writer.writerow(["" if is_null(value) else value for value in values])
    return path


def load_directory(directory: PathLike, *, pattern: str = "*.csv") -> List[Table]:
    """Load every CSV table in a directory (sorted by file name)."""
    directory = Path(directory)
    tables = []
    for path in sorted(directory.glob(pattern)):
        tables.append(read_csv(path))
    return tables
