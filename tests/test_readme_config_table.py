"""The README's configuration reference against the code it documents.

Every row of the knob table is a field of :class:`FuzzyFDConfig` and every
field has a row; the Default column is ``FuzzyFDConfig()``; the ``fast`` and
``scale`` columns are exactly what :data:`PRESETS` sets (a blank cell: the
preset leaves the knob at its default).
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import PRESETS, FuzzyFDConfig

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| Knob | Type | Default | `fast` | `scale` | What it does |"


def knob_table():
    """``{knob: {"default": cell, "fast": cell, "scale": cell}}`` from the README."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        knob = cells[0].strip("`")
        assert knob not in rows, f"{knob} has two rows"
        rows[knob] = dict(zip(("default", "fast", "scale"), cells[2:5]))
    return rows


def literal(cell: str):
    """A cell like `` `"mistral"` `` or `` `0.7` `` as the Python value it spells."""
    assert re.fullmatch(r"`[^`]+`", cell), f"not one literal: {cell!r}"
    return ast.literal_eval(cell.strip("`"))


TABLE = knob_table()
DEFAULTS = FuzzyFDConfig()


def test_the_rows_are_the_config_fields():
    assert list(TABLE) == [field.name for field in dataclasses.fields(FuzzyFDConfig)]


@pytest.mark.parametrize("knob", list(TABLE))
def test_the_default_column_is_the_default_config(knob):
    assert literal(TABLE[knob]["default"]) == getattr(DEFAULTS, knob)


@pytest.mark.parametrize("preset", ["fast", "scale"])
def test_the_preset_columns_are_the_presets(preset):
    documented = {knob: literal(row[preset]) for knob, row in TABLE.items() if row[preset]}
    assert documented == dict(PRESETS.get(preset))
