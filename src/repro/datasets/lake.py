"""A multi-schema lake: ``groups`` unrelated pairs of tables, each pair joined
on a key of its own, so the input falls apart into two-tuple components (the
FD ablation's opposite of the one-join IMDB benchmark)."""

from __future__ import annotations

from typing import List

from repro.table.table import Table


def multi_schema_lake(groups: int = 4, entities: int = 1_000) -> List[Table]:
    """``2 * groups`` tables of ``entities`` tuples, paired on ``key<group>``."""
    return [
        Table(
            f"{side}{group}",
            [f"key{group}", f"{side}{group}"],
            [(f"entity {group}.{index}", f"{side} of {index}") for index in range(entities)],
        )
        for group in range(groups)
        for side in ("left", "right")
    ]
