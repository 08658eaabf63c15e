"""Inputs that fall apart into small components, the FD ablation's opposites
of the one-join IMDB benchmark: a multi-schema lake and a join triangle."""

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


def join_triangle(entities: int = 8_000) -> List[Table]:
    """Tables ``ab``, ``bc`` and ``ca`` of ``entities`` tuples over the columns
    they share pairwise, entity ``i``'s three tuples joining into one; each
    tuple is null where the third table holds its keys."""
    return [
        Table(first + second, [first, second], [(f"{first}{index}", f"{second}{index}") for index in range(entities)])
        for first, second in ("ab", "bc", "ca")
    ]
