"""Representative-value selection for value-match sets.

Once a set of values has been matched (e.g. {"Berlinn", "Berlin", "Berlin"}),
one member must be chosen as the *representative* that replaces every member
before the equi-join Full Disjunction runs.  The paper's rule: pick the value
that appears most frequently across the aligning columns; break ties by taking
the value from the earliest table.  Alternative policies are provided for the
ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Mapping, Sequence, Tuple

from repro.registry import Registry

ValueKey = Tuple[Hashable, object]
# A policy is a sort key: it receives one member's column order index, surface
# value and global frequency across the aligning columns; the member with the
# smallest key (the first, on ties) represents the match set.
Policy = Callable[[int, object, float], Any]

#: All representative policies, keyed by registry name.  Policies are plain
#: functions, so they are fetched with ``REPRESENTATIVE_POLICIES.get`` (not
#: ``create``); custom policies plug in with the ``register`` decorator.
REPRESENTATIVE_POLICIES: Registry[Policy] = Registry("representative policy")


@REPRESENTATIVE_POLICIES.register("frequency")
def _frequency_policy(column: int, value: object, frequency: float) -> tuple:
    """Most frequent value; ties broken by earliest column, then lexicographically."""
    return (-frequency, column, str(value))


@REPRESENTATIVE_POLICIES.register("first_column")
def _first_column_policy(column: int, value: object, frequency: float) -> tuple:
    """Value from the earliest column (the query table's spelling wins)."""
    return (column, str(value))


@REPRESENTATIVE_POLICIES.register("longest")
def _longest_policy(column: int, value: object, frequency: float) -> tuple:
    """Longest surface form (prefers expanded names over abbreviations)."""
    return (-len(str(value)), str(value))


@REPRESENTATIVE_POLICIES.register("shortest")
def _shortest_policy(column: int, value: object, frequency: float) -> tuple:
    """Shortest surface form (prefers codes/abbreviations)."""
    return (len(str(value)), str(value))


def available_policies() -> List[str]:
    """Names of the registered representative policies."""
    return REPRESENTATIVE_POLICIES.names()


def select_representative(
    members: Sequence[ValueKey],
    frequencies: Mapping[object, int],
    column_order: Mapping[Hashable, int],
    policy: str = "frequency",
) -> object:
    """Choose the representative value of one match set under ``policy``."""
    if not members:
        raise ValueError("cannot select a representative from an empty match set")
    key = REPRESENTATIVE_POLICIES.get(policy)
    unknown = len(column_order)  # the order index of a column missing from it
    return min(
        members,
        key=lambda member: key(column_order.get(member[0], unknown), member[1], frequencies.get(member[1], 0)),
    )[1]
