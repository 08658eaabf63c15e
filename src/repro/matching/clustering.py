"""Accumulating pairwise matches into disjoint value-match sets.

The Fuzzy Value Match problem (Definition 2) asks for *disjoint* sets of
values; pairwise matches produced column-pair by column-pair are folded into
such sets as the connected components of the matches.  Each value is identified by the pair
``(column id, value)`` so that, per the clean-clean assumption, two equal
strings in *different* columns are distinct items until a match joins them,
while equal strings in the same column are the same item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.matching.bipartite import ValueMatch
from repro.utils.components import connected_groups

ValueKey = Tuple[Hashable, object]


@dataclass
class ValueMatchSet:
    """One disjoint set of matched values with its chosen representative."""

    members: List[ValueKey]
    representative: object = None

    def values(self) -> List[object]:
        """The raw values in the set (may repeat across columns)."""
        return [value for _, value in self.members]

    def columns(self) -> List[Hashable]:
        """The column ids contributing to the set."""
        return [column for column, _ in self.members]

    def __len__(self) -> int:
        return len(self.members)


class MatchSetBuilder:
    """Builds disjoint value-match sets from per-column values and pair matches."""

    def __init__(self) -> None:
        self._registered: Dict[ValueKey, None] = {}
        self._pairs: List[Tuple[ValueKey, ValueKey]] = []

    def add_column(self, column_id: Hashable, values: Iterable[object]) -> None:
        """Register every (distinct) value of a column as a singleton item."""
        for value in values:
            key: ValueKey = (column_id, value)
            self._registered.setdefault(key, None)

    def add_matches(
        self,
        left_column: Hashable,
        right_column: Hashable,
        matches: Sequence[ValueMatch],
    ) -> None:
        """Join the items of accepted bipartite matches."""
        for match in matches:
            left_key: ValueKey = (left_column, match.left)
            right_key: ValueKey = (right_column, match.right)
            self._registered.setdefault(left_key, None)
            self._registered.setdefault(right_key, None)
            self._pairs.append((left_key, right_key))

    def sets(self) -> List[ValueMatchSet]:
        """Return the current disjoint sets (deterministic member order)."""
        groups = connected_groups(self._registered, self._pairs)
        result: List[ValueMatchSet] = []
        for group in groups:
            members = sorted(group, key=lambda key: (str(key[0]), str(key[1])))
            result.append(ValueMatchSet(members=members))
        result.sort(key=lambda match_set: (str(match_set.members[0][0]), str(match_set.members[0][1])))
        return result

    def matched_pairs(self) -> List[Tuple[ValueKey, ValueKey]]:
        """All unordered within-set pairs — the unit the evaluation metrics count."""
        pairs: List[Tuple[ValueKey, ValueKey]] = []
        for match_set in self.sets():
            members = match_set.members
            for index, left in enumerate(members):
                for right in members[index + 1 :]:
                    pairs.append((left, right))
        return pairs
