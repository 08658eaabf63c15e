"""Disjoint value-match sets.

The Fuzzy Value Match problem (Definition 2) asks for *disjoint* sets of
values.  Each value is identified by the pair ``(column id, value)`` so that,
per the clean-clean assumption, two equal strings in *different* columns are
distinct items until a match joins them, while equal strings in the same
column are the same item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Tuple

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
