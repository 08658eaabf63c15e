"""Bipartite value matching between two aligned columns.

Given the (distinct) value sets of two aligned columns, a distance function
and the matching threshold θ of Definition 2, the matcher computes the full
distance matrix, solves the optimal assignment, and keeps only the matched
pairs whose distance is strictly below θ — exactly the procedure of the
paper's Example 3 (the India/US pair produced by the assignment is discarded
because its distance exceeds the threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.matching.assignment import AssignmentSolver, ScipyAssignment
from repro.matching.distance import DistanceFunction


@dataclass(frozen=True)
class ValueMatch:
    """One accepted fuzzy match between a value of the left and right column."""

    left: object
    right: object
    distance: float

    def as_tuple(self) -> tuple:
        """Return ``(left, right)`` for quick set comparisons in tests."""
        return (self.left, self.right)


#: Accepted matches by position: left positions, right positions, distances.
IndexMatches = Tuple[List[int], List[int], List[float]]


def value_matches(
    left_values: Sequence[object], right_values: Sequence[object], left: List[int], right: List[int], distances: List[float]
) -> List[ValueMatch]:
    """Index matches as :class:`ValueMatch` objects, sorted by distance, then text."""
    matches = [
        ValueMatch(left_values[row], right_values[column], distance)
        for row, column, distance in zip(left, right, distances)
    ]
    matches.sort(key=lambda match: (match.distance, str(match.left), str(match.right)))
    return matches


def exact_first(
    match: Callable[[List[object], List[object]], IndexMatches],
    left_values: Sequence[object],
    right_values: Sequence[object],
) -> IndexMatches:
    """Identical values paired positionally first, then ``match`` on the rest.

    Each right value takes the first left position holding it that no earlier
    right value took, so surviving duplicates of a matched value still reach
    ``match``.  (The Match Values fold pairs identical values from an index
    it keeps across column pairs instead, :mod:`repro.core.value_matching`.)
    """
    holders: Dict[object, List[int]] = {}
    for at, value in enumerate(left_values):
        holders.setdefault(value, []).append(at)
    left, right, rest_right = [], [], []
    for at, value in enumerate(right_values):
        if holders.get(value):
            left.append(holders[value].pop(0))
            right.append(at)
        else:
            rest_right.append(at)
    taken = set(left)
    rest_left = [at for at in range(len(left_values)) if at not in taken]
    found = match([left_values[at] for at in rest_left], [right_values[at] for at in rest_right])
    return left + [rest_left[at] for at in found[0]], right + [rest_right[at] for at in found[1]], [0.0] * len(left) + found[2]


class BipartiteValueMatcher:
    """Optimal bipartite matching between two value lists under a threshold.

    Parameters
    ----------
    distance:
        A :class:`~repro.matching.distance.DistanceFunction` (typically the
        cosine distance over a cell-value embedder).
    threshold:
        The matching threshold θ; pairs at distance ≥ θ are discarded.  The
        paper reports θ = 0.7 as the best-performing setting.
    solver:
        Assignment solver; defaults to scipy's linear sum assignment as in the
        paper.
    """

    def __init__(
        self,
        distance: DistanceFunction,
        threshold: float = 0.7,
        solver: Optional[AssignmentSolver] = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.distance = distance
        self.threshold = threshold
        self.solver = solver if solver is not None else ScipyAssignment()

    def match(
        self,
        left_values: Sequence[object],
        right_values: Sequence[object],
    ) -> List[ValueMatch]:
        """Match two value lists; returns accepted matches sorted by distance.

        Duplicate values inside a column are expected to have been collapsed
        by the caller (the clean-clean assumption of the paper); the matcher
        nevertheless tolerates duplicates by matching positions.
        """
        return value_matches(left_values, right_values, *self.match_indices(left_values, right_values))

    def match_indices(self, left_values: Sequence[object], right_values: Sequence[object]) -> IndexMatches:
        """:meth:`match` as ``(left positions, right positions, distances)``, in solver order."""
        if not left_values or not right_values:
            return [], [], []
        cost = self.distance.matrix(left_values, right_values)
        pairs = self.solver.solve(cost)
        if not pairs:
            return [], [], []
        rows, columns = map(list, zip(*pairs))
        distances = cost[rows, columns].tolist()
        kept = [at for at, distance in enumerate(distances) if distance < self.threshold]
        return [rows[at] for at in kept], [columns[at] for at in kept], [distances[at] for at in kept]

    def match_exact_first(self, left_values: Sequence[object], right_values: Sequence[object]) -> List[ValueMatch]:
        """Match identical values first, then fuzzily match the remainder.

        Exact duplicates across the two columns are always correct matches and
        fixing them first both speeds up the assignment (smaller matrix) and
        prevents the optimal assignment from "stealing" an exact partner for a
        marginally cheaper fuzzy pair.  This is the variant the Fuzzy FD
        pipeline uses by default.
        """
        return value_matches(left_values, right_values, *exact_first(self.match_indices, left_values, right_values))
