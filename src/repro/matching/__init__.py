"""Fuzzy value matching machinery.

This package implements the building blocks of the paper's *Match Values*
component (Sec. 2.2): distance functions between cell values (cosine distance
over embeddings, plus lexical baselines), optimal bipartite assignment between
the value sets of two aligned columns (scipy's linear sum assignment and a
greedy baseline), and the disjoint value-match sets the matches form.
"""

from repro.matching.assignment import (
    ASSIGNMENT_SOLVERS,
    AssignmentSolver,
    GreedyAssignment,
    ScipyAssignment,
    available_solvers,
    get_assignment_solver,
)
from repro.matching.ann import SemanticBlocker
from repro.matching.bipartite import BipartiteValueMatcher, ValueMatch, exact_first
from repro.matching.blocking import (
    PROHIBITIVE_COST,
    BlockedValueMatcher,
    BlockingStatistics,
    ValueBlocker,
)
from repro.matching.clustering import ValueMatchSet
from repro.matching.distance import (
    DistanceFunction,
    EmbeddingDistance,
    JaccardTokenDistance,
    LevenshteinDistance,
    cosine_distance_matrix,
)

__all__ = [
    "DistanceFunction",
    "EmbeddingDistance",
    "LevenshteinDistance",
    "JaccardTokenDistance",
    "cosine_distance_matrix",
    "AssignmentSolver",
    "ScipyAssignment",
    "GreedyAssignment",
    "ASSIGNMENT_SOLVERS",
    "available_solvers",
    "get_assignment_solver",
    "BipartiteValueMatcher",
    "exact_first",
    "BlockedValueMatcher",
    "ValueBlocker",
    "SemanticBlocker",
    "BlockingStatistics",
    "PROHIBITIVE_COST",
    "ValueMatch",
    "ValueMatchSet",
]
