"""From-scratch Hungarian solver: the oracle that cross-validates scipy.

Not registered in ``ASSIGNMENT_SOLVERS`` — the pipeline has one exact solver
(scipy's).  Tests compare its total cost with scipy's and with brute force;
pass an instance as ``assignment_solver=`` to run a pipeline on it.
"""

from __future__ import annotations

import numpy as np

from repro.matching.assignment import Assignment, AssignmentSolver


class HungarianAssignment(AssignmentSolver):
    """From-scratch Kuhn–Munkres algorithm (O(n³), potentials + augmenting paths).

    Implemented over the transposed matrix when there are more rows than
    columns so the inner loop always iterates over the larger side.
    """

    name = "hungarian"

    def solve(self, cost_matrix: np.ndarray) -> Assignment:
        matrix = self._validate(cost_matrix)
        if matrix.size == 0:
            return []
        transposed = matrix.shape[0] > matrix.shape[1]
        if transposed:
            matrix = matrix.T
        pairs = self._solve_rectangular(matrix)
        if transposed:
            pairs = [(col, row) for row, col in pairs]
        return sorted(pairs)

    @staticmethod
    def _solve_rectangular(matrix: np.ndarray) -> Assignment:
        """Hungarian algorithm for matrices with rows <= columns.

        Classic potentials formulation (JV-style): ``u`` over rows, ``v`` over
        columns, ``way`` tracks the augmenting path.  Indices are 1-based
        internally, matching the textbook presentation.
        """
        n_rows, n_cols = matrix.shape
        INF = float("inf")
        u = [0.0] * (n_rows + 1)
        v = [0.0] * (n_cols + 1)
        match_of_col = [0] * (n_cols + 1)  # row matched to each column (0 = free)
        way = [0] * (n_cols + 1)

        for row in range(1, n_rows + 1):
            match_of_col[0] = row
            free_col = 0
            min_value = [INF] * (n_cols + 1)
            used = [False] * (n_cols + 1)
            while True:
                used[free_col] = True
                current_row = match_of_col[free_col]
                delta = INF
                next_col = 0
                for col in range(1, n_cols + 1):
                    if used[col]:
                        continue
                    reduced = matrix[current_row - 1, col - 1] - u[current_row] - v[col]
                    if reduced < min_value[col]:
                        min_value[col] = reduced
                        way[col] = free_col
                    if min_value[col] < delta:
                        delta = min_value[col]
                        next_col = col
                for col in range(n_cols + 1):
                    if used[col]:
                        u[match_of_col[col]] += delta
                        v[col] -= delta
                    else:
                        min_value[col] -= delta
                free_col = next_col
                if match_of_col[free_col] == 0:
                    break
            while free_col != 0:
                previous = way[free_col]
                match_of_col[free_col] = match_of_col[previous]
                free_col = previous

        pairs: Assignment = []
        for col in range(1, n_cols + 1):
            if match_of_col[col] != 0:
                pairs.append((match_of_col[col] - 1, col - 1))
        return pairs
