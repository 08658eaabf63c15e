"""Optimal bipartite assignment between two value sets.

The paper performs bipartite matching with scipy's linear sum assignment
(Crouse's shortest-augmenting-path algorithm).  :class:`ScipyAssignment` wraps
exactly that, bound straight from the compiled extension it lives in so that
a one-shot request does not import all of ``scipy.optimize`` for one function;
:class:`GreedyAssignment` is the obvious cheaper heuristic used as an ablation
baseline.  (The from-scratch Hungarian that cross-validates scipy is a test
oracle: :mod:`repro.testing.hungarian`.)

All solvers accept rectangular cost matrices and return a list of
``(row, column)`` index pairs: every row and every column is used at most
once, and the number of pairs equals ``min(rows, columns)``.
"""

from __future__ import annotations

import abc
import importlib.util
import os
import sys
import threading
from importlib.machinery import PathFinder
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.registry import Registry


Assignment = List[Tuple[int, int]]


class AssignmentSolver(abc.ABC):
    """Common interface of the assignment solvers."""

    name: str = "abstract"

    @abc.abstractmethod
    def solve(self, cost_matrix: np.ndarray) -> Assignment:
        """Return an assignment (list of (row, col)) minimising total cost."""

    @staticmethod
    def _validate(cost_matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(cost_matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if not np.isfinite(matrix).all():
            raise ValueError("cost matrix must be finite")
        return matrix

    def total_cost(self, cost_matrix: np.ndarray) -> float:
        """Total cost of the assignment this solver finds on ``cost_matrix``."""
        matrix = self._validate(cost_matrix)
        return float(sum(matrix[row, col] for row, col in self.solve(matrix)))


_LSAP_MODULE = "scipy.optimize._lsap"
_lsap_lock = threading.Lock()
_lsap: Optional[Callable] = None


def _bind_linear_sum_assignment() -> Callable:
    """scipy's ``linear_sum_assignment``, without ``import scipy.optimize`` if possible.

    The routine is all of ``scipy/optimize/_lsap.*.so``.  ``PathFinder`` is
    handed that directory, so neither parent package runs (≈ 1 ms and 5
    modules against 0.28 s and 547), and the module goes into ``sys.modules``
    under its real name, so a later ``import scipy.optimize`` reuses it.  A
    scipy that moved the file fails somewhere on that route; any failure
    there means the public import.
    """
    public = sys.modules.get("scipy.optimize")
    if hasattr(public, "linear_sum_assignment"):
        return public.linear_sum_assignment
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = PathFinder.find_spec(_LSAP_MODULE, [os.path.join(root, "optimize")])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_LSAP_MODULE] = module
        return module.linear_sum_assignment
    except Exception:
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


def _linear_sum_assignment() -> Callable:
    """The process-wide bound routine; the first caller binds it, once."""
    global _lsap
    if _lsap is None:
        with _lsap_lock:
            if _lsap is None:
                _lsap = _bind_linear_sum_assignment()
    return _lsap


class ScipyAssignment(AssignmentSolver):
    """scipy.optimize.linear_sum_assignment (the paper's solver).

    scipy solves a tall matrix as its transpose, copied first by a loop slower
    than numpy's; so a tall matrix is handed over as its C-contiguous transpose
    and the pairs sorted back by row, as scipy does: the same ``(rows, cols)``.
    A Fortran-ordered tall matrix (a blocked component) is that transpose
    already and goes over uncopied; a C-ordered one (the dense path) is copied.
    """

    name = "scipy"

    def solve(self, cost_matrix: np.ndarray) -> Assignment:
        solve = _linear_sum_assignment()
        matrix = self._validate(cost_matrix)
        if matrix.size == 0:
            return []
        if matrix.shape[0] <= matrix.shape[1]:
            rows, cols = solve(matrix)
        else:
            cols, rows = solve(np.ascontiguousarray(matrix.T))
            order = np.argsort(rows)
            rows, cols = rows[order], cols[order]
        return list(zip(rows.tolist(), cols.tolist()))


class GreedyAssignment(AssignmentSolver):
    """Greedy matching: repeatedly take the globally cheapest unused pair.

    Not optimal, but a common practical shortcut; the ablation benchmark
    quantifies the effectiveness it gives up relative to optimal assignment.
    Ties go to the first cell in C order, so a Fortran-ordered matrix (a tall
    blocked component) is sorted through a C-ordered flattened copy.
    """

    name = "greedy"

    def solve(self, cost_matrix: np.ndarray) -> Assignment:
        matrix = self._validate(cost_matrix)
        if matrix.size == 0:
            return []
        n_rows, n_cols = matrix.shape
        order = np.argsort(matrix, axis=None, kind="stable")
        used_rows = set()
        used_cols = set()
        pairs: Assignment = []
        limit = min(n_rows, n_cols)
        for flat_index in order:
            row, col = divmod(int(flat_index), n_cols)
            if row in used_rows or col in used_cols:
                continue
            used_rows.add(row)
            used_cols.add(col)
            pairs.append((row, col))
            if len(pairs) == limit:
                break
        return sorted(pairs)


#: All assignment solvers, keyed by registry name.
ASSIGNMENT_SOLVERS = Registry(
    "assignment solver",
    {
        "scipy": ScipyAssignment,
        "greedy": GreedyAssignment,
    },
)


def available_solvers() -> List[str]:
    """Names of the registered assignment solvers."""
    return ASSIGNMENT_SOLVERS.names()


def get_assignment_solver(name: str) -> AssignmentSolver:
    """Instantiate an assignment solver by name."""
    return ASSIGNMENT_SOLVERS.create(name)
