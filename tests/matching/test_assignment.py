"""Tests for the bipartite assignment solvers."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.matching import assignment
from repro.matching.assignment import (
    GreedyAssignment,
    ScipyAssignment,
    available_solvers,
    get_assignment_solver,
)
from repro.matching.blocking import PROHIBITIVE_COST
from repro.testing.hungarian import HungarianAssignment

EXACT_SOLVERS = [ScipyAssignment, HungarianAssignment]
ALL_SOLVERS = EXACT_SOLVERS + [GreedyAssignment]


def brute_force_minimum(cost: np.ndarray) -> float:
    """Optimal assignment cost by enumerating permutations (small matrices only)."""
    rows, cols = cost.shape
    transposed = rows > cols
    matrix = cost.T if transposed else cost
    best = float("inf")
    size = matrix.shape[0]
    for permutation in itertools.permutations(range(matrix.shape[1]), size):
        total = sum(matrix[i, permutation[i]] for i in range(size))
        best = min(best, total)
    return best


class TestSolverRegistry:
    def test_available(self):
        assert set(available_solvers()) == {"scipy", "greedy"}

    def test_get_by_name(self):
        assert get_assignment_solver("greedy").name == "greedy"

    def test_the_hungarian_oracle_is_not_a_registered_solver(self):
        with pytest.raises(ValueError):
            get_assignment_solver("hungarian")

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_assignment_solver("magic")


class TestAssignmentBasics:
    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_identity_matrix_prefers_diagonal(self, solver_cls):
        cost = np.ones((3, 3)) - np.eye(3)
        pairs = solver_cls().solve(cost)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_rectangular_wide(self, solver_cls):
        cost = np.array([[0.1, 0.9, 0.5], [0.8, 0.2, 0.4]])
        pairs = solver_cls().solve(cost)
        assert len(pairs) == 2
        rows = [row for row, _ in pairs]
        cols = [col for _, col in pairs]
        assert len(set(rows)) == 2 and len(set(cols)) == 2

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_rectangular_tall(self, solver_cls):
        cost = np.array([[0.1, 0.9], [0.8, 0.2], [0.5, 0.6]])
        pairs = solver_cls().solve(cost)
        assert len(pairs) == 2

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_empty_matrix(self, solver_cls):
        assert solver_cls().solve(np.zeros((0, 3))) == []

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_single_cell(self, solver_cls):
        assert solver_cls().solve(np.array([[0.3]])) == [(0, 0)]

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_rejects_non_finite(self, solver_cls):
        with pytest.raises(ValueError):
            solver_cls().solve(np.array([[np.nan]]))

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_rejects_non_2d(self, solver_cls):
        with pytest.raises(ValueError):
            solver_cls().solve(np.zeros(3))


class TestOptimality:
    @pytest.mark.parametrize("solver_cls", EXACT_SOLVERS)
    def test_known_optimum(self, solver_cls):
        cost = np.array(
            [
                [4.0, 1.0, 3.0],
                [2.0, 0.0, 5.0],
                [3.0, 2.0, 2.0],
            ]
        )
        assert solver_cls().total_cost(cost) == pytest.approx(5.0)

    def test_greedy_can_be_suboptimal(self):
        cost = np.array([[1.0, 2.0], [1.0, 100.0]])
        greedy = GreedyAssignment().total_cost(cost)
        optimal = ScipyAssignment().total_cost(cost)
        assert greedy >= optimal

    @given(
        npst.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(0, 10, allow_nan=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_hungarian_matches_scipy_and_brute_force(self, cost):
        scipy_cost = ScipyAssignment().total_cost(cost)
        hungarian_cost = HungarianAssignment().total_cost(cost)
        brute = brute_force_minimum(cost)
        assert hungarian_cost == pytest.approx(scipy_cost, abs=1e-9)
        assert hungarian_cost == pytest.approx(brute, abs=1e-9)

    @given(
        npst.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_assignments_are_valid_matchings(self, cost):
        for solver_cls in ALL_SOLVERS:
            pairs = solver_cls().solve(cost)
            rows = [row for row, _ in pairs]
            cols = [col for _, col in pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert len(pairs) == min(cost.shape)


#: Matrices with many optimal assignments: which one comes back is the routine's
#: tie-breaking, so equal pairs here mean "the same routine", not "an optimal one".
TIE_HEAVY = [
    np.zeros((3, 3)),
    np.ones((2, 5)),
    np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [0.0, 1.0, 1.0]]),
    np.array([[3.0, 1.0, 1.0, 3.0]]),
    np.array([[2.0], [0.0], [0.0]]),
]

#: 1 x n and n x 1 included; small integers make constant rows and exact ties common.
matrix_shapes = st.tuples(st.integers(1, 7), st.integers(1, 7))
small_integer_matrices = npst.arrays(
    dtype=np.float64, shape=matrix_shapes, elements=st.integers(0, 3).map(float)
)
float_matrices = npst.arrays(
    dtype=np.float64, shape=matrix_shapes, elements=st.floats(0, 1, allow_nan=False)
)



@st.composite
def blocked_component_matrices(draw):
    """Tall cost matrices as the blocked matcher builds a component's: every
    cell ``PROHIBITIVE_COST`` but a sparse set of candidate distances, ties
    among them common (``ScipyAssignment`` hands these to scipy transposed)."""
    columns = draw(st.integers(1, 40))
    rows = draw(st.integers(columns + 1, 60))
    cells = draw(st.lists(st.integers(0, rows * columns - 1), unique=True, max_size=3 * rows))
    distance = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1, allow_nan=False))
    matrix = np.full((rows, columns), PROHIBITIVE_COST)
    matrix.flat[cells] = draw(st.lists(distance, min_size=len(cells), max_size=len(cells)))
    return matrix


class TestBoundRoutine:
    """``ScipyAssignment`` binds scipy's compiled routine without ``import scipy.optimize``."""

    def test_a_paper_preset_request_never_imports_scipy_optimize(self, fresh_python):
        # A scipy release that moves the extension fails here, loudly, instead
        # of silently costing every one-shot request the 0.3 s package import.
        loaded = fresh_python(
            """
            import json, sys
            from repro import IntegrationEngine, Table
            tables = [
                Table("a", ["City", "Country"], [("Berlinn", "Germany"), ("Paris", "France")]),
                Table("b", ["City", "Vax"], [("Berlin", "63%"), ("Pariss", "70%")]),
            ]
            result = IntegrationEngine("paper").integrate(tables)
            loaded = {
                "rows": result.table.num_rows,
                "public": "scipy.optimize" in sys.modules,
                "extension": "scipy.optimize._lsap" in sys.modules,
            }
            import scipy.optimize
            from repro.matching.assignment import _linear_sum_assignment
            loaded["reused"] = scipy.optimize.linear_sum_assignment is _linear_sum_assignment()
            print(json.dumps(loaded))
            """
        )
        assert loaded == {"rows": 2, "public": False, "extension": True, "reused": True}

    def test_bound_routine_is_the_public_one(self):
        import scipy.optimize

        assert assignment._linear_sum_assignment() is scipy.optimize.linear_sum_assignment

    @given(st.one_of(small_integer_matrices, float_matrices, st.sampled_from(TIE_HEAVY), blocked_component_matrices()))
    @settings(max_examples=200, deadline=None)
    def test_same_rows_and_cols_as_the_public_function(self, cost):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        assert ScipyAssignment().solve(cost) == list(zip(rows.tolist(), cols.tolist()))

    @pytest.mark.parametrize("broken_finder", ["return None", "raise ImportError('moved')"])
    def test_public_import_serves_the_same_answers_when_the_direct_route_fails(
        self, fresh_python, broken_finder
    ):
        answer = fresh_python(
            f"""
            import json, sys
            import numpy as np
            from repro.matching import assignment

            class BrokenFinder:
                @staticmethod
                def find_spec(name, path=None):
                    {broken_finder}

            assignment.PathFinder = BrokenFinder
            matrices = {[matrix.tolist() for matrix in TIE_HEAVY]!r}
            pairs = [assignment.ScipyAssignment().solve(np.array(m)) for m in matrices]
            print(json.dumps({{"pairs": pairs, "public": "scipy.optimize" in sys.modules}}))
            """
        )
        assert answer["public"] is True
        expected = [ScipyAssignment().solve(matrix) for matrix in TIE_HEAVY]
        assert [[tuple(pair) for pair in pairs] for pairs in answer["pairs"]] == expected

    def test_eight_threads_solving_first_at_once_bind_once(self, monkeypatch):
        real_bind = assignment._bind_linear_sum_assignment
        binds = []
        barrier = threading.Barrier(8)
        answers = []

        def counting_bind():
            binds.append(threading.get_ident())
            time.sleep(0.05)  # as slow as a real load: the other seven arrive meanwhile
            return real_bind()

        def first_solve():
            barrier.wait(timeout=10)
            answers.append(ScipyAssignment().solve(np.array([[2.0, 1.0], [1.0, 2.0]])))

        monkeypatch.setattr(assignment, "_lsap", None)
        monkeypatch.setattr(assignment, "_bind_linear_sum_assignment", counting_bind)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_solve) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(binds) == 1
        assert answers == [[(0, 1), (1, 0)]] * 8
