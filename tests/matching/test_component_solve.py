"""The blocked matcher's component solve and the layout of its cost matrix.

``_solve_component`` fills a tall component (more rows than columns) in
Fortran order, so that its bytes are the wide C-contiguous matrix scipy
solves and no transpose copy is made.  These tests hold it to the C-ordered
fill it replaced, triple for triple, and bound the memory it takes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import assignment
from repro.matching.assignment import GreedyAssignment, ScipyAssignment
from repro.matching.blocking import PROHIBITIVE_COST, _solve_component

THRESHOLD = 0.6
#: Few distinct distances, so that optimal assignments and greedy picks tie.
TIED_DISTANCES = [0.0, 0.25, 0.25, 0.5, 0.75, 0.9]


def c_ordered_fill(payload, solver, threshold):
    """The component solve as it was: the matrix filled in C order."""
    rows, columns, pair_rows, pair_cols, distances = payload
    cost = np.full((len(rows), len(columns)), PROHIBITIVE_COST)
    cost[pair_rows, pair_cols] = distances
    return [(r, c, float(cost[r, c])) for r, c in solver.solve(cost) if cost[r, c] < threshold]


def payload_of(n_rows, n_cols, cells, distances):
    cells = np.asarray(cells, dtype=np.int64)
    return (
        np.arange(n_rows),
        np.arange(n_cols),
        cells // n_cols,
        cells % n_cols,
        np.asarray(distances, dtype=np.float64),
    )


@st.composite
def components(draw, shape):
    small, large = sorted(draw(st.lists(st.integers(1, 12), min_size=2, max_size=2)))
    if shape != "square" and small == large:
        large += 1
    n_rows, n_cols = {"tall": (large, small), "wide": (small, large), "square": (large, large)}[shape]
    cells = draw(st.lists(st.integers(0, n_rows * n_cols - 1), min_size=1, unique=True))
    distances = draw(st.lists(st.sampled_from(TIED_DISTANCES), min_size=len(cells), max_size=len(cells)))
    return payload_of(n_rows, n_cols, cells, distances)


class TestLayout:
    @pytest.mark.parametrize("solver", [ScipyAssignment(), GreedyAssignment()], ids=["scipy", "greedy"])
    @pytest.mark.parametrize("shape", ["tall", "wide", "square"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_triples_as_the_c_ordered_fill(self, solver, shape, data):
        payload = data.draw(components(shape))
        assert _solve_component(payload, solver, THRESHOLD) == c_ordered_fill(payload, solver, THRESHOLD)


class TestTallComponentMemory:
    """A tall component is allocated once: scipy reads the filled matrix itself."""

    N_ROWS, N_COLS = 1_200, 800

    @pytest.fixture()
    def tall_payload(self):
        rng = np.random.default_rng(7)
        cells = rng.choice(self.N_ROWS * self.N_COLS, size=20_000, replace=False)
        return payload_of(self.N_ROWS, self.N_COLS, np.sort(cells), rng.random(len(cells)))

    def test_peak_stays_near_one_matrix(self, tall_payload):
        assignment._linear_sum_assignment()  # bind outside the measurement
        matrix_bytes = self.N_ROWS * self.N_COLS * 8
        tracemalloc.start()
        try:
            _solve_component(tall_payload, ScipyAssignment(), THRESHOLD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The C-ordered fill plus its transpose copy needed about 2.1×.
        assert peak < 1.3 * matrix_bytes

    def test_lsap_receives_the_wide_c_contiguous_matrix(self, tall_payload, monkeypatch):
        real = assignment._linear_sum_assignment()
        received = []

        def recording(matrix):
            received.append((matrix.shape, matrix.flags.c_contiguous))
            return real(matrix)

        monkeypatch.setattr(assignment, "_lsap", recording)
        triples = _solve_component(tall_payload, ScipyAssignment(), THRESHOLD)
        assert received == [((self.N_COLS, self.N_ROWS), True)]
        assert triples == c_ordered_fill(tall_payload, ScipyAssignment(), THRESHOLD)
