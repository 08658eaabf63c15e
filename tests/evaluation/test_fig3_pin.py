"""The paper pin for Fig. 3, at count level: fuzzy FD does the work of the FD it extends.

The paper's Fig. 3 claim is that Fuzzy Full Disjunction costs no more than
the Full Disjunction it extends.  On an equi-join input, where value matching
rewrites nothing, the two must hand the closure the same tuples, so they
list, merge and create the same tuples and give the same table in the same
order.  Timings vary by machine, so the time ratio stays in the pipeline
benchmark (``fd.fuzzy_overhead_ratio``); the counts here are exact.

CI runs this file by name (``Fig. 3 paper pin``) beside the Table 1 pin.
"""

from __future__ import annotations

import pytest

from repro.core.engine import IntegrationEngine
from repro.datasets.imdb import ImdbBenchmark

#: The closure's counters on ``ImdbBenchmark(13).tables(1000)``, ``paper`` preset.
RECORDED_STATISTICS = {
    "outer_union_tuples": 1_000.0,
    "complementation_comparisons": 1_040_012.0,
    "complementation_expanded": 37_039.0,
    "complementation_merges": 35_057.0,
    "complementation_tuples": 7_104.0,
}
RECORDED_ROWS = 396


@pytest.fixture(scope="module")
def fuzzy_and_regular():
    tables = ImdbBenchmark(13).tables(1000)
    with IntegrationEngine("paper") as engine:
        return engine.integrate(tables), engine.integrate(tables, fuzzy=False)


def test_fuzzy_and_regular_fd_give_the_same_rows_in_the_same_order(fuzzy_and_regular):
    fuzzy, regular = fuzzy_and_regular
    assert fuzzy.table.columns == regular.table.columns
    assert fuzzy.table.rows == regular.table.rows
    assert fuzzy.table.num_rows == RECORDED_ROWS


def test_fuzzy_and_regular_fd_do_the_same_closure_work(fuzzy_and_regular):
    fuzzy, regular = fuzzy_and_regular
    assert fuzzy.fd_result.statistics == regular.fd_result.statistics == RECORDED_STATISTICS
