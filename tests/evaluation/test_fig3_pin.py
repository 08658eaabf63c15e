"""The paper pin for Fig. 3, at count level: fuzzy FD does the work of the FD it extends.

The paper's Fig. 3 claim is that Fuzzy Full Disjunction costs no more than
the Full Disjunction it extends.  On an equi-join input, where value matching
rewrites nothing, the two must hand the closure the same tuples, so they
list, merge and create the same tuples and give the same table in the same
order.  Timings vary by machine, so the time ratio stays in the pipeline
benchmark (``fd.fuzzy_overhead_ratio``); the counts here are exact.

The counts are pinned at 1 000 tuples and at 30 000, the largest size of
the paper's sweep, so a kernel change that misbehaves only at the paper's
scale fails by name.  CI runs this file by name (``Fig. 3 paper pin``)
beside the Table 1 pin.
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

#: The same on ``ImdbBenchmark(13).tables(30000)``, the paper's largest size.
RECORDED_STATISTICS_30K = {
    "outer_union_tuples": 30_000.0,
    "complementation_comparisons": 909_836_175.0,
    "complementation_expanded": 1_118_379.0,
    "complementation_merges": 1_061_182.0,
    "complementation_tuples": 214_822.0,
}
RECORDED_ROWS_30K = 11_935


def _fuzzy_and_regular(size):
    tables = ImdbBenchmark(13).tables(size)
    with IntegrationEngine("paper") as engine:
        return engine.integrate(tables), engine.integrate(tables, fuzzy=False)


@pytest.fixture(scope="module")
def fuzzy_and_regular():
    return _fuzzy_and_regular(1000)


def test_fuzzy_and_regular_fd_give_the_same_rows_in_the_same_order(fuzzy_and_regular):
    fuzzy, regular = fuzzy_and_regular
    assert fuzzy.table.columns == regular.table.columns
    assert fuzzy.table.rows == regular.table.rows
    assert fuzzy.table.num_rows == RECORDED_ROWS


def test_fuzzy_and_regular_fd_do_the_same_closure_work(fuzzy_and_regular):
    fuzzy, regular = fuzzy_and_regular
    assert fuzzy.fd_result.statistics == regular.fd_result.statistics == RECORDED_STATISTICS


def test_at_the_papers_largest_size_fuzzy_fd_does_the_regular_fds_work():
    fuzzy, regular = _fuzzy_and_regular(30_000)
    assert fuzzy.table.rows == regular.table.rows
    assert fuzzy.table.num_rows == RECORDED_ROWS_30K
    assert fuzzy.fd_result.statistics == regular.fd_result.statistics == RECORDED_STATISTICS_30K
