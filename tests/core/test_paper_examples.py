"""End-to-end reproduction of the paper's running example (Figures 1 and 2).

These tests assert the exact tuple counts and provenance sets the paper shows:
regular Full Disjunction produces the nine tuples f1–f9, Fuzzy Full
Disjunction produces the five tuples f10–f14.
"""

from __future__ import annotations

import pytest

from repro.core import IntegrationEngine
from repro.table import is_null


@pytest.fixture(scope="module")
def figure1_results(request):
    covid_tables = request.getfixturevalue("covid_tables")
    regular = IntegrationEngine().integrate(covid_tables, fuzzy=False)
    fuzzy = IntegrationEngine().integrate(covid_tables)
    return regular, fuzzy


class TestRegularFdFigure1:
    def test_nine_output_tuples(self, figure1_results):
        regular, _ = figure1_results
        assert regular.table.num_rows == 9

    def test_berlin_variants_not_integrated(self, figure1_results):
        regular, _ = figure1_results
        provenances = {frozenset(sources) for sources in regular.table.provenance}
        # t1 (Berlinn) stays alone; t7/t9 (Berlin) integrate with each other only.
        assert frozenset({"T1:0"}) in provenances
        assert frozenset({"T2:2", "T3:0"}) in provenances

    def test_country_codes_not_integrated(self, figure1_results):
        regular, _ = figure1_results
        provenances = {frozenset(sources) for sources in regular.table.provenance}
        # t2 (Toronto/Canada) and t5 (Toronto/CA) remain separate tuples.
        assert frozenset({"T1:1"}) in provenances
        assert frozenset({"T2:0"}) in provenances

    def test_boston_tuples_integrated_by_equality(self, figure1_results):
        regular, _ = figure1_results
        provenances = {frozenset(sources) for sources in regular.table.provenance}
        assert frozenset({"T2:1", "T3:2"}) in provenances


class TestFuzzyFdFigure1:
    EXPECTED_PROVENANCES = {
        frozenset({"T1:0", "T2:2", "T3:0"}),  # f10: Berlin
        frozenset({"T1:1", "T2:0"}),          # f11: Toronto
        frozenset({"T1:2", "T2:3", "T3:1"}),  # f12: Barcelona
        frozenset({"T1:3"}),                  # f13: New Delhi
        frozenset({"T2:1", "T3:2"}),          # f14: Boston
    }

    def test_five_output_tuples(self, figure1_results):
        _, fuzzy = figure1_results
        assert fuzzy.table.num_rows == 5

    def test_provenance_matches_paper(self, figure1_results):
        _, fuzzy = figure1_results
        provenances = {frozenset(sources) for sources in fuzzy.table.provenance}
        assert provenances == self.EXPECTED_PROVENANCES

    def test_berlin_tuple_is_complete(self, figure1_results):
        _, fuzzy = figure1_results
        berlin = next(row for row in fuzzy.table if row["City"] == "Berlin")
        assert berlin["Country"] == "Germany"
        assert berlin["VaxRate"] == "63%"
        assert berlin["TotalCases"] == "1.4M"
        assert berlin["DeathRate"] == "147"

    def test_new_delhi_remains_partial(self, figure1_results):
        _, fuzzy = figure1_results
        new_delhi = next(row for row in fuzzy.table if row["City"] == "New Delhi")
        assert is_null(new_delhi["VaxRate"])
        assert is_null(new_delhi["TotalCases"])

    def test_city_representatives_follow_majority_rule(self, figure1_results):
        _, fuzzy = figure1_results
        cities = set(fuzzy.table.column("City"))
        # "Berlin" (2 occurrences) wins over the typo "Berlinn" (1 occurrence);
        # "Barcelona" wins over "barcelona".
        assert "Berlin" in cities
        assert "Berlinn" not in cities
        assert "Barcelona" in cities
        assert "barcelona" not in cities

    def test_fewer_tuples_than_regular_fd(self, figure1_results):
        regular, fuzzy = figure1_results
        assert fuzzy.table.num_rows < regular.table.num_rows
        # Both results cover every input tuple.
        regular_sources = set().union(*regular.table.provenance)
        fuzzy_sources = set().union(*fuzzy.table.provenance)
        assert regular_sources == fuzzy_sources
