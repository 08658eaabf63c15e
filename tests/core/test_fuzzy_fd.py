"""Tests for the Fuzzy Full Disjunction pipeline and configuration."""

from __future__ import annotations

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine, integrate
from repro.embeddings import ExactEmbedder, MistralEmbedder
from repro.fd import AliteFullDisjunction
from repro.testing.hungarian import HungarianAssignment
from repro.schema_matching import ColumnAlignment
from repro.table import Table


class TestConfig:
    def test_defaults_match_paper(self):
        config = FuzzyFDConfig()
        assert config.embedder == "mistral"
        assert config.threshold == 0.7
        assert config.assignment_solver == "scipy"
        assert config.fd_algorithm == "alite"
        assert config.representative_policy == "frequency"

    def test_resolution_of_registry_names(self):
        config = FuzzyFDConfig()
        assert config.resolve_embedder().name == "mistral"
        assert config.resolve_solver().name == "scipy"
        assert config.resolve_fd_algorithm().name == "alite"

    def test_instances_pass_through(self):
        embedder = ExactEmbedder()
        solver = HungarianAssignment()
        algorithm = AliteFullDisjunction()
        config = FuzzyFDConfig(embedder=embedder, assignment_solver=solver, fd_algorithm=algorithm)
        assert config.resolve_embedder() is embedder
        assert config.resolve_solver() is solver
        assert config.resolve_fd_algorithm() is algorithm

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            FuzzyFDConfig(threshold=0.0)

    def test_invalid_alignment(self):
        with pytest.raises(ValueError):
            FuzzyFDConfig(alignment="guess")

    def test_invalid_blocking(self):
        with pytest.raises(ValueError):
            FuzzyFDConfig(blocking="maybe")
        with pytest.raises(ValueError):
            FuzzyFDConfig(blocking="auto", blocking_cutoff=-1)

    def test_blocking_defaults_off(self):
        config = FuzzyFDConfig()
        assert config.blocking == "off"
        assert config.blocking_cutoff > 0


class TestIntegrateConvenience:
    def test_fuzzy_and_regular_paths(self, covid_tables):
        fuzzy = integrate(covid_tables, fuzzy=True)
        regular = integrate(covid_tables, fuzzy=False)
        assert fuzzy.table.num_rows < regular.table.num_rows

    def test_requires_tables(self):
        with pytest.raises(ValueError):
            integrate([])

    @pytest.mark.parametrize("fuzzy", [True, False])
    def test_one_call_equals_an_engine_request(self, covid_tables, fuzzy):
        one_call = integrate(covid_tables, fuzzy=fuzzy).table
        engine = IntegrationEngine().integrate(covid_tables, fuzzy=fuzzy).table
        assert (one_call.columns, one_call.rows, one_call.provenance) == (
            engine.columns,
            engine.rows,
            engine.provenance,
        )

    def test_result_exposes_timings(self, covid_tables):
        result = integrate(covid_tables)
        assert set(result.timings) >= {"alignment_seconds", "full_disjunction_seconds"}
        assert result.total_seconds >= 0.0


class TestFuzzyFullDisjunction:
    def test_rewritten_tables_have_consistent_values(self, covid_tables):
        result = IntegrationEngine().integrate(covid_tables)
        rewritten_t1 = next(table for table in result.rewritten_tables if table.name == "T1")
        assert "Berlin" in rewritten_t1.column("City")
        assert "Berlinn" not in rewritten_t1.column("City")

    def test_value_matching_results_per_group(self, covid_tables):
        result = IntegrationEngine().integrate(covid_tables)
        assert set(result.value_matching) == {"City", "Country"}
        assert result.rewrites_applied() >= 4

    def test_explicit_alignment_is_respected(self):
        left = Table("l", ["Town"], [("Berlin",), ("Boston",)])
        right = Table("r", ["City", "Cases"], [("Berlinn", "10"), ("Madrid", "3")])
        alignment = ColumnAlignment.from_named_columns([left.rename({"Town": "City"}), right])
        result = IntegrationEngine().integrate(
            [left.rename({"Town": "City"}), right], alignment=alignment
        )
        berlin = next(row for row in result.table if row["Cases"] == "10")
        assert berlin["City"] in ("Berlin", "Berlinn")
        assert result.table.num_rows == 3

    def test_holistic_alignment_mode(self, covid_tables):
        renamed = [covid_tables[0].rename({"City": "Municipality"})] + covid_tables[1:]
        config = FuzzyFDConfig(alignment="holistic")
        result = IntegrationEngine(config).integrate(renamed)
        # The holistic matcher must have aligned Municipality with City for the
        # Berlin tuples to integrate.
        assert result.table.num_rows <= 7

    def test_exact_embedder_degenerates_to_regular_fd(self, covid_tables):
        fuzzy_exact = IntegrationEngine(FuzzyFDConfig(embedder=ExactEmbedder())).integrate(covid_tables)
        regular = IntegrationEngine().integrate(covid_tables, fuzzy=False)
        assert fuzzy_exact.table.same_rows(regular.table)

    def test_single_table_passthrough(self):
        table = Table("t", ["a", "b"], [("1", "2")])
        result = IntegrationEngine().integrate([table])
        assert result.table.num_rows == 1

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            IntegrationEngine().integrate([])
        with pytest.raises(ValueError):
            IntegrationEngine().integrate([], fuzzy=False)

    def test_hungarian_solver_gives_same_figure1_result(self, covid_tables):
        config = FuzzyFDConfig(assignment_solver=HungarianAssignment())
        result = IntegrationEngine(config).integrate(covid_tables)
        assert result.table.num_rows == 5

    def test_incremental_fd_algorithm_gives_same_figure1_result(self, covid_tables):
        config = FuzzyFDConfig(fd_algorithm="incremental")
        result = IntegrationEngine(config).integrate(covid_tables)
        assert result.table.num_rows == 5

    def test_blocking_on_gives_same_figure1_result(self, covid_tables):
        config = FuzzyFDConfig(blocking="on")
        result = IntegrationEngine(config).integrate(covid_tables)
        assert result.table.num_rows == 5
        assert "blocking_pairs_scored" in result.timings
        assert "blocking_pairs_avoided" in result.timings
        assert "blocking_largest_component" in result.timings
        # The work counters ride along in timings but must not be summed into
        # the wall-clock total.
        assert result.total_seconds == sum(
            value for key, value in result.timings.items() if key.endswith("_seconds")
        )

    def test_blocking_auto_engages_only_above_cutoff(self, covid_tables):
        config = FuzzyFDConfig(blocking="auto", blocking_cutoff=2)
        result = IntegrationEngine(config).integrate(covid_tables)
        assert result.table.num_rows == 5
        assert result.timings["blocking_pairs_scored"] > 0.0


class TestRegularFullDisjunction:
    def test_no_value_matching_performed(self, covid_tables):
        result = IntegrationEngine().integrate(covid_tables, fuzzy=False)
        assert result.value_matching == {}
        assert "value_matching_seconds" not in result.timings

    def test_output_matches_alite_directly(self, covid_tables):
        from repro.schema_matching import ColumnAlignment

        direct = AliteFullDisjunction().integrate(
            ColumnAlignment.from_named_columns(covid_tables).apply(covid_tables)
        )
        pipeline = IntegrationEngine().integrate(covid_tables, fuzzy=False)
        assert pipeline.table.same_rows(direct.table)
