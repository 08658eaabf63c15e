"""Tests for the long-lived IntegrationEngine: stages, overrides, warm cache."""

from __future__ import annotations

import pytest

from repro.core import (
    AlignmentStage,
    FuzzyFDConfig,
    FuzzyFullDisjunction,
    IntegrationEngine,
    MatchStage,
    integrate,
)
from repro.embeddings.llm import MistralEmbedder
from repro.table import Table


class CountingMistralEmbedder(MistralEmbedder):
    """Mistral simulator that counts raw (cache-missing) embedding calls."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.embed_calls = 0

    def _embed_texts(self, texts):
        self.embed_calls += len(texts)
        return super()._embed_texts(texts)


class TestEngineConstruction:
    def test_accepts_config_preset_name_dict_or_none(self):
        assert IntegrationEngine().config == FuzzyFDConfig()
        assert IntegrationEngine("fast").config.embedder == "fasttext"
        assert IntegrationEngine({"threshold": 0.8}).config.threshold == 0.8
        config = FuzzyFDConfig(threshold=0.9)
        assert IntegrationEngine(config).config is config

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(ValueError):
            IntegrationEngine("warp-speed")

    def test_components_resolved_once(self):
        engine = IntegrationEngine()
        assert engine.embedder is engine.embedder
        assert engine.embedder.name == "mistral"
        assert engine.solver.name == "scipy"
        assert engine.fd_algorithm.name == "alite"


class TestStages:
    def test_align_match_integrate_chain(self, covid_tables):
        engine = IntegrationEngine()
        aligned = engine.align(covid_tables)
        assert isinstance(aligned, AlignmentStage)
        assert "alignment_seconds" in aligned.timings
        assert {group.name for group in aligned.alignment} >= {"City", "Country"}

        matched = engine.match(aligned)
        assert isinstance(matched, MatchStage)
        assert set(matched.value_matching) == {"City", "Country"}
        assert matched.rewrites_applied() >= 4

        result = engine.integrate(matched)
        assert result.table.num_rows == 5  # the paper's Figure 1 outcome
        assert set(result.timings) >= {
            "alignment_seconds",
            "value_matching_seconds",
            "full_disjunction_seconds",
        }

    def test_staged_equals_one_call(self, covid_tables):
        engine = IntegrationEngine()
        staged = engine.integrate(engine.match(engine.align(covid_tables)))
        one_call = engine.integrate(covid_tables)
        assert staged.table.same_rows(one_call.table)

    def test_match_with_explicit_tables_needs_alignment(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(ValueError):
            engine.match(covid_tables)

    def test_align_requires_tables(self):
        engine = IntegrationEngine()
        with pytest.raises(ValueError):
            engine.align([])
        with pytest.raises(ValueError):
            engine.integrate([])

    def test_align_strategy_override(self, covid_tables):
        engine = IntegrationEngine()
        renamed = [covid_tables[0].rename({"City": "Municipality"})] + covid_tables[1:]
        by_name = engine.align(renamed)  # Municipality stays its own group
        holistic = engine.align(renamed, strategy="holistic")
        assert len(holistic.alignment) < len(by_name.alignment)


class TestPerRequestOverrides:
    def test_threshold_override_does_not_mutate_engine(self, covid_tables):
        engine = IntegrationEngine()
        engine.integrate(covid_tables, threshold=0.95)
        assert engine.config.threshold == 0.7

    def test_threshold_override_changes_matching(self, covid_tables):
        # θ is a distance threshold: pairs at distance ≥ θ are discarded, so a
        # *smaller* θ is stricter and accepts fewer fuzzy matches.
        engine = IntegrationEngine()
        loose = engine.integrate(covid_tables, threshold=0.7)
        strict = engine.integrate(covid_tables, threshold=0.05)
        assert strict.rewrites_applied() < loose.rewrites_applied()

    def test_fd_algorithm_override(self, covid_tables):
        engine = IntegrationEngine()
        result = engine.integrate(covid_tables, fd_algorithm="incremental")
        assert result.fd_result.algorithm == "incremental"
        assert engine.fd_algorithm.name == "alite"

    def test_invalid_override_name_fails_fast(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(TypeError):
            engine.integrate(covid_tables, thresold=0.8)

    def test_invalid_override_value_fails_fast(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(ValueError):
            engine.integrate(covid_tables, representative_policy="nope")

    def test_overrides_rejected_on_match_stage(self, covid_tables):
        # A MatchStage is already matched: silently ignoring a threshold
        # override would hand back stale matches, so it must raise.
        engine = IntegrationEngine()
        matched = engine.match(engine.align(covid_tables))
        with pytest.raises(TypeError):
            engine.integrate(matched, threshold=0.99)
        with pytest.raises(TypeError):
            engine.integrate(matched, alignment_strategy="holistic")

    def test_explicit_alignment_and_strategy_conflict(self, covid_tables):
        from repro.schema_matching import ColumnAlignment

        engine = IntegrationEngine()
        alignment = ColumnAlignment.from_named_columns(covid_tables)
        with pytest.raises(TypeError):
            engine.integrate(covid_tables, alignment=alignment, alignment_strategy="holistic")

    def test_regular_integration(self, covid_tables):
        engine = IntegrationEngine()
        result = engine.integrate(covid_tables, fuzzy=False)
        assert result.value_matching == {}
        assert "value_matching_seconds" not in result.timings

    def test_matching_overrides_rejected_with_fuzzy_false(self, covid_tables):
        # fuzzy=False skips the matching stage; silently ignoring its knobs
        # would make a threshold sweep over the regular baseline meaningless.
        engine = IntegrationEngine()
        with pytest.raises(TypeError, match="no effect with fuzzy=False"):
            engine.integrate(covid_tables, fuzzy=False, threshold=0.3)
        # Executor knobs still steer the FD stage, so they stay legal.
        result = engine.integrate(covid_tables, fuzzy=False, max_workers=2)
        assert result.value_matching == {}

    def test_match_stage_rejects_fuzzy_false_and_alignment(self, covid_tables):
        from repro.schema_matching import ColumnAlignment

        engine = IntegrationEngine()
        matched = engine.match(engine.align(covid_tables))
        with pytest.raises(TypeError, match="MatchStage"):
            engine.integrate(matched, fuzzy=False)
        with pytest.raises(TypeError, match="MatchStage"):
            engine.integrate(matched, alignment=ColumnAlignment.from_named_columns(covid_tables))

    def test_match_stage_still_accepts_executor_knobs(self, covid_tables):
        # Only the FD stage remains, and that is exactly what these steer.
        engine = IntegrationEngine()
        matched = engine.match(engine.align(covid_tables))
        pooled = engine.integrate(matched, max_workers=4, fd_algorithm="partitioned")
        plain = engine.integrate(engine.match(engine.align(covid_tables)))
        assert pooled.table.same_rows(plain.table)

    def test_alignment_stage_rejects_alignment_arguments(self, covid_tables):
        from repro.schema_matching import ColumnAlignment

        engine = IntegrationEngine()
        aligned = engine.align(covid_tables)
        with pytest.raises(TypeError, match="AlignmentStage"):
            engine.integrate(aligned, alignment_strategy="holistic")
        with pytest.raises(TypeError, match="AlignmentStage"):
            engine.integrate(aligned, alignment=ColumnAlignment.from_named_columns(covid_tables))

    def test_requests_served_counter(self, covid_tables):
        engine = IntegrationEngine()
        engine.integrate(covid_tables)
        engine.integrate(covid_tables, threshold=0.8)
        assert engine.requests_served == 2


class TestIntegrateMany:
    def test_results_identical_to_sequential_loop(self, covid_tables):
        engine = IntegrationEngine()
        sequential = [engine.integrate(covid_tables) for _ in range(4)]
        pooled = IntegrationEngine().integrate_many(
            [covid_tables] * 4, max_workers=4
        )
        assert len(pooled) == 4
        for serial_result, pooled_result in zip(sequential, pooled):
            assert serial_result.table.same_rows(pooled_result.table)

    def test_results_in_request_order(self, covid_tables):
        engine = IntegrationEngine()
        requests = [covid_tables[:2], covid_tables, covid_tables[1:]]
        results = engine.integrate_many(requests, max_workers=3)
        expected = [IntegrationEngine().integrate(request) for request in requests]
        for got, want in zip(results, expected):
            assert got.table.same_rows(want.table)

    def test_requests_served_counter_is_exact(self, covid_tables):
        engine = IntegrationEngine()
        engine.integrate_many([covid_tables] * 5, max_workers=4)
        assert engine.requests_served == 5

    def test_blocking_key_cap_none_override_disables_cap(self, covid_tables):
        # None is a meaningful value for this knob (cap disabled), so the
        # usual "None means not provided" filter must not swallow it.
        engine = IntegrationEngine()
        effective = engine._effective_config({"blocking_key_cap": None})
        assert effective.blocking_key_cap is None
        assert engine._effective_config({"threshold": None}) is engine.config

    def test_shared_overrides_apply_to_every_request(self, covid_tables):
        engine = IntegrationEngine()
        strict = engine.integrate_many([covid_tables] * 2, max_workers=2, threshold=0.05)
        loose = engine.integrate_many([covid_tables] * 2, max_workers=2, threshold=0.7)
        assert strict[0].rewrites_applied() < loose[0].rewrites_applied()

    def test_worker_default_comes_from_config(self, covid_tables):
        engine = IntegrationEngine(FuzzyFDConfig(max_workers=2))
        results = engine.integrate_many([covid_tables] * 2)
        assert len(results) == 2

    def test_invalid_worker_count_rejected(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(ValueError):
            engine.integrate_many([covid_tables], max_workers=0)

    def test_invalid_override_rejected(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(TypeError):
            engine.integrate_many([covid_tables], max_workers=2, thresold=0.5)

    def test_cache_warm_across_pooled_requests(self, covid_tables):
        embedder = CountingMistralEmbedder()
        engine = IntegrationEngine(FuzzyFDConfig(embedder=embedder))
        engine.integrate(covid_tables)
        calls_after_first = embedder.embed_calls
        # Cold side: one raw embed per distinct text, so the zero below
        # cannot come from a counter that never moves.
        assert calls_after_first == len(engine.embedding_cache) > 0
        engine.integrate_many([covid_tables] * 4, max_workers=4)
        assert embedder.embed_calls == calls_after_first


class TestWorkerPool:
    def test_integrate_many_reuses_one_pool_across_calls(self, covid_tables):
        # The satellite fix: no fresh ThreadPoolExecutor per call — repeated
        # batches draw from the same engine-owned executor.
        engine = IntegrationEngine()
        engine.integrate_many([covid_tables] * 2, max_workers=2)
        pool = engine.worker_pool()
        assert pool is not None
        engine.integrate_many([covid_tables] * 3, max_workers=2)
        assert engine.worker_pool() is pool
        engine.close()

    def test_pool_grows_for_wider_batches_and_stays(self, covid_tables):
        engine = IntegrationEngine()
        small = engine.worker_pool(2)
        grown = engine.worker_pool(4)
        assert grown is not small  # grew: more demand than threads
        assert engine.worker_pool(3) is grown  # never shrinks below demand
        engine.close()

    def test_close_drains_and_reuse_recreates(self, covid_tables):
        engine = IntegrationEngine()
        first = engine.worker_pool(2)
        engine.close()
        results = engine.integrate_many([covid_tables] * 2, max_workers=2)
        assert len(results) == 2
        assert engine.worker_pool() is not first
        engine.close()

    def test_context_manager_closes_the_pool(self, covid_tables):
        with IntegrationEngine() as engine:
            engine.integrate_many([covid_tables] * 2, max_workers=2)
            assert engine.worker_pool() is not None
        assert engine._pool is None


class TestParallelConfigKnobs:
    def test_max_workers_is_a_per_request_override(self, covid_tables):
        engine = IntegrationEngine()
        serial = engine.integrate(covid_tables)
        pooled = engine.integrate(
            covid_tables, max_workers=4, parallel_backend="thread", blocking="on"
        )
        assert serial.table.same_rows(pooled.table)
        assert engine.config.max_workers == 1  # engine config untouched

    def test_partitioned_fd_inherits_engine_executor(self, covid_tables):
        # The FD stage takes no workers: engines that differ only in executor
        # settings integrate to the same table with the same FD statistics.
        plain = IntegrationEngine(FuzzyFDConfig(fd_algorithm="partitioned")).integrate(covid_tables)
        pooled = IntegrationEngine(
            FuzzyFDConfig(fd_algorithm="partitioned", max_workers=3)
        ).integrate(covid_tables)
        assert (pooled.table.rows, pooled.table.provenance) == (plain.table.rows, plain.table.provenance)
        assert pooled.fd_result.statistics == plain.fd_result.statistics

    def test_fd_override_by_name_inherits_executor(self, covid_tables):
        engine = IntegrationEngine(FuzzyFDConfig(max_workers=2, parallel_backend="thread"))
        result = engine.integrate(covid_tables, fd_algorithm="partitioned")
        assert result.fd_result.algorithm == "partitioned"
        assert not [key for key in result.fd_result.statistics if key.startswith("parallel")]

    def test_request_executor_override_reaches_fd_stage(self):
        # 10 disjoint join keys -> 10 FD components.  Executor overrides stay
        # legal per request and change neither the table nor an FD counter.
        left = Table("L", ["k", "a"], [(f"k{i}", f"a{i}") for i in range(10)])
        right = Table("R", ["k", "b"], [(f"k{i}", f"b{i}") for i in range(10)])
        engine = IntegrationEngine(FuzzyFDConfig(fd_algorithm="partitioned"))
        default = engine.integrate([left, right])
        assert default.fd_result.statistics["components"] == 10.0
        for overrides in ({"max_workers": 4}, {"max_workers": 2, "parallel_backend": "serial"}):
            pooled = engine.integrate([left, right], **overrides)
            assert (pooled.table.rows, pooled.table.provenance) == (
                default.table.rows,
                default.table.provenance,
            )
            assert pooled.fd_result.statistics == default.fd_result.statistics
        assert not [key for key in default.fd_result.statistics if key.startswith("parallel")]


class TestWarmEmbeddingCache:
    def test_theta_sweep_embeds_each_value_once(self, covid_tables):
        """The engine's whole point: a θ-sweep performs zero new embeddings."""
        embedder = CountingMistralEmbedder()
        engine = IntegrationEngine(FuzzyFDConfig(embedder=embedder))

        engine.integrate(covid_tables, threshold=0.7)
        calls_after_first = embedder.embed_calls
        assert calls_after_first == len(engine.embedding_cache) > 0

        for theta in (0.6, 0.8, 0.9):
            engine.integrate(covid_tables, threshold=theta)
        assert embedder.embed_calls == calls_after_first
        assert engine.embedding_cache.hits > 0

    def test_ann_indexing_reuses_cached_embeddings(self, covid_tables):
        """Semantic blocking never re-embeds: indexing reads the warm cache.

        Two invariants pin this down: no text is ever embedded twice within
        one request (raw calls == distinct cache entries), and a second
        request over the same tables — which rebuilds the ANN index — adds
        zero raw embedding calls.
        """
        embedder = CountingMistralEmbedder()
        engine = IntegrationEngine(
            FuzzyFDConfig(embedder=embedder, blocking="on", semantic_blocking="on")
        )

        engine.integrate(covid_tables)
        calls_after_first = embedder.embed_calls
        assert calls_after_first > 0
        # One raw call per cache entry: the ANN index and the scoring stage
        # shared every vector instead of computing it twice.
        assert calls_after_first == len(engine.embedding_cache)

        engine.integrate(covid_tables, threshold=0.8)
        assert embedder.embed_calls == calls_after_first

    def test_semantic_blocking_is_a_per_request_override(self, covid_tables):
        engine = IntegrationEngine(FuzzyFDConfig(blocking="on"))
        result = engine.integrate(
            covid_tables, semantic_blocking="on", ann_top_k=3
        )
        assert result.timings.get("blocking_ann_pairs_added", 0.0) >= 0.0
        # The engine's own config was not mutated by the override.
        assert engine.config.semantic_blocking == "off"

    def test_semantic_override_requires_blocking(self, covid_tables):
        engine = IntegrationEngine()
        with pytest.raises(ValueError):
            engine.integrate(covid_tables, semantic_blocking="on")

    def test_operator_classes_do_not_share_state(self, covid_tables):
        """One-shot operators stay independent (back-compat behaviour)."""
        first = FuzzyFullDisjunction()
        second = FuzzyFullDisjunction()
        assert first.engine.embedder is not second.engine.embedder

    def test_sweep_results_match_fresh_runs(self, covid_tables):
        """Cached embeddings must not change any result of the sweep."""
        engine = IntegrationEngine()
        for theta in (0.6, 0.7, 0.9):
            warm = engine.integrate(covid_tables, threshold=theta)
            fresh = integrate(covid_tables, config=FuzzyFDConfig(threshold=theta))
            assert warm.table.same_rows(fresh.table)
