"""Tests for the long-lived IntegrationEngine: stages, overrides, warm cache."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import (
    AlignmentStage,
    FuzzyFDConfig,
    IntegrationEngine,
    MatchStage,
    integrate,
)
from repro.embeddings.llm import MistralEmbedder
from repro.table import NULL, Table


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


class TestRequestTables:
    def test_two_tables_of_one_name_are_refused_before_any_stage(self):
        # Both would be addressed as "a": one table's column and rows were
        # silently dropped, and the tuple id "a:0" named two tuples.
        tables = [Table("a", ["k", "v"], [("a", "x")]), Table("b", ["k"], [("b",)]), Table("a", ["k", "w"], [("a", "z")])]
        stages = []
        engine = IntegrationEngine()
        with pytest.raises(ValueError, match=r"tables\[0\] and tables\[2\] are both named .a."):
            engine.integrate(tables, on_stage=stages.append)
        assert stages == []
        for stage in (engine.align, lambda tables: engine.match(tables, engine.align(tables[:2]).alignment)):
            with pytest.raises(ValueError, match=r"tables\[0\] and tables\[2\]"):
                stage(tables)

    def test_a_boolean_is_not_the_number_it_equals(self):
        left = Table("l", ["k", "v"], [(1, "x"), (True, "y")])
        right = Table("r", ["k", "w"], [(1.0, "z")])
        table = IntegrationEngine().integrate([left, right]).table
        assert {(type(row[0]), row): sources for row, sources in zip(table.rows, table.provenance)} == {
            (int, (1, "x", "z")): frozenset({"l:0", "r:0"}),
            (bool, (True, "y", NULL)): frozenset({"l:1"}),
        }

    def test_rewritten_tables_decode_the_fd_input(self, covid_tables):
        result = IntegrationEngine().integrate(covid_tables)
        assert [table.name for table in result.rewritten_tables] == ["T1", "T2", "T3"]
        assert result.rewritten_tables is result.rewritten_tables  # decoded once


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

    def test_blocking_key_cap_none_override_disables_cap(self, covid_tables):
        # None is a meaningful value for this knob (cap disabled), so the
        # usual "None means not provided" filter must not swallow it.
        engine = IntegrationEngine()
        result = engine.integrate(covid_tables, blocking="on", blocking_key_cap=None)
        assert result.table.num_rows > 0
        assert engine.effective_config({"blocking_key_cap": None}).blocking_key_cap is None
        assert engine.effective_config({"threshold": None}) is engine.config

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


class TestSharedEngine:
    """An engine serves one request at a time, so threads sharing one get the
    results of a serial loop — and each request its own counters."""

    @staticmethod
    def _requests():
        # Three table sets of typo'd city names, each of another size.
        requests = []
        for index in range(3):
            cities = [f"city{index}x{row:03d}" for row in range(60 + 40 * index)]
            requests.append([
                Table(f"population{index}", ["City", "Population"], [(city, str(row)) for row, city in enumerate(cities)]),
                Table(f"transit{index}", ["City", "Lines"], [(city[:-1] + "z", str(row)) for row, city in enumerate(cities)]),
                Table(f"climate{index}", ["City", "Temp"], [(city + "s", f"{row}C") for row, city in enumerate(cities[::2])]),
            ])
        return requests

    @staticmethod
    def _fingerprint(result, ordered_digest):
        rewrites = {
            name: {str(column): sorted(map(repr, matched.rewrite_map(column).items())) for column in matched.column_order}
            for name, matched in result.value_matching.items()
        }
        counters = {name: value for name, value in result.timings.items() if not name.endswith("_seconds")}
        return result.table.columns, ordered_digest(result.table.rows, result.table.provenance), rewrites, counters

    def test_four_threads_get_the_serial_results(self, ordered_digest):
        requests = self._requests()
        jobs = [(requests[index % 3], (0.2, 0.5, 0.7, 0.5)[index % 4]) for index in range(12)]
        config = FuzzyFDConfig(blocking="on")
        serial_engine, shared = IntegrationEngine(config), IntegrationEngine(config)
        for engine in (serial_engine, shared):  # every value embedded: each request's cache counters are fixed
            for tables in requests:
                engine.integrate(tables)
        serial = [
            self._fingerprint(serial_engine.integrate(tables, threshold=theta), ordered_digest)
            for tables, theta in jobs
        ]

        results = [None] * len(jobs)
        start = threading.Barrier(4)

        def worker(offset):
            start.wait()
            for index in range(offset, len(jobs), 4):
                tables, theta = jobs[index]
                results[index] = self._fingerprint(shared.integrate(tables, threshold=theta), ordered_digest)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert results == serial
        assert shared.requests_served == len(requests) + len(jobs)

    @staticmethod
    def _run_threads(target, count):
        threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    def test_requests_served_counter_is_exact(self, covid_tables):
        engine = IntegrationEngine()
        self._run_threads(lambda _: [engine.integrate(covid_tables) for _ in range(5)], 4)
        assert engine.requests_served == 20

    def test_a_request_waits_for_the_running_one(self, covid_tables):
        class GatedEmbedder(MistralEmbedder):
            def __init__(self) -> None:
                super().__init__()
                self.entered = 0
                self.started = threading.Event()
                self.release = threading.Event()

            def _embed_texts(self, texts):
                self.entered += 1
                self.started.set()
                self.release.wait(timeout=30)
                return super()._embed_texts(texts)

        embedder = GatedEmbedder()
        engine = IntegrationEngine(FuzzyFDConfig(embedder=embedder))
        other = [Table("T9", ["City", "Mayor"], [("Lisbon", "Moedas"), ("Porto", "Moreira")])]
        first = threading.Thread(target=engine.integrate, args=(covid_tables,))
        second = threading.Thread(target=engine.integrate, args=(covid_tables[:1] + other,))
        first.start()
        assert embedder.started.wait(timeout=30)
        second.start()
        second.join(timeout=0.3)
        # The second request is parked on the engine, not in the embedder.
        assert second.is_alive()
        assert embedder.entered == 1 and engine.requests_served == 0
        embedder.release.set()
        first.join(timeout=60)
        second.join(timeout=60)
        assert engine.requests_served == 2

    def test_a_failed_request_releases_the_engine(self, covid_tables):
        engine = IntegrationEngine()

        def fail(stage):
            raise RuntimeError(f"stopped at {stage}")

        with pytest.raises(RuntimeError, match="stopped at align"):
            engine.integrate(covid_tables, on_stage=fail)
        served = []
        self._run_threads(lambda _: served.append(engine.integrate(covid_tables)), 2)
        assert len(served) == 2 and engine.requests_served == 2

    def test_staged_and_one_shot_requests_agree_across_threads(self, covid_tables):
        engine = IntegrationEngine()
        expected = IntegrationEngine().integrate(covid_tables, threshold=0.5)
        results = [None] * 4

        def worker(index):
            if index % 2:
                staged = engine.match(engine.align(covid_tables), threshold=0.5)
                results[index] = engine.integrate(staged)
            else:
                results[index] = engine.integrate(covid_tables, threshold=0.5)

        self._run_threads(worker, 4)
        for result in results:
            assert result.table.rows == expected.table.rows
            assert result.table.provenance == expected.table.provenance
            assert result.rewrites_applied() == expected.rewrites_applied()

    def test_request_overrides_leave_the_engine_config_alone(self, covid_tables):
        config = FuzzyFDConfig()
        engine = IntegrationEngine(config)
        rewrites = {0.05: set(), 0.7: set()}

        def worker(index):
            theta = (0.05, 0.7)[index % 2]
            rewrites[theta].add(engine.integrate(covid_tables, threshold=theta).rewrites_applied())

        self._run_threads(worker, 4)
        (strict,), (loose,) = rewrites[0.05], rewrites[0.7]
        assert strict < loose
        assert engine.config is config and engine.config == FuzzyFDConfig()
        assert engine.effective_config({}) is config

    def test_context_manager_returns_a_usable_engine(self, covid_tables):
        with IntegrationEngine() as engine:
            first = engine.integrate(covid_tables)
        # Leaving the block releases nothing: the engine keeps serving.
        assert engine.integrate(covid_tables).table.same_rows(first.table)
        assert engine.requests_served == 2


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
        assert result.fd_result.algorithm == "incremental"
        assert not [key for key in result.fd_result.statistics if key.startswith("parallel")]

    def test_partitioned_request_lists_the_incremental_rows(self, covid_tables):
        # ``partitioned`` is a registry alias: the same rows, order,
        # provenance and counters as an ``incremental`` request.
        engine = IntegrationEngine()
        partitioned = engine.integrate(covid_tables, fd_algorithm="partitioned")
        incremental = engine.integrate(covid_tables, fd_algorithm="incremental")
        assert (partitioned.table.rows, partitioned.table.provenance) == (
            incremental.table.rows,
            incremental.table.provenance,
        )
        assert partitioned.fd_result.statistics == incremental.fd_result.statistics

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

    def test_cache_warm_across_repeated_requests(self, covid_tables):
        embedder = CountingMistralEmbedder()
        engine = IntegrationEngine(FuzzyFDConfig(embedder=embedder))
        engine.integrate(covid_tables)
        calls_after_first = embedder.embed_calls
        # Cold side: one raw embed per distinct text, so the zero below
        # cannot come from a counter that never moves.
        assert calls_after_first == len(engine.embedding_cache) > 0
        for _ in range(4):
            engine.integrate(covid_tables)
        assert embedder.embed_calls == calls_after_first

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

    def test_engines_do_not_share_state(self):
        """Two engines built from one config stay independent."""
        first = IntegrationEngine()
        second = IntegrationEngine()
        assert first.embedder is not second.embedder

    def test_sweep_results_match_fresh_runs(self, covid_tables):
        """Cached embeddings must not change any result of the sweep."""
        engine = IntegrationEngine()
        for theta in (0.6, 0.7, 0.9):
            warm = engine.integrate(covid_tables, threshold=theta)
            fresh = integrate(covid_tables, config=FuzzyFDConfig(threshold=theta))
            assert warm.table.same_rows(fresh.table)
