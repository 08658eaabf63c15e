"""A down embedder through the full pipeline.

An embedder over a remote backend raises ``EmbedderUnavailable`` while the
backend is down (``DownEmbedder``, ``tests/conftest.py``).  The contract:

* with ``degraded_mode="surface"`` answers keep flowing from exact pairing
  plus surface blocking, marked degraded;
* with ``degraded_mode="off"`` the typed error reaches the caller;
* once the backend is back, results are byte-identical to a never-failed
  engine.

Every scenario runs on the thread backend with two workers.
"""

from __future__ import annotations

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import EmbedderUnavailable, MistralEmbedder
from repro.table import Table

BACKEND = "thread"


def _tables():
    return [
        Table(
            "T1",
            ["City", "Country"],
            [
                ("Berlinn", "Germany"),
                ("Toronto", "Canada"),
                ("Barcelona", "Spain"),
                ("New Delhi", "India"),
            ],
        ),
        Table(
            "T2",
            ["Country", "City", "VaxRate"],
            [
                ("CA", "Toronto", "83%"),
                ("US", "Boston", "62%"),
                ("DE", "Berlin", "63%"),
                ("ES", "Barcelona", "82%"),
            ],
        ),
        Table(
            "T3",
            ["City", "TotalCases"],
            [("Berlin", "1.4M"), ("barcelona", "2.68M"), ("Boston", "263K")],
        ),
    ]


def _config(**kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("parallel_backend", BACKEND)
    return FuzzyFDConfig(**kwargs)


def _degraded(result) -> bool:
    return any(vm.statistics.get("degraded", 0.0) > 0 for vm in result.value_matching.values())


def _city_sets(result):
    return sorted(sorted(map(str, match_set.values())) for match_set in result.value_matching["City"].sets)


@pytest.fixture()
def clean_result():
    return IntegrationEngine(_config()).integrate(_tables())


class TestSurfaceMode:
    def test_surface_mode_serves_degraded_results(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="surface"))
        result = engine.integrate(_tables())
        # Exact matches still merge: Toronto/Boston/Barcelona appear once.
        city_values = {row[result.table.columns.index("City")] for row in result.table.rows}
        assert "Toronto" in city_values
        assert _degraded(result)
        assert result.timings["degraded"] == 1.0
        assert result.timings["degraded_assignments"] > 0
        assert down_embedder.refused > 0

    def test_surface_mode_pairs_normalised_equals_only(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="surface"))
        sets = _city_sets(engine.integrate(_tables()))
        # "barcelona" normalises to "Barcelona"; "Berlinn" is a typo only an
        # embedding could match to "Berlin".
        assert ["Barcelona", "Barcelona", "barcelona"] in sets
        assert ["Berlinn"] in sets and ["Berlin", "Berlin"] in sets

    def test_a_degraded_request_embeds_and_caches_nothing(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="surface"))
        result = engine.integrate(_tables())
        assert len(down_embedder.cache) == 0
        for name in ("cache_hits", "cache_misses", "cache_fills"):
            assert result.timings[name] == 0.0, name

    def test_degraded_results_are_identical_across_serial_and_parallel(self, down_embedder):
        results = []
        for backend in ("serial", BACKEND):
            embedder = type(down_embedder)()
            engine = IntegrationEngine(_config(embedder=embedder, degraded_mode="surface", parallel_backend=backend))
            results.append(engine.integrate(_tables()))
        assert results[0].table.columns == results[1].table.columns
        assert results[0].table.rows == results[1].table.rows
        assert _degraded(results[0]) and _degraded(results[1])

    def test_a_degraded_scale_request_publishes_and_indexes_nothing(self, tmp_path, down_embedder):
        config = FuzzyFDConfig.preset("scale").replace(embedder=down_embedder, store_dir=str(tmp_path))
        engine = IntegrationEngine(config)
        degraded = engine.integrate(_tables())
        assert _degraded(degraded)
        assert degraded.timings.get("store_published_rows", 0.0) == 0.0
        assert degraded.timings.get("ann_index_builds", 0.0) == 0.0
        down_embedder.down = False
        recovered = engine.integrate(_tables())
        clean = IntegrationEngine(FuzzyFDConfig.preset("scale")).integrate(_tables())
        assert recovered.timings["store_published_rows"] > 0
        assert recovered.table.rows == clean.table.rows
        assert not _degraded(recovered)

    def test_another_embedder_error_is_not_absorbed(self):
        class BrokenEmbedder(MistralEmbedder):
            def embed_many(self, values):
                raise RuntimeError("model weights are corrupt")

        engine = IntegrationEngine(_config(embedder=BrokenEmbedder(), degraded_mode="surface"))
        with pytest.raises(RuntimeError, match="corrupt"):
            engine.integrate(_tables())


class TestOffMode:
    def test_off_mode_propagates_unavailability(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="off"))
        with pytest.raises(EmbedderUnavailable):
            engine.integrate(_tables())

    def test_per_request_override_enables_surface_mode(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="off"))
        result = engine.integrate(_tables(), degraded_mode="surface")
        assert _degraded(result)

    def test_per_request_override_disables_surface_mode(self, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="surface"))
        with pytest.raises(EmbedderUnavailable):
            engine.integrate(_tables(), degraded_mode="off")
        assert _degraded(engine.integrate(_tables()))

    def test_fail_is_no_longer_a_mode(self):
        with pytest.raises(ValueError, match="degraded_mode"):
            FuzzyFDConfig(degraded_mode="fail")


class TestRecovery:
    def test_recovery_restores_byte_identical_results(self, clean_result, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder, degraded_mode="surface"))
        degraded = engine.integrate(_tables())
        assert _degraded(degraded)
        # The backend comes back: the next request matches with embeddings.
        down_embedder.down = False
        recovered = engine.integrate(_tables())
        assert recovered.table.columns == clean_result.table.columns
        assert recovered.table.rows == clean_result.table.rows
        assert recovered.table.provenance == clean_result.table.provenance
        assert _city_sets(recovered) == _city_sets(clean_result)
        assert not _degraded(recovered)

    def test_an_off_engine_serves_again_once_the_backend_is_back(self, clean_result, down_embedder):
        engine = IntegrationEngine(_config(embedder=down_embedder))
        with pytest.raises(EmbedderUnavailable):
            engine.integrate(_tables())
        down_embedder.down = False
        recovered = engine.integrate(_tables())
        assert recovered.table.rows == clean_result.table.rows
        assert engine.requests_served == 1
