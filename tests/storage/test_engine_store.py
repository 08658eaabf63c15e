"""Store-backed engine lifecycle: warm starts, embeddings-only store, result identity."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.core.value_matching import ValueMatcher
from repro.embeddings import MistralEmbedder
from repro.matching.ann import SemanticBlocker
from repro.storage import ArtifactStore, corpus_fingerprint, embedder_fingerprint
from repro.table import Table


class CountingEmbedder(MistralEmbedder):
    """MistralEmbedder that counts raw (uncached, unstored) embed calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.raw_embeds = 0

    def _embed_texts(self, texts):
        self.raw_embeds += len(texts)
        return super()._embed_texts(texts)


@pytest.fixture()
def tables():
    t1 = Table(
        "T1",
        ["City", "Country"],
        [("Berlinn", "Germany"), ("Toronto", "Canada"), ("Barcelona", "Spain")],
    )
    t2 = Table(
        "T2",
        ["City", "Country"],
        [("Berlin", "DE"), ("Toronto", "CA"), ("barcelona", "ES")],
    )
    return [t1, t2]


def _engine(store_dir, store_mode="readwrite", **knobs):
    config = FuzzyFDConfig(
        embedder=CountingEmbedder(),
        store_dir=str(store_dir) if store_dir is not None else None,
        store_mode=store_mode,
        **knobs,
    )
    return IntegrationEngine(config)


class TestWarmStart:
    def test_restarted_engine_makes_zero_raw_embed_calls(self, tmp_path, tables):
        cold = _engine(tmp_path / "store")
        cold_result = cold.integrate(tables)
        # One raw embed per distinct text: the warm zero below is measured by
        # a counter that is known to move.
        assert cold.embedder.raw_embeds == len(cold.embedding_cache) > 0
        assert cold_result.timings.get("store_published_rows", 0) == cold.embedder.raw_embeds

        warm = _engine(tmp_path / "store")
        warm_result = warm.integrate(tables)
        assert warm.embedder.raw_embeds == 0  # the acceptance criterion
        assert warm_result.table.rows == cold_result.table.rows
        # Every published row is read back, once: cold raw embeds == rows
        # published == warm store hits.
        assert warm_result.timings["cache_store_hits"] == cold.embedder.raw_embeds
        assert warm_result.timings["cache_misses"] == 0

    def test_second_concurrent_engine_attaches(self, tmp_path, tables):
        first = _engine(tmp_path / "store")
        first.integrate(tables)
        assert first.embedder.raw_embeds == len(first.embedding_cache) > 0
        # Not a restart: both engines alive, second attaches the first's
        # published segments at construction.
        second = _engine(tmp_path / "store")
        assert second.embedding_cache.cold_rows > 0
        second.integrate(tables)
        assert second.embedder.raw_embeds == 0

    def test_store_of_the_old_direction_family_misses(self, tmp_path, tables):
        """A store published before the embedder's revision bump is never served.

        ``embeddings/mistral.d256/`` is where revision 1 (the Gaussian
        direction family) published; the engine must attach nothing from it
        and publish its own vectors under ``mistral.d256.r2``.
        """
        store_dir = tmp_path / "store"
        texts = sorted({str(value) for table in tables for row in table.rows for value in row})
        stale = np.ones((len(texts), 256)) / 16.0
        old_fp = embedder_fingerprint("mistral", 256)
        assert old_fp == "mistral.d256"
        assert ArtifactStore(store_dir).save_embedding_segment(
            old_fp, corpus_fingerprint(texts), texts, stale
        )

        engine = _engine(store_dir)
        assert engine.embedding_cache.embedder_fp == "mistral.d256.r2"
        assert engine.embedding_cache.cold_rows == 0
        result = engine.integrate(tables)
        embedded = len(engine.embedding_cache)
        assert engine.embedder.raw_embeds == embedded > 0
        assert result.timings["cache_store_hits"] == 0
        assert result.timings["store_published_rows"] == embedded
        assert sorted(path.name for path in (store_dir / "embeddings").iterdir()) == [
            "mistral.d256",
            "mistral.d256.r2",
        ]
        restarted = _engine(store_dir)
        assert restarted.embedding_cache.cold_rows == embedded
        assert restarted.integrate(tables).table.rows == result.table.rows
        assert restarted.embedder.raw_embeds == 0

    def test_save_publishes_pending_embeddings(self, tmp_path):
        engine = _engine(tmp_path / "store")
        engine.embedder.embed("standalone value")  # outside any request
        assert engine.save() == {"embedding_rows": 1}
        assert engine.save() == {"embedding_rows": 0}  # idempotent
        restarted = _engine(tmp_path / "store")
        assert restarted.embedding_cache.cold_rows == 1

    def test_no_store_engine_unchanged(self, tables):
        engine = _engine(None, store_mode="off")
        assert engine.store is None
        assert engine.save() == {"embedding_rows": 0}
        assert engine.store_statistics() == {}
        result = engine.integrate(tables)
        assert "store_published_rows" not in result.timings


class TestResultIdentity:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4)])
    def test_store_on_off_cold_warm_identical(self, tmp_path, tables, backend, workers):
        knobs = dict(
            blocking="on",
            semantic_blocking="on",
            max_workers=workers,
            parallel_backend=backend,
        )
        baseline = _engine(None, store_mode="off", **knobs).integrate(tables)
        cold = _engine(tmp_path / "store", **knobs).integrate(tables)
        warm = _engine(tmp_path / "store", **knobs).integrate(tables)
        assert cold.table.rows == baseline.table.rows
        assert warm.table.rows == baseline.table.rows
        for group, matching in baseline.value_matching.items():
            assert cold.value_matching[group].sets == matching.sets
            assert warm.value_matching[group].sets == matching.sets


class TestStoreModeOverride:
    def test_read_override_suppresses_publication(self, tmp_path, tables):
        engine = _engine(tmp_path / "store")
        read_only = engine.integrate(tables, store_mode="read")
        assert engine.store_statistics()["segment_saves"] == 0
        assert "store_published_rows" not in read_only.timings
        # The next plain request runs readwrite again and publishes the
        # vectors the read-only request left pending.
        again = engine.integrate(tables)
        assert engine.store_statistics()["segment_saves"] == 1
        assert again.timings["store_published_rows"] > 0
        assert again.table.rows == read_only.table.rows

    def test_off_override_bypasses_matcher_store(self, tmp_path, tables):
        engine = _engine(tmp_path / "store", blocking="on", semantic_blocking="on")
        with_store = engine.integrate(tables)
        without = engine.integrate(tables, store_mode="off")
        assert without.table.rows == with_store.table.rows
        assert "store_published_rows" not in without.timings

    def test_store_mode_validated(self, tmp_path, tables):
        engine = _engine(tmp_path / "store")
        with pytest.raises(ValueError, match="store_mode"):
            engine.integrate(tables, store_mode="sideways")


#: An LSH shape sparse enough that the semantic channel takes the index route
#: (expected probe share 8 · 15 / 2^14 is below one pair per 100 cells).
LSH_KNOBS = dict(blocking="on", semantic_blocking="on", ann_bits=14)


def _tree(root):
    """Every path under ``root`` with the bytes of each file."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def _semantic_blocker(engine):
    return engine._matcher._blocked_matcher.semantic_blocker


class TestIndexRoutesStayInMemory:
    """The store holds embeddings only: the LSH route builds its codes per request."""

    @pytest.mark.parametrize("store_mode", ["readwrite", "read", "off"])
    def test_lsh_route_builds_in_memory_under_every_store_mode(self, tmp_path, tables, store_mode):
        baseline = _engine(None, store_mode="off", **LSH_KNOBS).integrate(tables)
        store_dir = tmp_path / "store"
        engine = _engine(store_dir, **LSH_KNOBS)
        pairs = sum(len(matching.column_order) - 1 for matching in baseline.value_matching.values())
        assert pairs > 0
        for _ in range(2):
            result = engine.integrate(tables, store_mode=store_mode)
            assert _semantic_blocker(engine).last_index_kind == "lsh"
            # One code matrix per side of every matched column pair, every request.
            assert result.timings["ann_index_builds"] == 2 * pairs
            assert result.table.rows == baseline.table.rows
            for group, matching in baseline.value_matching.items():
                assert result.value_matching[group].sets == matching.sets
        assert {path.name for path in store_dir.iterdir()} <= {"embeddings", ".tmp"}
        assert (store_dir / "embeddings").is_dir() == (store_mode == "readwrite")

    def test_store_mode_override_reuses_the_matcher(self, tmp_path, tables):
        engine = _engine(tmp_path / "store", **LSH_KNOBS)
        engine.integrate(tables)
        blocker = _semantic_blocker(engine)
        for store_mode in ("read", "off", "readwrite"):
            engine.integrate(tables, store_mode=store_mode)
            assert _semantic_blocker(engine) is blocker


    @pytest.mark.parametrize("component", [SemanticBlocker, ValueMatcher])
    def test_matching_components_take_no_store(self, component):
        assert "store" not in inspect.signature(component).parameters

    def test_off_override_still_serves_stored_vectors(self, tmp_path, tables):
        _engine(tmp_path / "store").integrate(tables)
        warm = _engine(tmp_path / "store")
        result = warm.integrate(tables, store_mode="off")
        # The cache tier is engine-level: "off" only skips publication.
        assert warm.embedder.raw_embeds == 0
        assert result.timings["cache_store_hits"] > 0
        assert "store_published_rows" not in result.timings

    def test_read_engine_never_publishes_even_when_asked(self, tmp_path, tables):
        engine = _engine(tmp_path / "store", store_mode="read")
        result = engine.integrate(tables, store_mode="readwrite")
        assert engine.embedder.raw_embeds > 0
        assert "store_published_rows" not in result.timings
        assert engine.store_statistics()["segment_saves"] == 0
        assert not (tmp_path / "store").exists()


class TestOldLayoutStillAttaches:
    """A store published before the index directories were dropped."""

    def test_index_directories_are_ignored(self, tmp_path, tables):
        store_dir = tmp_path / "store"
        cold = _engine(store_dir, **LSH_KNOBS)
        cold_result = cold.integrate(tables)
        assert cold.embedder.raw_embeds > 0
        embedder_fp = cold.embedding_cache.embedder_fp
        (corpus_fp,) = cold.store.list_embedding_segments(embedder_fp)
        # What the previous layout published next to the embedding segment.
        for kind, params, files in (
            ("ann", "t8.b8.s97", ("planes.npy", "codes.npy")),
            ("ivf", "i5.s97", ("centroids.npy", "assignments.npy")),
        ):
            directory = store_dir / kind / embedder_fp / params / corpus_fp
            directory.mkdir(parents=True)
            meta = {"format_version": 1, "kind": kind, "embedder": embedder_fp,
                    "params": params, "corpus": corpus_fp, "values": 3}
            (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
            for name in files:
                np.save(directory / name, np.zeros((2, 3)))
        before = {kind: _tree(store_dir / kind) for kind in ("ann", "ivf")}

        warm = _engine(store_dir, **LSH_KNOBS)
        warm_result = warm.integrate(tables)
        assert warm.embedder.raw_embeds == 0
        assert warm_result.timings["cache_misses"] == 0
        assert warm_result.table.rows == cold_result.table.rows
        statistics = warm.store.statistics()
        assert statistics["corrupt_entries"] == statistics["corrupt_segments"] == 0
        assert statistics["rejected_entries"] == 0
        assert not (store_dir / "quarantine").exists()
        assert {kind: _tree(store_dir / kind) for kind in ("ann", "ivf")} == before


class PoisonedEmbedder(CountingEmbedder):
    """Returns a NaN row for ``"Berlin"`` and an all-zero row for ``"Toronto"``
    until ``healed`` — a model that overflowed on one input and said nothing
    about another."""

    healed = False

    def _embed_texts(self, texts):
        rows = super()._embed_texts(texts)
        rows[[text == "Toronto" for text in texts]] = 0.0
        if not self.healed:
            rows[[text == "Berlin" for text in texts], 0] = np.nan
        return rows


class TestNonFiniteEmbeddings:
    """A non-finite row fails typed at the cache boundary on every route: it is
    never cached, never published, and never reaches the solver (dense route)
    or silently fails every comparison (scored edges)."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {},  # dense: one |A| x |B| assignment
            {"blocking": "on"},
            {"blocking": "on", "semantic_blocking": "on"},  # the exact pass embeds every value
        ],
        ids=["dense", "blocked", "blocked+semantic"],
    )
    def test_rejected_before_cache_and_store(self, tmp_path, tables, knobs):
        store_dir = tmp_path / "store"
        config = FuzzyFDConfig(
            embedder=PoisonedEmbedder(),
            store_dir=str(store_dir),
            store_mode="readwrite",
            **knobs,
        )
        engine = IntegrationEngine(config)
        with pytest.raises(ValueError, match="produced a non-finite embedding for 'Berlin'"):
            engine.integrate(tables)
        # Whatever healthy slabs went before it, the poisoned slab left nothing
        # behind — in this engine's cache, or (published by hand) for a restart.
        assert engine.embedding_cache.get("mistral", "Berlin") is None
        engine.save()
        restarted = _engine(store_dir)
        assert restarted.embedding_cache.get("mistral", "Berlin") is None
        assert np.isfinite(restarted.embedder.embed_many(["Berlinn", "Barcelona", "Germany"])).all()

        # Healed, the same engine serves the request; the all-zero row is at
        # distance 1 from everything, so "Toronto" only ever matches itself.
        engine.embedder.healed = True
        result = engine.integrate(tables)
        assert result.timings.get("store_published_rows", 0) > 0
        rewritten = {
            (old, new)
            for matching in result.value_matching.values()
            for match_set in matching.sets
            for _, old in match_set.members
            for new in [match_set.representative]
            if old != new
        }
        assert all("Toronto" not in pair for pair in rewritten)
        assert ("Berlinn", "Berlin") in rewritten or ("Berlin", "Berlinn") in rewritten
