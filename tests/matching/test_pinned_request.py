"""One blocked + ANN request, pinned against the values the parent commit produced.

The array-native candidate graph (int64 pair keys, segmented top-k kernel,
numpy component labelling) must return what the tuple-based code returned:
the same matches with the same distance bits, the same blocking statistics,
the same integrated table.  The inputs are the pipeline benchmark's
``lake_mixed`` tables under the ``scale`` preset with one worker.

They are built with 900 entities, not the benchmark's ``SMOKE`` 400: at 400
the columns hold 400 × 400 = 160 k cells, under the preset's 250 k
``blocking_cutoff``, so the dense matcher serves the request and every
``blocking_*`` statistic reads 0.  900 is the smallest round size at which the
blocked matcher engages *and* the remainder after exact matches is past the
semantic channel's 250 k ``brute_force_cells``, so the LSH probe and the top-k
kernel run too.  The literal ``SMOKE`` request is pinned beside it (table
digest only) so the dense route of the same input cannot drift either.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "pipeline"))

import workloads  # noqa: E402

from repro.core.config import FuzzyFDConfig  # noqa: E402
from repro.core.engine import IntegrationEngine  # noqa: E402
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker  # noqa: E402
from repro.matching.ann import SemanticBlocker  # noqa: E402

SEED = 13
ENTITY_COLUMN = "Entity"


def _sha(lines) -> str:
    state = hashlib.sha256()
    for line in lines:
        state.update(line.encode("utf-8"))
        state.update(b"\n")
    return state.hexdigest()


def observe(lake_entities: int) -> dict:
    """Everything the pin compares, computed from the public engine."""
    sizes = replace(workloads.SMOKE, lake_entities=lake_entities)
    workload = workloads.build("lake_mixed", SEED, sizes)
    tables = workload.requests[0]
    with IntegrationEngine(FuzzyFDConfig.preset(workload.preset)) as engine:
        result = engine.integrate(tables, **workload.overrides)
        (matching,) = result.value_matching.values()
        config = engine.config
        # The first column pair through the blocked matcher itself, built as
        # ValueMatcher builds it, for the raw match list and its statistics.
        matcher = BlockedValueMatcher(
            engine.embedder,
            threshold=config.threshold,
            solver=engine.solver,
            blocker=ValueBlocker(frequent_key_cap=config.blocking_key_cap),
            semantic_blocker=SemanticBlocker(
                engine.embedder,
                top_k=config.ann_top_k,
                n_tables=config.ann_tables,
                n_bits=config.ann_bits,
                min_similarity=max(0.0, 1.0 - config.threshold),
                ann_index=config.ann_index,
            ),
            semantic_mode=config.semantic_blocking,
        )
        left = tables[0].distinct_values(ENTITY_COLUMN)
        right = tables[1].distinct_values(ENTITY_COLUMN)
        matches = matcher.match_exact_first(left, right)
        statistics = matcher.last_statistics
    return {
        "table_digest": workloads.table_digest(result.table),
        "rows_in_order": _sha(repr(row) for row in result.table.rows),
        "match_sets": _sha(
            repr((match_set.representative, match_set.members)) for match_set in matching.sets
        ),
        "blocking": {
            key: value for key, value in sorted(matching.statistics.items()) if key.startswith("block")
        },
        "matches": len(matches),
        "match_list": _sha(
            f"{match.left!r}|{match.right!r}|{float(match.distance).hex()}" for match in matches
        ),
        "pair_statistics": (
            statistics.candidate_pairs,
            statistics.components,
            statistics.largest_component,
            statistics.pairs_scored,
            statistics.skipped_keys,
            statistics.ann_pairs_added,
            statistics.ann_pairs_duplicate,
            statistics.ann_index_kind,
            statistics.ann_probe_candidates,
            _sha(str(cells) for cells in statistics.component_cells),
        ),
    }


#: Recorded at 6592c57 (the parent of the array-native candidate graph).
PINNED_900: dict = {
    "table_digest": "db00d2381cfa929e954d993c3eccad9a",
    "rows_in_order": "e38acd672ec4b8b22de979b66c6637a27fdf07ecd88e98b9d8d404e652d4e999",
    "match_sets": "d55ad3ca74a11d2ae3efcfb4b9bd7153a80d75d6616e439647efc4298ec6c3f2",
    "blocking": {
        "blocked_assignments": 2.0,
        "blocking_ann_pairs_added": 72.0,
        "blocking_ann_pairs_duplicate": 2427.0,
        "blocking_ann_probe_candidates": 257868.0,
        "blocking_ann_skew_fallbacks": 0.0,
        "blocking_component_size_1": 0.0,
        "blocking_component_size_17-64": 0.0,
        "blocking_component_size_2-4": 0.0,
        "blocking_component_size_257-1024": 0.0,
        "blocking_component_size_5-16": 0.0,
        "blocking_component_size_65-256": 0.0,
        "blocking_component_size_>1024": 1.0,
        "blocking_components": 1.0,
        "blocking_largest_component": 427518.0,
        "blocking_pairs_avoided": 65286.0,
        "blocking_pairs_scored": 427518.0,
        "blocking_skipped_keys": 0.0,
    },
    "matches": 723,
    "match_list": "da1254bd0d619fdfbedfba3024071d44133daa13a5d7cf4fb6b3d8afa252bc04",
    "pair_statistics": (
        21250,
        1,
        427518,
        427518,
        0,
        72,
        2427,
        "lsh",
        257868,
        "c5cc37a19a2afcb48f2b65343e721142c81fe8c3aa1ea84b96e5ea54bbbb677f",
    ),
}

PINNED_SMOKE_TABLE_DIGEST = "963588e3ac0c70b15b65cb12ac9265e8"


def test_blocked_ann_request_is_pinned():
    observed = observe(900)
    # The pin is only worth something while the request takes the route it names.
    assert observed["blocking"]["blocked_assignments"] == 2.0
    assert observed["pair_statistics"][7] == "lsh"
    assert observed == PINNED_900


def test_smoke_size_request_is_pinned():
    assert observe(workloads.SMOKE.lake_entities)["table_digest"] == PINNED_SMOKE_TABLE_DIGEST


if __name__ == "__main__":  # prints the values to paste above
    import pprint

    pprint.pprint(observe(900), width=100)
    print(observe(workloads.SMOKE.lake_entities)["table_digest"])
