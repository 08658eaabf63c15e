"""One blocked + ANN request, pinned value by value.

Everything between the embedder and the integrated table — surface keys,
int64 pair keys, the tiled exact similarity pass and its segmented top-k
kernel, component labelling, edge-filled cost matrices, assignment,
rewriting, FD — must keep returning exactly this: the same matches with the
same distance bits, the same blocking statistics, the same table.  The inputs
are the pipeline benchmark's ``lake_mixed`` tables under the ``scale`` preset
with one worker.

The pin follows the embedder's vectors and the candidate set, so it is
re-recorded — on its own, with every changed statistic listed in CHANGES.md —
when the embedder's ``revision`` is bumped (revision 2, the ±1 direction
family of ``docs/embeddings.md``) or the semantic channel's route changes
(last: the exact pass replacing the dense LSH probe at the default shape).
What a re-record may *not* change is checked by
``test_pinned_request_structure``.

They are built with 900 entities, not the benchmark's ``SMOKE`` 400: at 400
the columns hold 400 × 400 = 160 k cells, under the preset's 250 k
``blocking_cutoff``, so the dense matcher serves the request and every
``blocking_*`` statistic reads 0.  900 is the smallest round size at which the
blocked matcher engages.  The semantic channel no longer has a size at which
an index takes over under the preset: the default 8-table × 8-bit shape would
probe 28 % of the cells, so ``SemanticBlocker`` runs
:func:`~repro.matching.ann.scored_candidates` — one GEMM per block of left
rows, the surface keys scored and the exact top-k cut in the same pass — at
this and every other size (``ann_index_kind == "brute"``, no probe
candidates, no index build), and every component is solved from those edges.
The literal ``SMOKE`` request is pinned beside it (table digest only) so the
dense route of the same input cannot drift either.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def observe(lake_entities: int) -> dict:
    """Everything the pin compares, computed from the public engine (once per size)."""
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
        threshold = config.threshold
    return {
        "within_threshold": all(match.distance <= threshold for match in matches),
        "one_to_one": len({match.left for match in matches})
        == len({match.right for match in matches})
        == len(matches),
        "table_digest": workloads.table_digest(result.table),
        "rows_in_order": _sha(repr(row) for row in result.table.rows),
        "match_sets": _sha(
            repr((match_set.representative, match_set.members)) for match_set in matching.sets
        ),
        "blocking": {
            key: value for key, value in sorted(matching.statistics.items()) if key.startswith("block")
        },
        "ann_index_builds": matching.statistics["ann_index_builds"],
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


#: The ``blocking_*`` statistics a blocked request reports: a re-record may
#: change their values, never this set.
BLOCKING_KEYS = frozenset(
    {
        "blocked_assignments",
        "blocking_ann_pairs_added",
        "blocking_ann_pairs_duplicate",
        "blocking_ann_probe_candidates",
        "blocking_ann_skew_fallbacks",
        "blocking_component_size_1",
        "blocking_component_size_17-64",
        "blocking_component_size_2-4",
        "blocking_component_size_257-1024",
        "blocking_component_size_5-16",
        "blocking_component_size_65-256",
        "blocking_component_size_>1024",
        "blocking_components",
        "blocking_largest_component",
        "blocking_pairs_avoided",
        "blocking_pairs_scored",
        "blocking_skipped_keys",
    }
)

#: Recorded with the embedders at revision 2 (±1 directions) and the semantic
#: channel on the exact pass.  Against the values recorded at 9311ecd, when the
#: 8 × 8 LSH probe served this request, the exact top-k proposes more pairs:
#: ann_index_kind "lsh" -> "brute", ann_pairs_added 88 -> 97,
#: ann_pairs_duplicate 2 384 -> 2 875, ann_probe_candidates 259 252 -> 0 (no
#: probe runs), candidate pairs 21 266 -> 21 275; the match list, match sets,
#: rows and table digest follow (still 725 matches).  Every other statistic is
#: unchanged (1 component of 426 114 cells, 66 690 pairs avoided, 0 skipped
#: keys, 0 skew fallbacks, 2 assignments).  These are the parent's values with
#: its ``brute_force_cells`` cutoff lifted, except ``match_list``, which hashes
#: distance bits: the same 725 pairs, one distance 3.3e-16 apart (one GEMM
#: over the column pair instead of one per component).  ``rows_in_order`` was
#: re-recorded when the ``scale`` preset stopped naming a component-labelled
#: FD: its lists are short, so ``alite`` closes it whole, and the rows come in
#: the order the same request gave with ``fd_algorithm="alite"`` before
#: (``table_digest``, the rows as a set, unchanged).
PINNED_900: dict = {
    "within_threshold": True,
    "one_to_one": True,
    "table_digest": "954bbada8ff85edd8536d8dbc5588a80",
    "rows_in_order": "1f5dd1a03dc63fc96d8b9bc5ea4f60d602b8350f58f48539dbee90ca1a07260a",
    "match_sets": "8cd3d1290c3ef30f51282f495f8d3025e5bd5ee11fc2d454a73709bca56e3038",
    "blocking": {
        "blocked_assignments": 2.0,
        "blocking_ann_pairs_added": 97.0,
        "blocking_ann_pairs_duplicate": 2875.0,
        "blocking_ann_probe_candidates": 0.0,
        "blocking_ann_skew_fallbacks": 0.0,
        "blocking_component_size_1": 0.0,
        "blocking_component_size_17-64": 0.0,
        "blocking_component_size_2-4": 0.0,
        "blocking_component_size_257-1024": 0.0,
        "blocking_component_size_5-16": 0.0,
        "blocking_component_size_65-256": 0.0,
        "blocking_component_size_>1024": 1.0,
        "blocking_components": 1.0,
        "blocking_largest_component": 426114.0,
        "blocking_pairs_avoided": 66690.0,
        "blocking_pairs_scored": 426114.0,
        "blocking_skipped_keys": 0.0,
    },
    "ann_index_builds": 0.0,
    "matches": 725,
    "match_list": "eaadcff84bae458a1159fb1b38a1a5fe4ea6f541a0fa3bc8d33b59a71c6da21c",
    "pair_statistics": (
        21275,
        1,
        426114,
        426114,
        0,
        97,
        2875,
        "brute",
        0,
        "fee0eefbb1c21547cb0fe5dfc33764df124a113e1c46a8d35d8ac28d4098f482",
    ),
}

PINNED_SMOKE_TABLE_DIGEST = "4d14be46c6a656bf0d26862f146a26fc"


def test_pinned_request_structure():
    """What no re-record may change: the key set, >= 1 component, every match <= theta."""
    observed = observe(900)
    assert set(observed["blocking"]) == set(PINNED_900["blocking"]) == BLOCKING_KEYS
    assert observed["blocking"]["blocking_components"] >= 1.0
    assert observed["pair_statistics"][1] >= 1
    assert observed["within_threshold"] and observed["one_to_one"]
    assert 0 < observed["matches"] <= 900


def test_blocked_ann_request_is_pinned():
    observed = observe(900)
    # The pin is only worth something while the request takes the route it names.
    assert observed["blocking"]["blocked_assignments"] == 2.0
    assert observed["pair_statistics"][7] == "brute"
    assert observed == PINNED_900


def test_smoke_size_request_is_pinned():
    assert observe(workloads.SMOKE.lake_entities)["table_digest"] == PINNED_SMOKE_TABLE_DIGEST


if __name__ == "__main__":  # prints the values to paste above
    import pprint

    pprint.pprint(observe(900), width=100)
    print(observe(workloads.SMOKE.lake_entities)["table_digest"])
