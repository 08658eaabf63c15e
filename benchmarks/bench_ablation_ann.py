"""Ablation ``abl-ann`` — the semantic ANN blocking channel, measured.

Surface blocking keys (n-grams, token prefixes) cannot propose a candidate
pair whose two strings share no characters — the out-of-lexicon synonym and
abbreviation joins that embedding-distance matching exists to resolve.  The
:class:`~repro.matching.ann.SemanticBlocker` adds a semantic candidate channel
over the value embeddings (an exact tiled top-k at the default shape, an LSH /
IVF index from 14 hash bits); this benchmark records what that channel buys
and what it costs, in five sections:

1. **Synonym recall**: a planted vocabulary of surface-*disjoint* synonym
   pairs (left forms drawn from one alphabet half, right forms from the
   other, anchored to shared concepts in a custom lexicon).  Surface-only
   blocking finds zero candidates by construction; the semantic channel must
   recover the planted pairs while scoring far fewer cells than the dense
   cross product.
2. **top-k sweep**: the recall-vs-pairs-scored trade-off as ``ann_top_k``
   grows — the curve that guides tuning.
3. **Mixed corruption**: half typo pairs (surface-blockable), half synonym
   pairs (surface-invisible), built with :class:`~repro.datasets.corruptions.
   Corruptor`.  Shows the *union* at work: the surface channel carries the
   typos, the ANN channel adds the synonyms, and the duplicate counter shows
   their overlap.  ``off`` / ``auto`` / ``on`` modes are compared.
4. **Probe speedup**: the vectorised LSH probe
   (:meth:`~repro.matching.ann.SemanticBlocker._probe_direction`) against the
   retired per-query Python loop (kept as
   :func:`~repro.matching.ann._probe_direction_reference`), on seeded random
   unit vectors so the measurement isolates the probe phase from embedding
   and matching.  Candidate pairs are asserted identical, and at full scale
   (10k x 10k values) the speedup is asserted >= 5x.  The section also
   records ``floor_seconds`` and ``end_to_end_seconds`` — the committed
   times ``--check-floor PATH`` compares a fresh run against (exit 1 when the
   probe, or probe + similarities + top-k, regresses more than 2x), which CI
   runs before regenerating the JSON.
5. **Exact vs index**: the tiled exact pass
   (:func:`~repro.matching.ann.scored_candidates`) against the LSH index at
   8 / 12 / 16 bits on seeded unit vectors with planted neighbours — seconds,
   and the index's recall of the exact top-k pairs — the table behind
   ``SemanticBlocker``'s routing rule (docs/architecture.md, knob ledger).
   Its assertion is an identity, not a time: the exact pass returns
   ``_brute_force_reference``'s pairs (also checked by ``--check-floor``).

Results land in ``BENCH_ann.json`` (CI uploads it as an artifact next to
``BENCH_parallel.json``).  Run with ``python benchmarks/bench_ablation_ann.py``
(``--smoke`` for a small CI run, ``--output PATH`` for the JSON location,
``--check-floor PATH`` for the CI regression guard).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.datasets.corruptions import Corruptor
from repro.embeddings.lexicon import SemanticLexicon
from repro.embeddings.transformer import SimulatedTransformerEmbedder
from repro.evaluation import format_markdown_table
from repro.matching.ann import (
    SemanticBlocker,
    _brute_force_reference,
    _probe_candidates_reference,
    _probe_direction_reference,
    pairs_from_keys,
    scored_candidates,
)
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker

DEFAULT_OUTPUT = "BENCH_ann.json"

#: Alphabet halves used to make left/right surface forms share no characters
#: (no common 3-grams, no common token prefixes → zero surface candidates).
LEFT_ALPHABET = "abcdefghijklm"
RIGHT_ALPHABET = "nopqrstuvwxyz"


# ---------------------------------------------------------------------------------
# synthetic workloads
# ---------------------------------------------------------------------------------


def _word(rng: random.Random, alphabet: str, length: int = 6) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def synonym_vocabulary(
    n_pairs: int, seed: int = 5, tokens: int = 2
) -> Tuple[List[str], List[str], SemanticLexicon]:
    """``n_pairs`` surface-disjoint synonym pairs plus the lexicon anchoring them.

    Each concept gets one multi-token left form (letters a–m) and one
    multi-token right form (letters n–z): same concept, zero shared
    characters.  Multi-token forms keep the embedder's canonicalisation from
    collapsing the pair to one string, so their cosine similarity stays in
    the moderate (~0.6) regime that actually exercises the LSH index.
    """
    rng = random.Random(seed)
    groups: Dict[str, List[str]] = {}
    left: List[str] = []
    right: List[str] = []
    seen: Set[str] = set()
    while len(left) < n_pairs:
        left_form = " ".join(_word(rng, LEFT_ALPHABET) for _ in range(tokens))
        right_form = " ".join(_word(rng, RIGHT_ALPHABET) for _ in range(tokens))
        if left_form in seen or right_form in seen:
            continue
        seen.add(left_form)
        seen.add(right_form)
        # The left form doubles as the concept id, so each concept has
        # exactly the two planted surface forms (the id would otherwise be
        # a third form the Corruptor could pick as the "synonym").
        groups[left_form] = [right_form]
        left.append(left_form)
        right.append(right_form)
    return left, right, SemanticLexicon(groups)


def corruption_workload(
    n_pairs: int, seed: int = 9
) -> Tuple[List[str], List[str], SemanticLexicon]:
    """Half typo-corrupted pairs, half surface-disjoint synonym pairs.

    The synonym half reuses :func:`synonym_vocabulary`; the right forms are
    produced by running :class:`~repro.datasets.corruptions.Corruptor`'s
    ``"synonym"`` kind against the same lexicon, so the workload is exactly
    the abbreviation/synonym corruption class the datasets package models.
    """
    n_synonyms = n_pairs // 2
    syn_left, _, lexicon = synonym_vocabulary(n_synonyms, seed=seed)
    corruptor = Corruptor(lexicon=lexicon, seed=seed)
    syn_right = [corruptor.corrupt(value, "synonym") for value in syn_left]

    # Typo values are single 12-character tokens over a wide alphabet: long
    # enough that unrelated values rarely share a sampled n-gram (components
    # stay near-singleton, as in the parallel ablation's workload) while a
    # one-edit typo still shares most of its surface with the original.
    rng = random.Random(seed + 1)
    typo_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    typo_left: List[str] = []
    typo_right: List[str] = []
    seen: Set[str] = set(syn_left) | set(syn_right)
    while len(typo_left) < n_pairs - n_synonyms:
        value = _word(rng, typo_alphabet, 12)
        if value in seen:
            continue
        seen.add(value)
        typo_left.append(value)
        typo_right.append(corruptor.corrupt(value, "typo", rng))
    return syn_left + typo_left, syn_right + typo_right, lexicon


def bench_embedder(lexicon: SemanticLexicon) -> SimulatedTransformerEmbedder:
    """A full-coverage simulated embedder anchored to the workload's lexicon.

    Full coverage removes the embedder's own knowledge gaps from the
    measurement, so the recall numbers isolate what *blocking* loses or
    recovers rather than what the model doesn't know.
    """
    return SimulatedTransformerEmbedder(
        model_name="ann_bench", lexicon_coverage=1.0, noise_level=0.16, lexicon=lexicon
    )


def matched_recall(matches: Sequence, planted: Set[Tuple[str, str]]) -> float:
    """Share of planted ``(left, right)`` pairs the matcher actually matched."""
    found = {(match.left, match.right) for match in matches}
    return len(found & planted) / len(planted) if planted else 0.0


def _run_matcher(
    embedder: SimulatedTransformerEmbedder,
    left: Sequence[str],
    right: Sequence[str],
    planted: Set[Tuple[str, str]],
    semantic_blocker: SemanticBlocker = None,
    semantic_mode: str = "on",
) -> Dict[str, object]:
    """One blocked-matching run; returns recall + the cost counters."""
    # 5-grams keep accidental collisions between unrelated random values rare
    # (the same setting the parallel ablation uses), so the surface channel's
    # pairs_scored reflects real shared surface, not gram-space saturation.
    matcher = BlockedValueMatcher(
        embedder,
        threshold=0.7,
        blocker=ValueBlocker(ngram_size=5, use_lexicon=False),
        semantic_blocker=semantic_blocker,
        semantic_mode=semantic_mode,
    )
    matches = matcher.match(list(left), list(right))
    statistics = matcher.last_statistics
    return {
        "recall": matched_recall(matches, planted),
        "accepted_matches": len(matches),
        "candidate_pairs": statistics.candidate_pairs,
        "pairs_scored": statistics.pairs_scored,
        "ann_pairs_added": statistics.ann_pairs_added,
        "ann_pairs_duplicate": statistics.ann_pairs_duplicate,
        "largest_component": statistics.largest_component,
    }


# ---------------------------------------------------------------------------------
# section 1: planted synonym recall, surface vs surface ∪ semantic
# ---------------------------------------------------------------------------------


def run_synonym_recall_benchmark(
    n_pairs: int = 1500, top_k: int = 5, seed: int = 5
) -> Dict[str, object]:
    """The headline claim: ANN recovers what surface blocking cannot see.

    The default 8 x 8 shape runs the exact pass at every size (``used_lsh``
    records which route ran), so smoke and full-scale runs measure the same
    route; section 5 measures the index against it.
    """
    left, right, lexicon = synonym_vocabulary(n_pairs, seed=seed)
    planted = set(zip(left, right))
    embedder = bench_embedder(lexicon)
    embedder.embed_many(left)
    embedder.embed_many(right)

    surface_only = _run_matcher(embedder, left, right, planted)
    semantic_blocker = SemanticBlocker(embedder, top_k=top_k, min_similarity=0.3)
    semantic = _run_matcher(
        embedder, left, right, planted, semantic_blocker=semantic_blocker
    )
    dense_cells = len(left) * len(right)
    return {
        "n_pairs": n_pairs,
        "top_k": top_k,
        "dense_cells": dense_cells,
        "used_lsh": semantic_blocker.last_used_lsh,
        "surface": surface_only,
        "semantic": semantic,
        "recall_gain": semantic["recall"] - surface_only["recall"],
        "scored_share_of_dense": (
            semantic["pairs_scored"] / dense_cells if dense_cells else 0.0
        ),
    }


# ---------------------------------------------------------------------------------
# section 2: recall vs pairs scored as top-k grows
# ---------------------------------------------------------------------------------


def run_top_k_sweep(
    n_pairs: int = 1500, top_ks: Sequence[int] = (1, 2, 5, 10), seed: int = 5
) -> List[Dict[str, object]]:
    """The recall-vs-cost curve of the semantic channel."""
    left, right, lexicon = synonym_vocabulary(n_pairs, seed=seed)
    planted = set(zip(left, right))
    embedder = bench_embedder(lexicon)
    embedder.embed_many(left)
    embedder.embed_many(right)

    rows: List[Dict[str, object]] = []
    for top_k in top_ks:
        semantic_blocker = SemanticBlocker(embedder, top_k=top_k, min_similarity=0.3)
        run = _run_matcher(
            embedder, left, right, planted, semantic_blocker=semantic_blocker
        )
        rows.append(
            {
                "top_k": top_k,
                "recall": run["recall"],
                "pairs_scored": run["pairs_scored"],
                "ann_pairs_added": run["ann_pairs_added"],
                "used_lsh": semantic_blocker.last_used_lsh,
            }
        )
    return rows


# ---------------------------------------------------------------------------------
# section 3: mixed corruptions — the union of both channels
# ---------------------------------------------------------------------------------


def run_mixed_corruption_benchmark(n_pairs: int = 1000, seed: int = 9) -> Dict[str, object]:
    """Typos ride the surface keys, synonyms ride the ANN channel.

    ``auto`` must land between ``off`` and ``on`` in cost while matching
    ``on``'s recall here: the synonym half leaves values uncovered, which is
    exactly the signal ``auto`` keys on.
    """
    left, right, lexicon = corruption_workload(n_pairs, seed=seed)
    planted = set(zip(left, right))
    embedder = bench_embedder(lexicon)
    embedder.embed_many(left)
    embedder.embed_many(right)

    runs: Dict[str, Dict[str, object]] = {}
    runs["off"] = _run_matcher(embedder, left, right, planted)
    for mode in ("auto", "on"):
        runs[mode] = _run_matcher(
            embedder,
            left,
            right,
            planted,
            semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3),
            semantic_mode=mode,
        )
    return {
        "n_pairs": n_pairs,
        "dense_cells": len(left) * len(right),
        "modes": runs,
    }


# ---------------------------------------------------------------------------------
# section 4: vectorised probe vs the retired Python loop (+ the CI floor guard)
# ---------------------------------------------------------------------------------


def _unit_vectors(rng: np.random.Generator, n_values: int, dimension: int) -> np.ndarray:
    vectors = rng.standard_normal((n_values, dimension))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def run_probe_speedup_benchmark(
    n_values: int = 10_000,
    dimension: int = 64,
    n_bits: int = 12,
    top_k: int = 5,
    seed: int = 31,
    include_reference: bool = True,
) -> Dict[str, object]:
    """Tentpole measurement: the vectorised probe vs the per-query loop.

    Seeded random unit vectors stand in for embeddings — the probe phase only
    sees vectors and hash codes, so synthetic inputs measure exactly the code
    that changed while keeping the workload reproducible.  ``n_bits=12``
    because bucket granularity must scale with the corpus: the blocker's
    8-bit default (256 buckets) is tuned for the few-thousand-value columns
    the matcher sees, and at 10k values it collapses to ~40 values per
    bucket — a degenerate index where *any* implementation spends its time on
    the quarter-of-the-cross-product candidate volume rather than on probing.
    4096 buckets is the granularity one would configure at this scale.

    Two measurements: the **probe phase** (bucket lookup to deduplicated
    candidate pairs — the pure-Python hot path this PR vectorised, and the
    acceptance claim's >= 5x at full scale) and **end to end** (probe plus
    the similarity/top-k cut: block similarities and a segmented top-k
    against the loop's matvec and argsort per query).  The vectorised times
    are the best of three runs (the floor should not record a cold-cache
    outlier); the reference loop runs once.  Candidate pairs are
    asserted byte-identical at both levels.  ``include_reference=False``
    skips the loops and the identity/speedup assertions — the mode the
    ``--check-floor`` guard uses, which only needs the vectorised wall-clocks.
    """
    rng = np.random.default_rng(seed)
    query_vectors = _unit_vectors(rng, n_values, dimension)
    index_vectors = _unit_vectors(rng, n_values, dimension)
    blocker = SemanticBlocker(
        SimulatedTransformerEmbedder(model_name="probe_bench"),
        top_k=top_k,
        n_bits=n_bits,
        min_similarity=0.3,
    )
    planes = blocker._hyperplanes(dimension)
    query_codes = blocker._codes(query_vectors, planes)
    index_codes = blocker._codes(index_vectors, planes)

    vectorised_seconds = end_to_end_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        query_ids, candidate_ids = blocker._probe_candidates(query_codes, index_codes)
        vectorised_seconds = min(vectorised_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        vectorised_keys = blocker._probe_direction(
            query_vectors, query_codes, index_vectors, index_codes
        )
        end_to_end_seconds = min(end_to_end_seconds, time.perf_counter() - start)

    result: Dict[str, object] = {
        "n_values": n_values,
        "dimension": dimension,
        "top_k": top_k,
        "n_tables": blocker.n_tables,
        "n_bits": n_bits,
        "candidate_pairs": int(len(query_ids)),
        "vectorised_seconds": vectorised_seconds,
        # Probe + similarities + segmented top-k: what a column pair pays.
        "end_to_end_seconds": end_to_end_seconds,
        # The committed perf floor --check-floor compares against.  Clamped
        # so sub-quarter-second runs don't produce a floor that normal
        # machine-to-machine variance would trip.
        "floor_seconds": max(vectorised_seconds, 0.25),
    }
    if include_reference:
        start = time.perf_counter()
        reference_query_ids, reference_candidate_ids = _probe_candidates_reference(
            query_codes, index_codes, n_tables=blocker.n_tables, n_bits=n_bits
        )
        reference_seconds = time.perf_counter() - start
        assert np.array_equal(query_ids, reference_query_ids) and np.array_equal(
            candidate_ids, reference_candidate_ids
        ), "vectorised probe candidates diverged from the reference loop"
        speedup = (
            reference_seconds / vectorised_seconds if vectorised_seconds else float("inf")
        )

        start = time.perf_counter()
        reference_pairs = _probe_direction_reference(
            query_vectors,
            query_codes,
            index_vectors,
            index_codes,
            n_tables=blocker.n_tables,
            n_bits=n_bits,
            top_k=top_k,
            min_similarity=blocker.min_similarity,
        )
        reference_end_to_end_seconds = time.perf_counter() - start
        assert set(pairs_from_keys(vectorised_keys, n_values)) == reference_pairs, (
            "vectorised top-k pairs diverged from the reference loop"
        )

        result["reference_seconds"] = reference_seconds
        result["speedup"] = speedup
        result["reference_end_to_end_seconds"] = reference_end_to_end_seconds
        result["end_to_end_speedup"] = (
            reference_end_to_end_seconds / end_to_end_seconds
            if end_to_end_seconds
            else float("inf")
        )
        result["identical_pairs"] = True
        if n_values >= 10_000:
            # The acceptance claim at full scale.
            assert speedup >= 5.0, (
                f"probe speedup {speedup:.1f}x below the 5x acceptance floor"
            )
    return result


# ---------------------------------------------------------------------------------
# section 5: the exact tiled pass vs the LSH index (the routing rule's evidence)
# ---------------------------------------------------------------------------------

#: Index configurations expected to expand more probe pairs than this are
#: skipped (recorded as such): 8 bits at 10 000 x 10 000 is 28 M pairs per
#: direction — over a gigabyte of int64 scratch to learn that it is slow.
MAX_EXPECTED_PROBE_PAIRS = 10_000_000


def _planted_sides(n_values: int, dimension: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unit vectors; half of the right side is a left vector plus noise (cosine ~ 0.7)."""
    rng = np.random.default_rng(seed)
    left = _unit_vectors(rng, n_values, dimension)
    right = _unit_vectors(rng, n_values, dimension)
    planted = n_values // 2
    noisy = left[:planted] + rng.standard_normal((planted, dimension)) / np.sqrt(dimension)
    right[:planted] = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
    return left, right


def _exact_keys(left: np.ndarray, right: np.ndarray, top_k: int, floor: float) -> np.ndarray:
    return scored_candidates(left, right, np.empty(0, dtype=np.int64), top_k, floor)[0]


def assert_exact_pass_identity(
    n_values: int = 600, dimension: int = 64, top_k: int = 5, floor: float = 0.3, seed: int = 43
) -> bool:
    """The section's guard: the exact pass == the row/column-loop oracle."""
    left, right = _planted_sides(n_values, dimension, seed)
    exact = set(pairs_from_keys(_exact_keys(left, right, top_k, floor), n_values))
    reference = _brute_force_reference(left, right, top_k=top_k, min_similarity=floor)
    assert exact == reference, "the exact pass diverged from _brute_force_reference"
    return True


def run_exact_vs_index_benchmark(
    sizes: Sequence[int] = (1700, 5000, 10_000),
    bits: Sequence[int] = (8, 12, 16),
    dimension: int = 256,
    top_k: int = 5,
    floor: float = 0.3,
    seed: int = 43,
) -> Dict[str, object]:
    """Seconds of the exact pass and of the LSH route, and the index's recall.

    Best of three for the exact pass, one run per index configuration; the
    index is forced (``brute_force_cells=0``) with the skew fallback off, on
    the same vectors.  Recall is the share of the exact top-k pairs the index
    also returns — the exact pass is the ground truth it approximates.
    """
    rows: List[Dict[str, object]] = []
    for n_values in sizes:
        left, right = _planted_sides(n_values, dimension, seed)
        exact_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            exact = _exact_keys(left, right, top_k, floor)
            exact_seconds = min(exact_seconds, time.perf_counter() - start)
        row: Dict[str, object] = {
            "n_values": n_values,
            "exact_seconds": exact_seconds,
            "exact_pairs": int(len(exact)),
            "index": {},
        }
        for n_bits in bits:
            blocker = SemanticBlocker(
                SimulatedTransformerEmbedder(model_name="probe_bench"),
                top_k=top_k,
                n_bits=n_bits,
                min_similarity=floor,
                brute_force_cells=0,
                skew_threshold=1.0,
            )
            expected = blocker.n_tables * (n_bits + 1) / 2**n_bits * n_values * n_values
            if expected > MAX_EXPECTED_PROBE_PAIRS:
                row["index"][str(n_bits)] = {"skipped_expected_probe_pairs": int(expected)}
                continue
            start = time.perf_counter()
            keys = blocker._indexed_pairs(left, right)
            seconds = time.perf_counter() - start
            found = np.intersect1d(keys, exact, assume_unique=True)
            row["index"][str(n_bits)] = {
                "seconds": seconds,
                "pairs": int(len(keys)),
                "recall": len(found) / len(exact) if len(exact) else 1.0,
                "runs_exact_by_default": SemanticBlocker(
                    blocker.embedder, n_bits=n_bits
                )._runs_exact(n_values, n_values),
            }
        rows.append(row)
    return {
        "dimension": dimension,
        "top_k": top_k,
        "floor": floor,
        "identical_to_reference": assert_exact_pass_identity(top_k=top_k, floor=floor),
        "rows": rows,
    }


def check_floor(path: str) -> int:
    """CI guard: 1 if the probe, or probe + top-k, regressed >2x vs the committed
    times; raises if the exact pass no longer equals its oracle."""
    committed = json.loads(Path(path).read_text(encoding="utf-8"))
    probe = committed.get("probe_speedup")
    if not isinstance(probe, dict) or "floor_seconds" not in probe:
        print(f"{path} has no probe_speedup floor; nothing to check")
        return 0
    current = run_probe_speedup_benchmark(
        n_values=int(probe["n_values"]),
        dimension=int(probe.get("dimension", 64)),
        n_bits=int(probe.get("n_bits", 12)),
        top_k=int(probe.get("top_k", 5)),
        include_reference=False,
    )
    status = 0
    # Clamped like floor_seconds: a committed time under a quarter second
    # would make the 2x limit narrower than this box's run-to-run spread.
    for label, key, committed_key in (
        ("probe", "vectorised_seconds", "floor_seconds"),
        ("probe + top-k", "end_to_end_seconds", "end_to_end_seconds"),
    ):
        if committed_key not in probe:
            continue
        floor = max(float(probe[committed_key]), 0.25)
        limit = 2.0 * floor
        seconds = float(current[key])
        print(
            f"{label} floor check at {probe['n_values']:,} values: {seconds:.3f}s current "
            f"vs {floor:.3f}s committed floor (limit {limit:.3f}s)"
        )
        if seconds > limit:
            print(f"FAIL: {label} regressed more than 2x vs the committed floor")
            status = 1
    if not status:
        print("OK: within the floor")
    # Not a time: the exact pass must return the loop oracle's pairs.
    assert_exact_pass_identity()
    print("OK: exact pass == _brute_force_reference")
    return status


# ---------------------------------------------------------------------------------
# reports + JSON
# ---------------------------------------------------------------------------------


def report(results: Dict[str, object]) -> str:
    recall = results["synonym_recall"]
    sweep = results["top_k_sweep"]
    mixed = results["mixed_corruption"]
    probe = results["probe_speedup"]
    exact = results["exact_vs_index"]
    exact_bits = list(exact["rows"][0]["index"]) if exact["rows"] else []
    lines = [
        "",
        "Ablation — semantic ANN blocking channel",
        "",
        (
            f"Planted synonym recall ({recall['n_pairs']:,} surface-disjoint pairs, "
            f"{'LSH' if recall['used_lsh'] else 'brute-force'} path): "
            f"surface-only {recall['surface']['recall']:.2f} -> "
            f"surface ∪ semantic {recall['semantic']['recall']:.2f} recall, "
            f"{recall['semantic']['pairs_scored']:,} of {recall['dense_cells']:,} "
            f"dense cells scored "
            f"({100.0 * recall['scored_share_of_dense']:.2f}%)"
        ),
        "",
        "Recall vs pairs scored as ann_top_k grows:",
        "",
        format_markdown_table(
            ["top_k", "Recall", "Pairs scored", "ANN pairs added", "LSH"],
            [
                [
                    row["top_k"],
                    f"{row['recall']:.2f}",
                    f"{row['pairs_scored']:,}",
                    f"{row['ann_pairs_added']:,}",
                    str(bool(row["used_lsh"])),
                ]
                for row in sweep
            ],
        ),
        "",
        (
            f"Mixed corruption workload ({mixed['n_pairs']:,} pairs: half typos, "
            f"half surface-disjoint synonyms; dense = {mixed['dense_cells']:,} cells):"
        ),
        "",
        format_markdown_table(
            ["semantic_blocking", "Recall", "Pairs scored", "ANN added", "ANN duplicate"],
            [
                [
                    mode,
                    f"{run['recall']:.2f}",
                    f"{run['pairs_scored']:,}",
                    f"{run['ann_pairs_added']:,}",
                    f"{run['ann_pairs_duplicate']:,}",
                ]
                for mode, run in mixed["modes"].items()
            ],
        ),
        "",
        (
            f"Vectorised probe ({probe['n_values']:,} x {probe['n_values']:,} values, "
            f"dim {probe['dimension']}, {probe['n_tables']} tables x "
            f"{probe['n_bits']} bits): probe phase {probe['reference_seconds']:.2f}s "
            f"Python loop -> {probe['vectorised_seconds']:.3f}s vectorised "
            f"({probe['speedup']:.1f}x); end to end "
            f"{probe['reference_end_to_end_seconds']:.2f}s -> "
            f"{probe['end_to_end_seconds']:.2f}s "
            f"({probe['end_to_end_speedup']:.1f}x); identical pairs: "
            f"{bool(probe['identical_pairs'])}; committed floor "
            f"{probe['floor_seconds']:.3f}s"
        ),
        "",
        (
            f"Exact tiled pass vs the LSH index (dim {exact['dimension']}, top_k "
            f"{exact['top_k']}, floor {exact['floor']}; seconds / recall of the exact "
            f"pairs; exact == reference: {bool(exact['identical_to_reference'])}):"
        ),
        "",
        format_markdown_table(
            ["values", "exact pass"] + [f"LSH {bits} bits" for bits in exact_bits],
            [
                [f"{row['n_values']:,}", f"{row['exact_seconds']:.3f}s"]
                + [_index_cell(row["index"][bits]) for bits in exact_bits]
                for row in exact["rows"]
            ],
        ),
    ]
    return "\n".join(lines)


def _index_cell(run: Dict[str, object]) -> str:
    if "seconds" not in run:
        return f"skipped ({run['skipped_expected_probe_pairs']:,} probe pairs)"
    return f"{run['seconds']:.3f}s / {run['recall']:.2f}"


def run_all(
    n_pairs: int = 1500,
    mixed_pairs: int = 1000,
    top_ks: Sequence[int] = (1, 2, 5, 10),
    probe_values: int = 10_000,
    exact_values: Sequence[int] = (1700, 5000, 10_000),
) -> Dict[str, object]:
    """Run every section at the given scale (the JSON payload)."""
    return {
        "benchmark": "abl-ann",
        "n_pairs": n_pairs,
        "synonym_recall": run_synonym_recall_benchmark(n_pairs=n_pairs),
        "top_k_sweep": run_top_k_sweep(n_pairs=n_pairs, top_ks=list(top_ks)),
        "mixed_corruption": run_mixed_corruption_benchmark(n_pairs=mixed_pairs),
        "probe_speedup": run_probe_speedup_benchmark(n_values=probe_values),
        "exact_vs_index": run_exact_vs_index_benchmark(sizes=list(exact_values)),
    }


def write_json(results: Dict[str, object], path: str = DEFAULT_OUTPUT) -> Path:
    """Persist the benchmark payload (the CI artifact)."""
    output = Path(path)
    output.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    return output


# ---------------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------------


def test_synonym_recall(benchmark):
    recall = benchmark.pedantic(
        run_synonym_recall_benchmark, kwargs={"n_pairs": 1500}, rounds=1, iterations=1
    )
    # The acceptance claim: strict recall improvement at sub-dense cost.
    assert recall["semantic"]["recall"] > recall["surface"]["recall"]
    assert recall["semantic"]["pairs_scored"] < recall["dense_cells"]
    assert not recall["used_lsh"]  # the default shape routes to the exact pass


def test_exact_pass_equals_reference(benchmark):
    exact = benchmark.pedantic(
        run_exact_vs_index_benchmark, kwargs={"sizes": (800,)}, rounds=1, iterations=1
    )
    assert exact["identical_to_reference"]
    assert all(0.0 < run["recall"] <= 1.0 for run in exact["rows"][0]["index"].values())


def test_probe_speedup(benchmark):
    probe = benchmark.pedantic(
        run_probe_speedup_benchmark, kwargs={"n_values": 2000}, rounds=1, iterations=1
    )
    # Byte-identity always holds; the 5x floor is asserted inside the run at
    # full scale only (smoke scale under-rewards vectorisation).
    assert probe["identical_pairs"]
    assert probe["speedup"] > 1.0


def test_mixed_corruption_modes(benchmark):
    mixed = benchmark.pedantic(
        run_mixed_corruption_benchmark, kwargs={"n_pairs": 600}, rounds=1, iterations=1
    )
    modes = mixed["modes"]
    assert modes["on"]["recall"] > modes["off"]["recall"]
    assert modes["auto"]["recall"] > modes["off"]["recall"]
    assert modes["on"]["pairs_scored"] < mixed["dense_cells"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small, CI-friendly run (hundreds of values)"
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON payload"
    )
    parser.add_argument(
        "--check-floor",
        metavar="PATH",
        default=None,
        help=(
            "compare a fresh vectorised-probe run against the committed floor in "
            "PATH and exit 1 on a >2x regression (writes nothing)"
        ),
    )
    arguments = parser.parse_args()
    if arguments.check_floor:
        raise SystemExit(check_floor(arguments.check_floor))
    if arguments.smoke:
        payload = run_all(
            n_pairs=200, mixed_pairs=160, top_ks=(1, 5), probe_values=2000, exact_values=(800,)
        )
    else:
        payload = run_all()
    print(report(payload))
    destination = write_json(payload, arguments.output)
    print(f"\nwrote {destination}")
