"""The paper's experiments and their ablations, behind ``repro benchmark``.

Table 1 (:func:`run_table1_experiment`), Sec. 3.2's downstream entity
matching (:func:`run_downstream_em_experiment`) and Figure 3
(:func:`run_figure3_experiment`).  Table 1 is :func:`run_matching_sweep` over
the ``embedder`` knob; the value-matching ablations
(:data:`MATCHING_ABLATIONS`) are the same loop over another knob, and
:func:`run_fd_experiment` is the ablation of the FD closure's two routes.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core import FuzzyFDConfig, integrate
from repro.core.engine import MATCHER_KNOBS
from repro.core.representatives import available_policies
from repro.core.value_matching import ValueMatcher
from repro.datasets import AliteEmBenchmark, AutoJoinBenchmark, ImdbBenchmark, join_triangle, multi_schema_lake
from repro.em import EntityMatchingPipeline
from repro.em.metrics import EntityMatchingScores
from repro.embeddings.registry import TABLE1_MODELS
from repro.evaluation.metrics import MatchingScores, macro_average, score_integration_set
from repro.evaluation.runtime import RuntimePoint, runtime_sweep
from repro.fd import AliteFullDisjunction, get_algorithm
from repro.fd.base import Batch
from repro.fd.complementation import component_ranks

#: The value-matching ablations: the config knob each varies, and its values.
MATCHING_ABLATIONS: Dict[str, Tuple[str, Tuple[object, ...]]] = {
    "threshold": ("threshold", (0.3, 0.5, 0.6, 0.7, 0.8, 0.9)),
    "assignment": ("assignment_solver", ("scipy", "greedy")),
    "representatives": ("representative_policy", tuple(available_policies())),
    "blocking": ("blocking", ("off", "on")),
}


class SweepRow(NamedTuple):
    """Match Values over every Auto-Join set at one value of the swept knob."""

    scores: MatchingScores
    seconds: float
    #: Scored pairs over the cells of the assignments (1.0 when unblocked).
    pairs_scored_share: float
    #: Values rewritten to another value, the representative of their set.
    rewrites: int


def run_matching_sweep(
    knob: str,
    values: Sequence[object],
    n_sets: int = 31,
    values_per_column: int = 100,
    seed: int = 42,
    **fixed: object,
) -> Dict[object, SweepRow]:
    """Table 1's loop once per value of ``knob``; other knobs are ``fixed`` or the paper's."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    rows: Dict[object, SweepRow] = {}
    for value in values:
        config = FuzzyFDConfig(**{**fixed, knob: value})
        knobs = {name: getattr(config, name) for name in MATCHER_KNOBS}
        matcher = ValueMatcher(config.resolve_embedder(), solver=config.resolve_solver(), **knobs)
        start = time.perf_counter()
        results = [matcher.match_columns(s.column_values()) for s in integration_sets]
        seconds = time.perf_counter() - start
        scored, avoided = (
            sum(result.statistics.get(key, 0) for result in results)
            for key in ("blocking_pairs_scored", "blocking_pairs_avoided")
        )
        rows[value] = SweepRow(
            macro_average([score_integration_set(r, s.gold_sets) for r, s in zip(results, integration_sets)]),
            seconds,
            scored / (scored + avoided) if scored + avoided else 1.0,
            sum(len(column) for result in results for column in result.replacements.values()),
        )
    return rows


def run_table1_experiment(
    n_sets: int = 31,
    values_per_column: int = 100,
    threshold: float = 0.7,
    models: Sequence[str] = tuple(TABLE1_MODELS),
    seed: int = 42,
) -> Dict[str, MatchingScores]:
    """Macro-averaged value-matching P/R/F1 per embedding model (Table 1)."""
    rows = run_matching_sweep("embedder", models, n_sets, values_per_column, seed, threshold=threshold)
    return {model: row.scores for model, row in rows.items()}


def run_downstream_em_experiment(
    n_sets: int = 4,
    entities_per_set: int = 50,
    match_threshold: float = 0.65,
    seed: int = 7,
) -> Dict[str, EntityMatchingScores]:
    """Entity-matching P/R/F1 over regular-FD and Fuzzy-FD integration (Sec. 3.2)."""
    integration_sets = AliteEmBenchmark(
        n_sets=n_sets, entities_per_set=entities_per_set, seed=seed
    ).generate()
    pipeline = EntityMatchingPipeline(match_threshold=match_threshold)
    per_method: Dict[str, List[EntityMatchingScores]] = {"regular_fd": [], "fuzzy_fd": []}
    for integration_set in integration_sets:
        for method, fuzzy in (("regular_fd", False), ("fuzzy_fd", True)):
            integrated = integrate(integration_set.tables, fuzzy=fuzzy)
            result = pipeline.run(integrated.table, gold_clusters=integration_set.gold_clusters)
            per_method[method].append(result.scores)
    return {method: macro_average(scores) for method, scores in per_method.items()}


def run_figure3_experiment(
    sizes: Sequence[int] = (500, 1000, 1500, 2000),
    seed: int = 13,
) -> List[RuntimePoint]:
    """Runtime of regular FD vs Fuzzy FD over IMDB samples (Figure 3)."""
    benchmark = ImdbBenchmark(seed=seed)
    return runtime_sweep(benchmark.tables, sizes=list(sizes), config=FuzzyFDConfig())


#: The FD counters ``repro benchmark fd`` reports beside seconds and output tuples.
FD_COUNTERS = ("components", "complementation_comparisons", "complementation_expanded")


class KernelRoute(AliteFullDisjunction):
    """``alite`` with its closure's route forced: each component's labels, or
    one label for every input, whatever the listing says."""

    def __init__(self, labelled: bool) -> None:
        super().__init__()
        self.labelled = labelled
        self.name = "alite, labelled" if labelled else "alite, unlabelled"

    def _disjunction(self, codes: np.ndarray, statistics: Dict[str, float]) -> Batch:
        statistics["outer_union_tuples"] = float(codes.shape[1])
        labels = component_ranks(codes) if self.labelled else np.zeros(codes.shape[1], dtype=np.intp)
        return self._engine.disjunction_coded(codes, statistics, labels)


def run_fd_experiment(
    sizes: Sequence[int] = (1_000, 8_000),
    seed: int = 13,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per size, on an IMDB sample, on a lake of 4 unrelated join groups and on
    a join triangle: the seconds, output tuples, components, candidate rows
    examined and candidates expanded of ``alite`` and of its closure over the
    route it did not take (:class:`KernelRoute`).  Raises unless the two agree
    on rows and provenance."""
    runs: Dict[str, Dict[str, Dict[str, float]]] = {}
    for size in sizes:
        inputs = (
            ("IMDB", ImdbBenchmark(seed=seed).tables(size)),
            ("multi-schema lake", multi_schema_lake(4, size // 8)),
            ("join triangle", join_triangle(size // 3)),
        )
        for kind, tables in inputs:
            label, algorithm, outputs = f"{kind}, {size} tuples", get_algorithm("alite"), []
            runs[label] = {}
            for _ in range(2):  # alite, then the route it did not take
                start = time.perf_counter()
                result = algorithm.integrate(tables)
                runs[label][algorithm.name] = {
                    "seconds": time.perf_counter() - start,
                    "output_tuples": result.table.num_rows,
                    **{key: result.statistics.get(key, float("nan")) for key in FD_COUNTERS},
                }
                outputs.append(frozenset(zip(result.table.rows, result.table.provenance)))
                algorithm = KernelRoute(labelled="components" not in result.statistics)
            if outputs[0] != outputs[1]:
                raise AssertionError(f"alite and the route it did not take integrate {label} to different tables")
    return runs
