"""A long-lived integration engine serving repeated requests.

:func:`integrate` builds its embedder, solver and FD algorithm per call —
fine for one-shot use, wasteful for the serve-many-requests shape every
benchmark sweep has (Table 1 iterates models, Figure 3 iterates sizes, the
θ-ablation iterates thresholds over the *same* tables).
:class:`IntegrationEngine` resolves those components once and keeps them warm:
the embedder's cache persists across requests, so a θ-sweep re-scores cached
vectors instead of re-embedding every value.

The pipeline is exposed as inspectable stages::

    engine = IntegrationEngine("paper")          # config, preset name, or dict
    aligned = engine.align(tables)               # AlignmentStage
    matched = engine.match(aligned)              # MatchStage (fuzzy rewrites)
    result  = engine.integrate(matched)          # FuzzyIntegrationResult

or as one call with per-request overrides::

    for theta in (0.6, 0.7, 0.8):
        engine.integrate(tables, threshold=theta)   # embeds values only once

An engine serves one request at a time: :meth:`~IntegrationEngine.integrate`
and :meth:`~IntegrationEngine.match` hold one lock for the length of a
request, so threads sharing an engine get the results a serial loop would
give them.  Several requests at once are several engines — ``repro serve
--processes N`` runs one warm engine per server process.  The ``max_workers``
/ ``parallel_backend`` config knobs parallelise only the inside of one
request (component-wise matching; the FD stage runs vectorised closure
passes and takes no workers).

With ``store_dir`` configured the warmth outlives the process: construction
attaches a :class:`~repro.storage.cache.StoreBackedEmbeddingCache` (so a
restarted engine serves every previously embedded value without one raw
embed call), and a ``readwrite`` engine publishes newly embedded values back
after each request.  The store holds embeddings only; ANN index state is
built in memory per request.  ``store_mode`` is also a per-request override
deciding one thing, publication: ``"readwrite"`` publishes the request's new
embeddings, ``"read"`` and ``"off"`` do not.  The cache tier stays attached
either way (it never changes results, only where vectors come from).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.config import FuzzyFDConfig
from repro.core.value_matching import ValueMatcher, ValueMatchingResult
from repro.embeddings.base import EmbeddingCache, ValueEmbedder
from repro.fd import FD_ALGORITHMS
from repro.fd.base import FullDisjunctionAlgorithm, FullDisjunctionResult
from repro.matching.assignment import AssignmentSolver
from repro.schema_matching.alignment import ColumnAlignment
from repro.storage.cache import StoreBackedEmbeddingCache
from repro.storage.store import ArtifactStore
from repro.table.relation import Relation
from repro.table.table import Table

#: The knobs a request's :class:`ValueMatcher` is built from.
MATCHER_KNOBS = (
    "threshold", "representative_policy", "exact_first", "blocking", "blocking_cutoff",
    "blocking_key_cap", "semantic_blocking", "ann_tables", "ann_bits", "ann_top_k", "ann_index",
    "max_workers", "parallel_backend", "degraded_mode",
)

#: Knobs :meth:`IntegrationEngine.integrate` accepts as per-request overrides:
#: the matcher's and ``store_mode`` (whether the request publishes its new
#: embeddings).
REQUEST_OVERRIDES = (*MATCHER_KNOBS, "store_mode")

#: Overrides for which ``None`` is a meaningful value (not "use the engine
#: default"): ``blocking_key_cap=None`` disables the frequent-key cap.
NULLABLE_OVERRIDES = frozenset({"blocking_key_cap"})

#: Refusal of a second alignment for a request that is already aligned.
_ALIGNED_TWICE = (
    "an explicit alignment cannot apply to an AlignmentStage — "
    "alignment already ran; re-align the raw tables instead"
)


def _count_rewrites(value_matching: Dict[str, ValueMatchingResult]) -> int:
    """Distinct value rewrites across all aligned groups and columns."""
    return sum(len(replaced) for result in value_matching.values() for replaced in result.replacements.values())


@dataclass
class FuzzyIntegrationResult:
    """Everything the pipeline produced, with a per-phase timing breakdown;
    ``rewritten`` is the FD's input, coded (``rewritten_tables``: decoded)."""

    fd_result: FullDisjunctionResult
    alignment: ColumnAlignment
    value_matching: Dict[str, ValueMatchingResult] = field(default_factory=dict)
    rewritten: List[Relation] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def table(self) -> Table:
        """The integrated table (``fd_result.table``, decoded on first read)."""
        return self.fd_result.table

    @cached_property
    def rewritten_tables(self) -> List[Table]:
        """The rewritten input tables (decoded from :attr:`rewritten`)."""
        return [relation.to_table() for relation in self.rewritten]

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time of the integration.

        ``timings`` also carries the request's counters (:mod:`repro.obs`);
        only the ``*_seconds`` entries are durations.
        """
        return sum(value for key, value in self.timings.items() if key.endswith("_seconds"))

    @property
    def output_tuple_count(self) -> int:
        """Number of tuples in the integrated table."""
        return self.fd_result.output_tuple_count

    def rewrites_applied(self) -> int:
        """Number of distinct value rewrites applied across all columns."""
        return _count_rewrites(self.value_matching)


class _Coded:
    @property
    def tables(self) -> List[Table]:
        """The stage's relations, decoded."""
        return [relation.to_table() for relation in self.relations]


@dataclass
class AlignmentStage(_Coded):
    """Output of :meth:`IntegrationEngine.align` — the aligned input, coded."""

    alignment: ColumnAlignment
    relations: List[Relation]
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class MatchStage(_Coded):
    """Output of :meth:`IntegrationEngine.match` — fuzzy-rewritten relations."""

    alignment: ColumnAlignment
    value_matching: Dict[str, ValueMatchingResult]
    relations: List[Relation]
    timings: Dict[str, float] = field(default_factory=dict)

    def rewrites_applied(self) -> int:
        """Number of distinct value rewrites across all aligned groups."""
        return _count_rewrites(self.value_matching)


def encode_request(tables: Sequence[Union[Table, Relation]]) -> List[Relation]:
    """A request's tables, coded.  Two of them may not share a name: the
    stages address tables by name, and tuple ids (``"name:row"``) would be
    ambiguous."""
    seen: Dict[str, int] = {}
    for index, table in enumerate(tables):
        if seen.setdefault(table.name, index) != index:
            raise ValueError(f"tables[{seen[table.name]}] and tables[{index}] are both named {table.name!r}")
    return [Relation.of(table) for table in tables]


class IntegrationEngine:
    """Warm, reusable executor of the Fuzzy Full Disjunction pipeline.

    Parameters
    ----------
    config:
        A :class:`FuzzyFDConfig`, a preset name (``"paper"``, ``"fast"``,
        ``"scale"``), a plain dict (:meth:`FuzzyFDConfig.from_dict`), or
        ``None`` for the paper's defaults.

    The embedder, assignment solver and FD algorithm named in the config are
    resolved once at construction and reused by every request; the embedder's
    :class:`~repro.embeddings.base.EmbeddingCache` therefore persists across
    requests, which is what makes repeated integrations (threshold sweeps,
    ablations, a service handling recurring tables) cheap.  Requests run one
    at a time: a thread that calls :meth:`integrate` or :meth:`match` while
    another request runs waits for it.
    """

    def __init__(self, config: Union[FuzzyFDConfig, str, Dict[str, Any], None] = None) -> None:
        if config is None:
            config = FuzzyFDConfig()
        elif isinstance(config, str):
            config = FuzzyFDConfig.preset(config)
        elif isinstance(config, dict):
            config = FuzzyFDConfig.from_dict(config)
        self.config = config
        self.embedder: ValueEmbedder = config.resolve_embedder()
        self.solver: AssignmentSolver = config.resolve_solver()
        self.fd_algorithm: FullDisjunctionAlgorithm = config.resolve_fd_algorithm()
        #: The persistent artifact store, or ``None`` when persistence is off.
        self.store: Optional[ArtifactStore] = config.build_store()
        self._store_cache: Optional[StoreBackedEmbeddingCache] = None
        if self.store is not None:
            # The warm start: constructing the tiered cache attaches every
            # published segment of this embedder, so values embedded by any
            # previous run are served from memmaps — zero raw embed calls.
            self._store_cache = StoreBackedEmbeddingCache(
                self.store,
                self.embedder.name,
                self.embedder.dimension,
                max_entries=self.embedder.cache.max_entries,
                revision=self.embedder.revision,
            )
            self.embedder.use_cache(self._store_cache)
        self.requests_served = 0
        # The last request's ValueMatcher and the knobs it was built from; a
        # request with other overrides replaces it, so a θ-sweep holds one
        # matcher (one blocker key memo).  It shares the engine's embedder
        # (and cache) and solver; its per-call state is safe because _lock
        # admits one request at a time.
        self._matcher_knobs: Optional[Tuple] = None
        self._matcher: Optional[ValueMatcher] = None
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------------
    @property
    def embedding_cache(self) -> EmbeddingCache:
        """The warm embedding cache shared by every request."""
        return self.embedder.cache

    def save(self) -> Dict[str, int]:
        """Publish the pending embeddings to the store.

        Embedding vectors computed since the last publication become one new
        memmapped segment, the only artifact kind the store holds.  Returns
        ``{"embedding_rows": n}`` — ``0`` when there is no store, it is
        read-only, or nothing new was embedded.  :meth:`integrate` already
        calls this after every request on a ``readwrite`` engine; explicit
        calls matter for flows that embed without integrating (e.g.
        :meth:`match` alone).
        """
        rows = 0
        if self._store_cache is not None:
            rows = self._store_cache.publish()
        return {"embedding_rows": rows}

    def store_statistics(self) -> Dict[str, int]:
        """Counters of the artifact store (empty dict when persistence is off)."""
        if self.store is None:
            return {}
        return self.store.statistics()

    def __enter__(self) -> "IntegrationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __repr__(self) -> str:
        return (
            f"IntegrationEngine(embedder={self.embedder.name!r}, "
            f"solver={self.solver.name!r}, fd={self.fd_algorithm.name!r}, "
            f"requests_served={self.requests_served})"
        )

    # -- stages --------------------------------------------------------------------
    def align(self, tables: Sequence[Union[Table, Relation]]) -> AlignmentStage:
        """Stage 1: code the input and group its columns by header name."""
        if not tables:
            raise ValueError("align() requires at least one table")
        start = time.perf_counter()
        relations = encode_request(tables)
        alignment = ColumnAlignment.from_named_columns(relations)
        return AlignmentStage(alignment, alignment.apply(relations), {"alignment_seconds": time.perf_counter() - start})

    def apply_alignment(self, tables: Sequence[Union[Table, Relation]], alignment: ColumnAlignment) -> AlignmentStage:
        """Stage 1 with a caller-supplied alignment; a member naming a table or
        column the request lacks raises :class:`ValueError`."""
        start = time.perf_counter()
        relations = alignment.apply(encode_request(tables))
        return AlignmentStage(alignment, relations, {"alignment_seconds": time.perf_counter() - start})

    def match(
        self,
        aligned: Union[AlignmentStage, Sequence[Table]],
        alignment: Optional[ColumnAlignment] = None,
        **overrides: Any,
    ) -> MatchStage:
        """Stage 2: fuzzy value matching + representative rewriting.

        ``aligned`` is the :class:`AlignmentStage` from :meth:`align` (or a
        sequence of already-aligned tables plus an explicit ``alignment``,
        whose every member must be there under its group's name).
        ``overrides`` are the per-request knobs of :data:`REQUEST_OVERRIDES`.
        """
        effective = self.effective_config(overrides)
        with self._lock:
            return self._match(aligned, alignment, effective)

    def _match(
        self,
        aligned: Union[AlignmentStage, Sequence[Table]],
        alignment: Optional[ColumnAlignment],
        effective: FuzzyFDConfig,
    ) -> MatchStage:
        """:meth:`match` under the request lock, which the caller holds."""
        if isinstance(aligned, AlignmentStage):
            if alignment is not None:
                raise TypeError(_ALIGNED_TWICE)
            relations = aligned.relations
            alignment = aligned.alignment
            timings = dict(aligned.timings)
        else:
            if alignment is None:
                raise ValueError("match() needs an AlignmentStage or an explicit alignment")
            relations = encode_request(aligned)
            alignment.check(relations, applied=True)
            timings = {}

        matcher = self._matcher_for(effective)
        start = time.perf_counter()
        value_matching, rewritten = self._match_and_rewrite(matcher, relations, alignment)
        timings["value_matching_seconds"] = time.perf_counter() - start
        # The request's counters ride beside the phase timings: every group's
        # request-level statistics, merged by each counter's rule.
        for result in value_matching.values():
            obs.merge(timings, {
                name: value for name, value in result.statistics.items() if name in obs.REQUEST
            })
        return MatchStage(
            alignment=alignment,
            value_matching=value_matching,
            relations=rewritten,
            timings=timings,
        )

    # -- the request API -----------------------------------------------------------
    def integrate(
        self,
        tables: Union[Sequence[Table], AlignmentStage, MatchStage],
        alignment: Optional[ColumnAlignment] = None,
        *,
        fuzzy: bool = True,
        fd_algorithm: Union[str, FullDisjunctionAlgorithm, None] = None,
        on_stage: Optional[Callable[[str], None]] = None,
        **overrides: Any,
    ) -> FuzzyIntegrationResult:
        """Serve one integration request.

        ``tables`` may be raw tables (the full pipeline runs), an
        :class:`AlignmentStage` (alignment is reused), or a
        :class:`MatchStage` (only the Full Disjunction runs).  ``overrides``
        (:data:`REQUEST_OVERRIDES`, e.g. ``threshold=0.8``) reconfigure the
        matching stage for this request only; the warm embedder and its cache
        are reused, so a threshold sweep embeds each value once.

        ``on_stage`` is the stage-boundary hook of the serving layer: it is
        called with the stage about to run (``"align"``, ``"match"``,
        ``"integrate"``) and once with ``"complete"`` after the request
        finishes (publication included).  Stages skipped by the input shape
        (a pre-aligned :class:`AlignmentStage`, ``fuzzy=False``, a
        :class:`MatchStage`) never fire their hook.  Exceptions raised by
        the hook propagate unchanged — that is how a deadline enforcer
        (:class:`~repro.service.StageTracker`) turns a budget overrun into a
        typed error instead of letting the next stage start.
        """
        with self._lock:
            store_before = obs.read("store", self.store_statistics())
            if isinstance(tables, MatchStage):
                # Executor knobs stay legal (a caller may pass one set of overrides
                # to every stage) though the FD stage that is left takes no
                # workers; everything else configures work that already happened.
                executor_overrides = {
                    key: overrides.pop(key)
                    for key in ("max_workers", "parallel_backend")
                    if key in overrides
                }
                rejected = sorted(overrides)
                if alignment is not None:
                    rejected.append("alignment")
                if not fuzzy:
                    rejected.append("fuzzy=False")
                if rejected:
                    raise TypeError(
                        f"override(s) {rejected} cannot apply to a MatchStage — alignment "
                        "and matching already ran; pass them to align()/match() instead "
                        "(or integrate the raw tables)"
                    )
                staged = tables
                effective = self.effective_config(executor_overrides)
            else:
                if isinstance(tables, AlignmentStage):
                    if alignment is not None:
                        raise TypeError(_ALIGNED_TWICE)
                    aligned = tables
                else:
                    if not tables:
                        raise ValueError("integrate() requires at least one table")
                    tables = encode_request(tables)  # before the first stage is announced
                    if on_stage is not None:
                        on_stage("align")
                    if alignment is not None:
                        aligned = self.apply_alignment(tables, alignment)
                    else:
                        aligned = self.align(tables)
                effective = self.effective_config(overrides)
                if fuzzy:
                    if on_stage is not None:
                        on_stage("match")
                    staged = self._match(aligned, None, effective)
                else:
                    # Without the matching stage, matching-only overrides would
                    # be silently ignored — reject them loudly.  The executor
                    # knobs stay legal: they never change a result.
                    ignored = sorted(set(overrides) - {"max_workers", "parallel_backend"})
                    if ignored:
                        raise TypeError(
                            f"override(s) {ignored} have no effect with fuzzy=False — "
                            "the matching stage they configure is skipped"
                        )
                    staged = MatchStage(
                        alignment=aligned.alignment,
                        value_matching={},
                        relations=aligned.relations,
                        timings=dict(aligned.timings),
                    )

            if on_stage is not None:
                on_stage("integrate")
            fd = self._resolve_fd(fd_algorithm, effective)
            timings = dict(staged.timings)
            start = time.perf_counter()
            fd_result = fd.integrate(staged.relations)
            timings["full_disjunction_seconds"] = time.perf_counter() - start

            if self._store_cache is not None and effective.store_mode == "readwrite":
                # Newly embedded values become durable as soon as the request
                # that embedded them completes — the next engine starts warm
                # without anyone remembering to call save().
                published = self._store_cache.publish()
                if published:
                    obs.merge(timings, {"store_published_rows": published})
            # Store events this request caused (e.g. corrupt artifacts it tripped
            # over, now quarantined) — present only when they happened.
            store_counts = obs.delta(store_before, obs.read("store", self.store_statistics()))
            obs.merge(timings, {name: value for name, value in store_counts.items() if value})

            self.requests_served += 1
            if on_stage is not None:
                on_stage("complete")
            return FuzzyIntegrationResult(
                fd_result=fd_result,
                alignment=staged.alignment,
                value_matching=staged.value_matching,
                rewritten=staged.relations,
                timings=timings,
            )

    def effective_config(self, overrides: Dict[str, Any]) -> FuzzyFDConfig:
        """The engine config with per-request ``overrides`` applied and validated."""
        unknown = sorted(set(overrides) - set(REQUEST_OVERRIDES))
        if unknown:
            raise TypeError(
                f"unknown per-request override(s) {unknown}; "
                f"supported: {sorted(REQUEST_OVERRIDES)}"
            )
        provided = {
            key: value
            for key, value in overrides.items()
            if value is not None or key in NULLABLE_OVERRIDES
        }
        if not provided:
            return self.config
        return self.config.replace(**provided)

    # -- internals -----------------------------------------------------------------
    def _matcher_for(self, effective: FuzzyFDConfig) -> ValueMatcher:
        knobs = {knob: getattr(effective, knob) for knob in MATCHER_KNOBS}
        if self._matcher is None or self._matcher_knobs != tuple(knobs.values()):
            self._matcher = ValueMatcher(self.embedder, solver=self.solver, **knobs)
            self._matcher_knobs = tuple(knobs.values())
        return self._matcher

    def _resolve_fd(
        self,
        fd_algorithm: Union[str, FullDisjunctionAlgorithm, None],
        effective: FuzzyFDConfig,
    ) -> FullDisjunctionAlgorithm:
        """The FD algorithm for one request: the engine's, or the per-request
        override — a name resolved fresh, an instance passed through."""
        if fd_algorithm is None:
            return self.fd_algorithm
        return effective.replace(fd_algorithm=fd_algorithm).resolve_fd_algorithm()

    @staticmethod
    def _match_and_rewrite(
        matcher: ValueMatcher, relations: Sequence[Relation], alignment: ColumnAlignment
    ) -> Tuple[Dict[str, ValueMatchingResult], List[Relation]]:
        """Run Match Values per multi-table aligned group over the columns'
        dictionaries, then remap each column's codes to the representatives."""
        rewritten = {relation.name: relation for relation in relations}
        results: Dict[str, ValueMatchingResult] = {}

        for group in alignment.multi_table_groups():
            columns = []
            for member in group.members:
                relation = rewritten[member.table]
                # After alignment.apply() the column carries the group name.
                values = relation.values[relation.schema.position(group.name)]
                if values:
                    columns.append(((member.table, group.name), values, relation.counts(group.name).tolist()))
            if len(columns) < 2:
                continue
            result = matcher.match_coded(columns)
            results[group.name] = result
            for (table, column), replacements in result.replacements.items():
                if replacements:
                    rewritten[table] = rewritten[table].replace(column, replacements)

        return results, [rewritten[relation.name] for relation in relations]


def integrate(
    tables: Sequence[Table],
    *,
    fuzzy: bool = True,
    config: Optional[FuzzyFDConfig] = None,
    alignment: Optional[ColumnAlignment] = None,
) -> FuzzyIntegrationResult:
    """Integrate a set of data-lake tables into one unified table, one-shot.

    Builds a fresh :class:`IntegrationEngine` (``config``, the paper's
    settings by default) and serves one request: the paper's Fuzzy Full
    Disjunction, or with ``fuzzy=False`` the regular, equi-join Full
    Disjunction baseline.  ``alignment`` is an optional pre-computed column
    alignment; without it columns align by header name.
    Callers integrating *repeatedly* should hold an engine instead — it
    keeps the embedding cache warm.

    >>> from repro.table import Table
    >>> from repro.core import integrate
    >>> cities = Table("t1", ["City", "Country"], [("Berlin", "Germany")])
    >>> stats = Table("t2", ["City", "Cases"], [("Berlin", "1.4M")])
    >>> result = integrate([cities, stats])
    >>> sorted(result.table.columns)
    ['Cases', 'City', 'Country']
    """
    return IntegrationEngine(config).integrate(tables, alignment=alignment, fuzzy=fuzzy)
