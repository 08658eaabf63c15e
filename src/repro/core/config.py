"""Configuration of the Fuzzy Full Disjunction pipeline.

Every name-valued knob (embedder, assignment solver, FD algorithm,
representative policy) is validated *eagerly* at construction against its
plugin registry, so a typo fails immediately with the valid names listed
instead of exploding deep inside the pipeline.

Configurations serialise: :meth:`FuzzyFDConfig.to_dict` /
:meth:`FuzzyFDConfig.from_dict` round-trip through plain dicts, and
:meth:`FuzzyFDConfig.from_json` loads a JSON file or string.  Named presets
(:data:`PRESETS`: ``"paper"``, ``"fast"``, ``"scale"``) capture the common
operating points.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.representatives import REPRESENTATIVE_POLICIES
from repro.core.value_matching import DEFAULT_BLOCKING_CUTOFF, DEFAULT_BLOCKING_KEY_CAP
from repro.matching.ann import (
    ANN_INDEX_KINDS,
    DEFAULT_ANN_BITS,
    DEFAULT_ANN_TABLES,
    DEFAULT_ANN_TOP_K,
)
from repro.embeddings.base import DEGRADED_MODES, ValueEmbedder
from repro.embeddings.registry import EMBEDDERS
from repro.fd import FD_ALGORITHMS
from repro.fd.base import FullDisjunctionAlgorithm
from repro.matching.assignment import ASSIGNMENT_SOLVERS, AssignmentSolver
from repro.registry import Registry
from repro.storage.store import STORE_MODES
from repro.utils.executor import EXECUTOR_BACKENDS, ExecutorConfig


#: What a field of each annotation accepts (``bool`` is no number); ``Optional`` adds ``None``.
FIELD_KINDS = {
    "bool": (bool, "a boolean"), "int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string"),
    "Union[str, ValueEmbedder]": ((str, ValueEmbedder), "a name or an embedder"),
    "Union[str, AssignmentSolver]": ((str, AssignmentSolver), "a name or an assignment solver"),
    "Union[str, FullDisjunctionAlgorithm]": ((str, FullDisjunctionAlgorithm), "a name or an FD algorithm"),
}


@dataclass
class FuzzyFDConfig:
    """All knobs of the pipeline, with the paper's defaults.

    Attributes
    ----------
    embedder:
        Embedding model (registry name or instance).  The paper's system uses
        Mistral-7B-Instruct; the default here is the Mistral simulator.
    threshold:
        Matching threshold θ of Definition 2.  The paper reports θ = 0.7.
    assignment_solver:
        Bipartite assignment solver (``"scipy"`` as in the paper, or
        ``"greedy"``).
    fd_algorithm:
        Full Disjunction substrate: a name of
        :data:`~repro.fd.FD_ALGORITHMS` (``"alite"`` as in the paper, or the
        oracles ``"naive"`` / ``"outer_join_sequence"``) or an instance.
        ``alite`` labels the input's components itself where that pays, so
        no preset chooses an FD algorithm.
    representative_policy:
        How the representative value of a match set is chosen;
        ``"frequency"`` (most frequent value, ties broken by earliest table)
        is the paper's rule.
    exact_first:
        Match identical values before running the optimal assignment on the
        remainder (cheaper and never harmful under clean-clean semantics).
    blocking:
        Whether the Match Values component routes column pairs through the
        component-wise blocked matcher: ``"off"`` (the paper's exhaustive
        matrix, the default), ``"on"`` (always block), or ``"auto"`` (block
        only pairs whose cross product reaches ``blocking_cutoff`` cells —
        the data-lake setting: paper-size columns stay exact, wide columns
        go sparse).
    blocking_cutoff:
        Cell count ``|left| × |right|`` at which ``"auto"`` engages blocking.
    blocking_key_cap:
        Frequent-key cap of the blocked matcher's candidate generator: a
        blocking key whose *smaller* posting list exceeds the cap is skipped
        (stop-word-like keys would otherwise contribute quadratic candidate
        blocks).  ``None`` disables the cap (pre-cap behaviour).
    semantic_blocking:
        The ANN candidate channel of the blocked matcher
        (:class:`~repro.matching.ann.SemanticBlocker`): ``"off"`` (surface
        keys only, the default), ``"on"`` (always union embedding-neighbour
        pairs into the candidate graph), or ``"auto"`` (union them only for
        column pairs where the surface keys left some value with no candidate
        at all).  ``"on"`` requires ``blocking`` ``"on"``/``"auto"`` — the
        channel rides the blocked matcher; the exhaustive matcher already
        scores every pair.
    ann_tables:
        Number of LSH hash tables of the semantic channel.  More tables,
        higher recall, linearly more probing.
    ann_bits:
        Random-hyperplane bits per LSH table.  Fewer bits, bigger buckets:
        higher recall, more similarity evaluations — up to 13 (with 8
        tables) the probe would be dense and the exact pass runs instead.
    ann_top_k:
        Candidate pairs the semantic channel emits per value (its nearest
        counterparts by cosine similarity; both sides probe).  Bounds the
        extra pairs the channel can add to roughly
        ``top_k × (|left| + |right|)``.
    ann_index:
        Retrieval index of the semantic channel for shapes that probe
        sparsely: ``"lsh"`` (random-hyperplane tables, the default — falls
        back to IVF per column pair when hyperplane buckets skew past the
        blocker's threshold) or ``"ivf"`` (force the seeded k-means
        inverted-file index everywhere).  Both are deterministic under the
        fixed seed and both are built in memory per request; neither is
        stored.
    max_workers:
        Worker bound of component solving inside one request.  ``1`` (the
        paper's single-threaded setting, the default) disables the pool;
        larger values let the blocked matcher solve components concurrently.
        An engine serves one request at a time whatever this says, and Full
        Disjunction runs vectorised closure passes and takes no workers.
    parallel_backend:
        Executor backend used when ``max_workers > 1``: ``"thread"`` (numpy/
        scipy release the GIL — the usual choice) or ``"serial"`` (force the
        plain loop regardless of ``max_workers``).  Results are identical
        across backends by construction.
    store_dir:
        Directory of the persistent artifact store
        (:class:`~repro.storage.store.ArtifactStore`): memmapped embedding
        segments that make a restarted engine warm (ANN index state is
        built in memory, never stored).
        ``None`` (the default) disables persistence entirely.  Stored as a
        plain string so configurations stay JSON-serialisable.
    store_mode:
        How the store is used when ``store_dir`` is set: ``"readwrite"``
        (attach and publish), ``"read"`` (attach existing artifacts, never
        write — e.g. many engines sharing one store only one of them owns),
        or ``"off"`` (ignore the directory).  The store never changes
        results, only whether embeddings are recomputed or loaded.  As a
        per-request override it decides publication only: ``"readwrite"``
        publishes the request's new embeddings, ``"read"`` and ``"off"``
        do not.
    service_deadline_ms:
        Default per-request deadline budget of the service in milliseconds
        (measured from submission), checked at stage boundaries
        (align → match → integrate); ``None`` (the default) means no
        deadline unless the request carries its own ``deadline_ms``.
    degraded_mode:
        What a request does when its embedder raises
        :class:`~repro.embeddings.base.EmbedderUnavailable` (a caller's own
        embedder over a remote backend; the built-in embedders never raise
        it).  ``"off"`` (the default) propagates it, and the service answers
        ``unavailable`` (HTTP 503); ``"surface"`` matches by exact pairing
        plus surface-blocking candidates without embeddings, the result
        marked ``degraded`` in statistics and traces.
    """

    embedder: Union[str, ValueEmbedder] = "mistral"
    threshold: float = 0.7
    assignment_solver: Union[str, AssignmentSolver] = "scipy"
    fd_algorithm: Union[str, FullDisjunctionAlgorithm] = "alite"
    representative_policy: str = "frequency"
    exact_first: bool = True
    blocking: str = "off"
    blocking_cutoff: int = DEFAULT_BLOCKING_CUTOFF
    blocking_key_cap: Optional[int] = DEFAULT_BLOCKING_KEY_CAP
    semantic_blocking: str = "off"
    ann_tables: int = DEFAULT_ANN_TABLES
    ann_bits: int = DEFAULT_ANN_BITS
    ann_top_k: int = DEFAULT_ANN_TOP_K
    ann_index: str = "lsh"
    max_workers: int = 1
    parallel_backend: str = "thread"
    store_dir: Optional[str] = None
    store_mode: str = "off"
    service_deadline_ms: Optional[float] = None
    degraded_mode: str = "off"

    def __post_init__(self) -> None:
        if isinstance(self.store_dir, os.PathLike):  # held as a string: to_dict()/to_json() stay serialisable
            self.store_dir = os.fspath(self.store_dir)
        for field in dataclasses.fields(self):
            optional = field.type.startswith("Optional[")
            value, kind = getattr(self, field.name), field.type[len("Optional[") : -1] if optional else field.type
            if (value is not None or not optional) and (isinstance(value, bool) != (kind == "bool") or not isinstance(value, FIELD_KINDS[kind][0])):
                raise ValueError(f"{field.name} must be {FIELD_KINDS[kind][1]}, got {type(value).__name__} {value!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.blocking not in ("off", "on", "auto"):
            raise ValueError(
                f"blocking must be 'off', 'on' or 'auto', got {self.blocking!r}"
            )
        if self.blocking_cutoff <= 0:
            raise ValueError(
                f"blocking_cutoff must be positive, got {self.blocking_cutoff}"
            )
        if self.blocking_key_cap is not None and self.blocking_key_cap < 1:
            raise ValueError(
                f"blocking_key_cap must be >= 1 or None, got {self.blocking_key_cap}"
            )
        if self.semantic_blocking not in ("off", "on", "auto"):
            raise ValueError(
                f"semantic_blocking must be 'off', 'on' or 'auto', "
                f"got {self.semantic_blocking!r}"
            )
        if self.semantic_blocking == "on" and self.blocking == "off":
            raise ValueError(
                "semantic_blocking='on' requires blocking 'on' or 'auto': the ANN "
                "channel rides the blocked matcher"
            )
        if self.ann_tables < 1:
            raise ValueError(f"ann_tables must be >= 1, got {self.ann_tables}")
        if not 1 <= self.ann_bits <= 30:
            raise ValueError(f"ann_bits must be in [1, 30], got {self.ann_bits}")
        if self.ann_top_k < 1:
            raise ValueError(f"ann_top_k must be >= 1, got {self.ann_top_k}")
        if self.ann_index not in ANN_INDEX_KINDS:
            raise ValueError(
                f"ann_index must be one of {list(ANN_INDEX_KINDS)}, got {self.ann_index!r}"
            )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.parallel_backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"parallel_backend must be one of {list(EXECUTOR_BACKENDS)}, "
                f"got {self.parallel_backend!r}"
            )
        if self.store_mode not in STORE_MODES:
            raise ValueError(
                f"store_mode must be one of {list(STORE_MODES)}, got {self.store_mode!r}"
            )
        if self.service_deadline_ms is not None and self.service_deadline_ms <= 0:
            raise ValueError(
                f"service_deadline_ms must be positive or None, "
                f"got {self.service_deadline_ms}"
            )
        if self.degraded_mode not in DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {list(DEGRADED_MODES)}, "
                f"got {self.degraded_mode!r}"
            )
        # Every registry-resolved knob is checked here, at construction, so an
        # unknown name can never survive into the pipeline's hot path.
        if isinstance(self.embedder, str):
            EMBEDDERS.validate(self.embedder)
        if isinstance(self.assignment_solver, str):
            ASSIGNMENT_SOLVERS.validate(self.assignment_solver)
        if isinstance(self.fd_algorithm, str):
            FD_ALGORITHMS.validate(self.fd_algorithm)
        REPRESENTATIVE_POLICIES.validate(self.representative_policy)

    # -- resolution helpers -------------------------------------------------------
    def resolve_embedder(self) -> ValueEmbedder:
        """Return the embedder instance (instantiating registry names)."""
        return EMBEDDERS.resolve(self.embedder, ValueEmbedder)

    def resolve_solver(self) -> AssignmentSolver:
        """Return the assignment solver instance."""
        return ASSIGNMENT_SOLVERS.resolve(self.assignment_solver, AssignmentSolver)

    def resolve_fd_algorithm(self) -> FullDisjunctionAlgorithm:
        """Return the Full Disjunction algorithm instance."""
        return FD_ALGORITHMS.resolve(self.fd_algorithm, FullDisjunctionAlgorithm)

    def executor_config(self) -> ExecutorConfig:
        """The parallel-execution settings as an :class:`ExecutorConfig`."""
        return ExecutorConfig(backend=self.parallel_backend, max_workers=self.max_workers)

    def build_store(self):
        """The configured :class:`~repro.storage.store.ArtifactStore`, or ``None``.

        ``None`` when persistence is disabled — no directory configured, or
        ``store_mode="off"``.  A ``"read"``-mode store over a directory that
        does not exist yet is simply empty (nothing is created on disk).
        """
        if self.store_dir is None or self.store_mode == "off":
            return None
        from repro.storage.store import ArtifactStore

        return ArtifactStore(self.store_dir, self.store_mode)

    # -- derived configurations ---------------------------------------------------
    def replace(self, **overrides: Any) -> "FuzzyFDConfig":
        """A copy of this configuration with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # -- serialisation ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the configuration.

        Instance-valued knobs are serialised by their registry ``name``
        attribute, so a config built from instances still produces a loadable
        dict (the instance's constructor arguments are not preserved).
        """
        # Not dataclasses.asdict(): that deep-copies the field values, which
        # for an instance-valued embedder would clone (or fail to pickle) the
        # whole model and cache only to be thrown away.
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        for knob in ("embedder", "assignment_solver", "fd_algorithm"):
            if not isinstance(data[knob], str):
                data[knob] = data[knob].name
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzyFDConfig":
        """Build (and validate) a configuration from :meth:`to_dict` output."""
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise ValueError(
                f"unknown configuration keys {unknown}; valid keys: {sorted(field_names)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "FuzzyFDConfig":
        """Load a configuration from a JSON file path or a JSON string.

        A ``Path``, or a string that does not start with ``{``, is treated as
        a file path (a missing file raises ``FileNotFoundError`` rather than
        a confusing JSON parse error); a string starting with ``{`` is parsed
        as JSON text directly.
        """
        text = str(source)
        if isinstance(source, Path) or not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"configuration JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def to_json(self) -> str:
        """The configuration as a JSON string (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- presets ------------------------------------------------------------------
    @classmethod
    def preset(cls, name: str) -> "FuzzyFDConfig":
        """Build one of the named presets (see :data:`PRESETS`).

        >>> FuzzyFDConfig.preset("paper").threshold
        0.7
        """
        return cls.from_dict(dict(PRESETS.get(name)))


#: Named operating points.  ``"paper"`` is the paper's exact configuration;
#: ``"fast"`` trades effectiveness for speed (cheap surface embedder, greedy
#: assignment); ``"scale"`` keeps the paper's models and FD but engages
#: blocking (with the semantic ANN channel on ``"auto"``) and the parallel
#: execution layer (4 thread workers, for component solving) for wide
#: data-lake inputs;
#: it also opts into ``store_mode="readwrite"`` so that a caller who supplies
#: ``store_dir`` gets persistent, warm-startable state.
PRESETS: Registry[Dict[str, Any]] = Registry(
    "config preset",
    {
        "paper": {},
        "fast": {
            "embedder": "fasttext",
            "assignment_solver": "greedy",
            "blocking": "auto",
        },
        "scale": {
            "blocking": "auto",
            "semantic_blocking": "auto",
            "max_workers": 4,
            "parallel_backend": "thread",
            # Persistence engages once the caller supplies store_dir; the
            # preset only declares the intent to both attach and publish.
            "store_mode": "readwrite",
            # A data-lake deployment prefers degraded answers over errors
            # while a caller's embedding backend is down.
            "degraded_mode": "surface",
        },
    },
)


def available_presets() -> List[str]:
    """Names of the registered configuration presets."""
    return PRESETS.names()
