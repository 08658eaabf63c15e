"""Command-line interface.

Four subcommands expose the library to shell users:

``repro integrate``
    Integrate a set of CSV tables (files or a directory) into one table with
    the Fuzzy Full Disjunction (or, with ``--regular``, with plain ALITE).
    The configuration comes from ``--preset {paper,fast,scale}`` or
    ``--config-json PATH``, with explicitly passed flags overriding either;
    all name-valued flags are validated against the plugin registries and
    fail fast listing the valid names.

``repro match``
    Run the Match Values component over one column of each input CSV and
    print the fuzzy value-match sets with their representatives.

``repro benchmark``
    Run one of the paper's experiments (``table1``, ``em``, ``fig3``) at a
    chosen scale and print the resulting table/series.

``repro serve``
    Start the HTTP serving layer (:mod:`repro.service`): long-lived warm
    engines behind ``/integrate``, ``/stats`` and ``/healthz``, with
    admission control and per-request deadlines.  ``--store-dir`` attaches
    the persistent artifact store so restarts are warm; ``--processes N``
    pre-forks N server processes on one socket (default: one per CPU).

Installed as the ``repro`` console script; also runnable with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core import PRESETS, FuzzyFDConfig, IntegrationEngine, available_presets
from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.embeddings.registry import EMBEDDERS, get_embedder
from repro.fd import FD_ALGORITHMS
from repro.registry import Registry, UnknownNameError
from repro.schema_matching.strategies import ALIGNMENT_STRATEGIES
from repro.table import Table, read_csv, write_csv
from repro.table.io import load_directory


class _TrackedStore(argparse.Action):
    """``store`` that also records the flag was explicitly passed.

    Lets ``--preset``/``--config-json`` act as the base configuration while
    *any* explicitly passed flag overrides it — even one set to its default
    value — without disturbing the defaults visible in the parsed namespace.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        explicit = getattr(namespace, "_explicit", None)
        if explicit is None:
            explicit = set()
            setattr(namespace, "_explicit", explicit)
        explicit.add(self.dest)


def _registry_name(registry: Registry):
    """An argparse ``type=`` validator that fails fast with the registry's names.

    Unlike ``choices=``, the valid set is read from the registry at parse
    time, so plugins registered after import are accepted.
    """

    def validate(value: str) -> str:
        try:
            return registry.validate(value)
        except UnknownNameError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    validate.__name__ = registry.kind.replace(" ", "_")
    return validate


def _collect_tables(paths: Sequence[str]) -> List[Table]:
    """Load every CSV file (or every CSV inside a directory) named in ``paths``."""
    tables: List[Table] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            tables.extend(load_directory(path))
        elif path.suffix.lower() == ".csv":
            tables.append(read_csv(path))
        else:
            raise SystemExit(f"error: {path} is neither a CSV file nor a directory")
    if len(tables) < 1:
        raise SystemExit("error: no input tables found")
    return tables


# ---------------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------------


#: ``integrate`` flags that map onto config knobs.  A flag overrides the
#: preset / JSON configuration only when the user passed it explicitly
#: (tracked by :class:`_TrackedStore`).
_INTEGRATE_CONFIG_FLAGS = (
    "embedder",
    "threshold",
    "fd_algorithm",
    "alignment",
    "blocking",
    "semantic_blocking",
    "ann_top_k",
    "ann_index",
    "max_workers",
    "parallel_backend",
    "store_dir",
    "store_mode",
    "degraded_mode",
    "retry_max_attempts",
    "retry_backoff_ms",
    "breaker_failure_threshold",
    "breaker_reset_ms",
)

#: ``serve`` adds the service knobs on top of the shared engine flags.
_SERVE_CONFIG_FLAGS = _INTEGRATE_CONFIG_FLAGS + (
    "service_max_pending",
    "service_max_concurrency",
    "service_deadline_ms",
)


def _build_config(
    args: argparse.Namespace, flags: Sequence[str] = _INTEGRATE_CONFIG_FLAGS
) -> FuzzyFDConfig:
    """Resolve the effective config: preset / JSON base, then explicit flags."""
    explicit = getattr(args, "_explicit", set())
    try:
        if getattr(args, "preset", None):
            config = FuzzyFDConfig.preset(args.preset)
        elif getattr(args, "config_json", None):
            config = FuzzyFDConfig.from_json(args.config_json)
        else:
            config = FuzzyFDConfig()
        overrides = {
            knob: getattr(args, knob) for knob in flags if knob in explicit
        }
        if (
            overrides.get("store_dir")
            and "store_mode" not in explicit
            and config.store_mode == "off"
        ):
            # --store-dir alone should engage persistence: lift the config's
            # "off" to the flag's readwrite default.  A preset or JSON that
            # chose "read"/"readwrite" (or an explicit --store-mode) wins.
            overrides["store_mode"] = "readwrite"
        return config.replace(**overrides) if overrides else config
    except (ValueError, TypeError, OSError) as error:
        raise SystemExit(f"error: {error}") from None


def cmd_integrate(args: argparse.Namespace) -> int:
    """``repro integrate``: fuzzy (or regular) integration of CSV tables."""
    tables = _collect_tables(args.inputs)
    config = _build_config(args)
    engine = IntegrationEngine(config)
    result = engine.integrate(tables, fuzzy=not args.regular)
    mode = "regular FD" if args.regular else "fuzzy FD"
    print(
        f"integrated {len(tables)} tables "
        f"({sum(t.num_rows for t in tables)} input tuples) with {mode}: "
        f"{result.table.num_rows} output tuples"
    )
    if args.output:
        path = write_csv(result.table, args.output)
        print(f"wrote {path}")
    else:
        print()
        print(result.table.to_pretty_string(max_rows=args.max_rows))
    if args.show_rewrites and result.value_matching:
        print("\nvalue rewrites:")
        for group, matching in result.value_matching.items():
            for column_id in matching.column_order:
                for original, representative in matching.rewrite_map(column_id).items():
                    print(f"  [{group}] {column_id[0]}: {original!r} -> {representative!r}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    """``repro match``: fuzzy value matching over one column per input table."""
    tables = _collect_tables(args.inputs)
    columns: List[ColumnValues] = []
    for table in tables:
        column = args.column if args.column in table.schema else table.columns[0]
        values = table.distinct_values(column)
        if values:
            columns.append(ColumnValues((table.name, column), values))
    if len(columns) < 2:
        raise SystemExit("error: need at least two non-empty columns to match")
    try:
        matcher = ValueMatcher(
            get_embedder(args.embedder),
            threshold=args.threshold,
            blocking=args.blocking,
            semantic_blocking=args.semantic_blocking,
            ann_top_k=args.ann_top_k,
            ann_index=args.ann_index,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    result = matcher.match_columns(columns)
    multi = [match_set for match_set in result.sets if len(match_set) > 1]
    print(f"{len(result.sets)} value sets ({len(multi)} with fuzzy matches):")
    for match_set in result.sets:
        if len(match_set) == 1 and not args.all:
            continue
        members = ", ".join(f"{column[0]}:{value!r}" for column, value in match_set.members)
        print(f"  ({members}) -> {match_set.representative!r}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    """``repro benchmark``: run one of the paper's experiments."""
    from repro.evaluation.experiments import (
        run_downstream_em_experiment,
        run_figure3_experiment,
        run_table1_experiment,
    )
    from repro.evaluation.reporting import (
        format_markdown_table,
        format_runtime_series,
        format_scores_table,
    )

    if args.experiment == "table1":
        scores = run_table1_experiment(
            n_sets=args.sets, values_per_column=args.values_per_column
        )
        print(format_scores_table(scores))
    elif args.experiment == "em":
        scores = run_downstream_em_experiment(n_sets=max(1, args.sets // 8))
        rows = [
            [method, f"{s.precision:.2f}", f"{s.recall:.2f}", f"{s.f1:.2f}"]
            for method, s in scores.items()
        ]
        print(format_markdown_table(["Method", "Precision", "Recall", "F1"], rows))
    elif args.experiment == "fig3":
        points = run_figure3_experiment(sizes=args.sizes)
        print(format_runtime_series(points))
    else:  # pragma: no cover - argparse restricts the choices
        raise SystemExit(f"unknown experiment {args.experiment!r}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the HTTP serving layer until interrupted."""
    import asyncio

    from repro.service import IntegrationService
    from repro.service.http import serve_forever
    from repro.service.processes import default_processes, serve_processes

    processes = default_processes() if args.processes is None else args.processes
    if processes < 1:
        raise SystemExit(f"error: --processes must be >= 1, got {processes}")
    config = _build_config(args, flags=_SERVE_CONFIG_FLAGS)
    service = IntegrationService(config)
    store = service.engine.store
    if store is not None:
        print(f"artifact store attached at {store.root} (mode={config.store_mode})")
    try:
        if processes == 1:
            asyncio.run(serve_forever(service, host=args.host, port=args.port))
        else:
            serve_processes(service, args.host, args.port, processes)
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


# ---------------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------------


def _add_engine_config_flags(parser: argparse.ArgumentParser) -> None:
    """The engine-config flags ``integrate`` and ``serve`` share.

    Every flag uses :class:`_TrackedStore` so ``--preset``/``--config-json``
    stay the base configuration and only explicitly passed flags override it.
    """
    config_source = parser.add_mutually_exclusive_group()
    config_source.add_argument(
        "--preset",
        type=_registry_name(PRESETS),
        help=f"start from a named configuration preset ({', '.join(available_presets())}); "
        "explicitly passed flags still override it",
    )
    config_source.add_argument(
        "--config-json",
        metavar="PATH",
        help="load the configuration from a JSON file (FuzzyFDConfig.from_json); "
        "explicitly passed flags still override it",
    )
    parser.add_argument(
        "--embedder", default="mistral", type=_registry_name(EMBEDDERS),
        action=_TrackedStore, help="embedding model registry name",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.7, action=_TrackedStore,
        help="matching threshold θ",
    )
    parser.add_argument(
        "--fd-algorithm", default="alite", type=_registry_name(FD_ALGORITHMS),
        action=_TrackedStore, help="full disjunction algorithm registry name",
    )
    parser.add_argument(
        "--alignment", default="by_name", type=_registry_name(ALIGNMENT_STRATEGIES),
        action=_TrackedStore, help="alignment strategy registry name",
    )
    parser.add_argument(
        "--blocking",
        default="off",
        choices=["off", "on", "auto"],
        action=_TrackedStore,
        help="route wide column pairs through the component-wise blocked matcher",
    )
    parser.add_argument(
        "--semantic-blocking",
        dest="semantic_blocking",
        default="off",
        choices=["off", "on", "auto"],
        action=_TrackedStore,
        help="ANN candidate channel of the blocked matcher: union embedding-nearest "
        "pairs with the surface-key candidates (on = always, auto = only when "
        "surface keys leave values uncovered; requires --blocking on/auto for 'on')",
    )
    parser.add_argument(
        "--ann-top-k",
        dest="ann_top_k",
        type=int,
        default=5,
        action=_TrackedStore,
        help="candidate pairs the semantic channel emits per probing value",
    )
    parser.add_argument(
        "--ann-index",
        dest="ann_index",
        default="lsh",
        choices=["lsh", "ivf"],
        action=_TrackedStore,
        help="semantic-channel retrieval index: lsh (hyperplane tables, with "
        "automatic IVF fallback on skewed buckets) or ivf (force the seeded "
        "k-means inverted-file index)",
    )
    parser.add_argument(
        "--workers",
        dest="max_workers",
        type=int,
        default=1,
        action=_TrackedStore,
        help="worker bound of the parallel execution layer (1 = single-threaded)",
    )
    parser.add_argument(
        "--parallel-backend",
        dest="parallel_backend",
        default="thread",
        choices=["serial", "thread"],
        action=_TrackedStore,
        help="executor backend used when --workers > 1",
    )
    parser.add_argument(
        "--store-dir",
        dest="store_dir",
        default=None,
        action=_TrackedStore,
        help="directory of the persistent artifact store (memmapped embeddings "
        "and durable ANN indexes); repeated invocations over the same values "
        "start warm",
    )
    parser.add_argument(
        "--store-mode",
        dest="store_mode",
        default="readwrite",
        choices=["off", "read", "readwrite"],
        action=_TrackedStore,
        help="how --store-dir is used: readwrite (attach and publish, the "
        "default), read (attach only), off (ignore the directory)",
    )
    parser.add_argument(
        "--degraded-mode",
        dest="degraded_mode",
        default="off",
        choices=["off", "surface", "fail"],
        action=_TrackedStore,
        help="what matching does while the embedder circuit breaker is open: "
        "off = propagate the error, surface = answer with exact + surface-"
        "blocking matches only (marked degraded), fail = typed unavailable "
        "error (HTTP 503 with Retry-After under serve)",
    )
    parser.add_argument(
        "--retry-max-attempts",
        dest="retry_max_attempts",
        type=int,
        default=3,
        action=_TrackedStore,
        help="embedding attempts per batch before the failure counts against "
        "the circuit breaker (1 = no retries)",
    )
    parser.add_argument(
        "--retry-backoff-ms",
        dest="retry_backoff_ms",
        type=float,
        default=50.0,
        action=_TrackedStore,
        help="base backoff between embedding retries (doubles per attempt, "
        "capped at 8x, with deterministic jitter)",
    )
    parser.add_argument(
        "--breaker-failure-threshold",
        dest="breaker_failure_threshold",
        type=int,
        default=5,
        action=_TrackedStore,
        help="consecutive embedding failures (after retries) that open the "
        "circuit breaker",
    )
    parser.add_argument(
        "--breaker-reset-ms",
        dest="breaker_reset_ms",
        type=float,
        default=30_000.0,
        action=_TrackedStore,
        help="open window of the circuit breaker before a half-open probe "
        "is admitted",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy Integration of Data Lake Tables — command line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    integrate_parser = subparsers.add_parser(
        "integrate", help="integrate CSV tables with (fuzzy) Full Disjunction"
    )
    integrate_parser.add_argument("inputs", nargs="+", help="CSV files or directories")
    integrate_parser.add_argument("--output", "-o", help="write the integrated table to this CSV")
    integrate_parser.add_argument("--regular", action="store_true", help="use equi-join FD (no fuzziness)")
    _add_engine_config_flags(integrate_parser)
    integrate_parser.add_argument("--max-rows", type=int, default=20, help="rows to print without --output")
    integrate_parser.add_argument("--show-rewrites", action="store_true", help="print the value rewrites applied")
    integrate_parser.set_defaults(func=cmd_integrate)

    match_parser = subparsers.add_parser("match", help="fuzzy value matching over aligned columns")
    match_parser.add_argument("inputs", nargs="+", help="CSV files or directories (one column each)")
    match_parser.add_argument("--column", default="value", help="column name to match (default: first column)")
    match_parser.add_argument(
        "--embedder", default="mistral", type=_registry_name(EMBEDDERS),
        help="embedding model registry name",
    )
    match_parser.add_argument("--threshold", type=float, default=0.7)
    match_parser.add_argument(
        "--blocking",
        default="off",
        choices=["off", "on", "auto"],
        help="route wide column pairs through the component-wise blocked matcher",
    )
    match_parser.add_argument(
        "--semantic-blocking",
        dest="semantic_blocking",
        default="off",
        choices=["off", "on", "auto"],
        help="union ANN embedding-neighbour candidates with the surface keys",
    )
    match_parser.add_argument(
        "--ann-top-k",
        dest="ann_top_k",
        type=int,
        default=5,
        help="candidate pairs the semantic channel emits per probing value",
    )
    match_parser.add_argument(
        "--ann-index",
        dest="ann_index",
        default="lsh",
        choices=["lsh", "ivf"],
        help="semantic-channel retrieval index (lsh or ivf)",
    )
    match_parser.add_argument("--all", action="store_true", help="also print singleton sets")
    match_parser.set_defaults(func=cmd_match)

    benchmark_parser = subparsers.add_parser("benchmark", help="run one of the paper's experiments")
    benchmark_parser.add_argument("experiment", choices=["table1", "em", "fig3"])
    benchmark_parser.add_argument("--sets", type=int, default=31, help="number of integration sets")
    benchmark_parser.add_argument("--values-per-column", type=int, default=100)
    benchmark_parser.add_argument("--sizes", type=int, nargs="+", default=[500, 1000, 1500, 2000])
    benchmark_parser.set_defaults(func=cmd_benchmark)

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP serving layer over one long-lived engine"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 = let the OS pick; the bound port is printed)",
    )
    serve_parser.add_argument(
        "--processes", type=int, default=None,
        help="server processes pre-forked after boot, sharing one listening "
        "socket (default: the CPUs this process may run on; 1 = one process, "
        "no fork)",
    )
    _add_engine_config_flags(serve_parser)
    serve_parser.add_argument(
        "--max-pending",
        dest="service_max_pending",
        type=int,
        default=32,
        action=_TrackedStore,
        help="admitted-but-not-executing requests the service buffers before "
        "rejecting with ServiceOverloaded (0 = reject whenever all slots busy)",
    )
    serve_parser.add_argument(
        "--max-concurrency",
        dest="service_max_concurrency",
        type=int,
        default=4,
        action=_TrackedStore,
        help="requests executed concurrently on the engine-owned worker pool",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        dest="service_deadline_ms",
        type=float,
        default=None,
        action=_TrackedStore,
        help="default per-request deadline budget in milliseconds, checked at "
        "stage boundaries (unset = no deadline)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
