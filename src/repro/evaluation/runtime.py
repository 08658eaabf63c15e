"""Runtime sweep harness (Figure 3).

Runs regular Full Disjunction (ALITE) and Fuzzy Full Disjunction over
integration sets of increasing size and records the wall-clock time of each,
producing the two series of the paper's Figure 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import FuzzyFDConfig
from repro.core.engine import IntegrationEngine
from repro.table.table import Table


@dataclass
class RuntimePoint:
    """One measurement of the Figure 3 sweep."""

    input_tuples: int
    method: str
    seconds: float
    output_tuples: int

    def as_dict(self) -> Dict[str, object]:
        """The point as a dictionary (used by the report formatter)."""
        return {
            "input_tuples": self.input_tuples,
            "method": self.method,
            "seconds": round(self.seconds, 4),
            "output_tuples": self.output_tuples,
        }


def runtime_sweep(
    table_factory: Callable[[int], Sequence[Table]],
    sizes: Sequence[int],
    config: Optional[FuzzyFDConfig] = None,
    methods: Sequence[str] = ("regular_fd", "fuzzy_fd"),
) -> List[RuntimePoint]:
    """Measure integration runtime for each size and method.

    Parameters
    ----------
    table_factory:
        Builds the integration set for a given total input-tuple count
        (e.g. ``ImdbBenchmark().tables``).
    sizes:
        Input-tuple counts to sweep (the paper uses 5K–30K).
    config:
        Pipeline configuration shared by both methods.
    methods:
        Which of ``"regular_fd"`` (ALITE) and ``"fuzzy_fd"`` to measure.
    """
    config = config if config is not None else FuzzyFDConfig()
    points: List[RuntimePoint] = []
    for size in sizes:
        tables = list(table_factory(size))
        actual_input = sum(table.num_rows for table in tables)
        for method in methods:
            if method not in ("regular_fd", "fuzzy_fd"):
                raise ValueError(f"unknown method {method!r}")
            engine = IntegrationEngine(config)
            start = time.perf_counter()
            result = engine.integrate(tables, fuzzy=method == "fuzzy_fd")
            elapsed = time.perf_counter() - start
            points.append(
                RuntimePoint(
                    input_tuples=actual_input,
                    method=method,
                    seconds=elapsed,
                    output_tuples=result.table.num_rows,
                )
            )
    return points


def overhead_ratio(points: Sequence[RuntimePoint]) -> Dict[int, float]:
    """Per-size ratio fuzzy/regular runtime (≈ 1.0 means no significant overhead)."""
    by_size: Dict[int, Dict[str, float]] = {}
    for point in points:
        by_size.setdefault(point.input_tuples, {})[point.method] = point.seconds
    ratios: Dict[int, float] = {}
    for size, methods in sorted(by_size.items()):
        if "regular_fd" in methods and "fuzzy_fd" in methods and methods["regular_fd"] > 0:
            ratios[size] = methods["fuzzy_fd"] / methods["regular_fd"]
    return ratios
