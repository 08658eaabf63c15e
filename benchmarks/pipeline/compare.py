"""Compare two sets of runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/pipeline/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of the same
code), ``B`` the candidate; both are records written by ``run.py``.  One row
per (end-to-end metric, workload): medians, quartiles, the ratio B ÷ A, and a
verdict:

``same``        B's median is within the bound of A's
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  the run-to-run spread (p75 − p25 over the median, either
                side) is wider than the bound, so the medians cannot be told
                apart — unless every run of B reads better than every run of
                A, or every run worse

The spread of ``setup_s`` is exempt, as in the driver's own acceptance rule.
Per-layer metrics have no bound; where both records hold a traced run they
are listed with their ratio only.  Exits 1 on any ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(base: Dict[str, Any], candidate: Dict[str, Any], better: str, bound: float, exempt: bool) -> str:
    """The verdict of one (metric, workload) row; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (candidate["median"] - base["median"]) / abs(base["median"])
    if not exempt and max(base["spread"], candidate["spread"]) > bound:
        ordered = [sign * value for value in base["values"]], [sign * value for value in candidate["values"]]
        if max(ordered[1]) < min(ordered[0]):
            return "better"
        if min(ordered[1]) > max(ordered[0]):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def quartiles(item: Dict[str, Any]) -> str:
    if "q1" not in item:
        return f"{item['median']:.5g}"
    return f"{item['median']:.5g} [{item['q1']:.5g}, {item['q3']:.5g}]"


def compare(base: Dict[str, Any], candidate: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (end-to-end metric, workload) present in both records."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        left = base["workloads"].get(workload, {}).get("end_to_end", {})
        right = candidate["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in left or name not in right:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": left[name],
                    "candidate": right[name],
                    "ratio": right[name]["median"] / left[name]["median"],
                    "bound": metric["bound"],
                    "verdict": verdict(left[name], right[name], metric["better"], metric["bound"], name == "setup_s"),
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in arguments)
    spec = json.loads(SPEC.read_text())
    rows = compare(base, candidate, spec)
    print(f"\nA = {arguments[0]}   B = {arguments[1]}   (median [q1, q3]; ratio = B ÷ A)")
    print(f"{'workload':16s} {'metric':16s} {'A':>30s} {'B':>30s} {'ratio':>7s} {'bound':>6s} {'spread A/B':>12s} verdict")
    for row in rows:
        spreads = f"{row['base']['spread']:.3f}/{row['candidate']['spread']:.3f}"
        print(
            f"{row['workload']:16s} {row['metric']:16s} {quartiles(row['base']):>30s} "
            f"{quartiles(row['candidate']):>30s} {row['ratio']:7.3f} {row['bound']:6.2f} {spreads:>12s} {row['verdict']}"
        )
    for workload, entry in base["workloads"].items():
        layers = candidate["workloads"].get(workload, {}).get("per_layer", {})
        for name, item in entry["per_layer"].items():
            if name in layers and item["median"]:
                print(f"{workload:16s} {name:34s} {item['median']:12.5g} {layers[name]['median']:12.5g} {layers[name]['median'] / item['median']:7.3f}")
    noisy = base.get("noisy_runs", 0) + candidate.get("noisy_runs", 0)
    if noisy:
        print(f"{noisy} runs were flagged noisy (the reference loop's fastest and slowest pass of the run differed by more than 15 %)")
    problems = base.get("problems", []) + candidate.get("problems", [])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved, {len(problems)} failed output checks")
    return 1 if bad or problems else 0


if __name__ == "__main__":
    sys.exit(main())
