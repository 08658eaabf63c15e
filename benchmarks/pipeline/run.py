"""The pipeline benchmark: tables in, integrated table out, measured end to end.

One run (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 benchmarks/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload from the seed, measures it for ``S`` seconds through
the public API, checks the outputs and prints one JSON object as the last
line: every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1`` (``layers.py``).

Without ``--workload`` it runs the whole set: ``--rounds`` runs of every
workload, interleaved (``A B C D A B C D …``) so a slow phase of the machine
hits every workload alike, one extra traced run per workload with
``--trace``, medians with quartiles per metric, and ``--self-check`` to run
two sets and compare them against the bounds (``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import measure
from measure import HERE, OUT, ROOT, PassOutput, Server, Speed, Tally, median, spread
from repro.core.engine import IntegrationEngine
from workloads import FULL, SMOKE, WORKLOADS, Workload, build, input_digest, request_tuples

DEFAULT_SEED = 13
DEFAULT_ROUNDS = 5
SELF_CHECK_ROUNDS = 10
SMOKE_SECONDS = 3
SERVE_BLOCK_S = 2.0


def end_to_end(
    setup: List[float],
    operation_s: float,
    tuples: int,
    requests: int,
    busy_s: float,
    rss_mb: float,
    output: PassOutput,
) -> Dict[str, float]:
    """The end-to-end metrics of one run, by the names in ``BENCHMARK.json``.

    Every time is in seconds at reference speed (``measure.Speed``).
    ``operation_s`` is the typical caller-side time of one operation: the
    median pass on a batch workload; on the served one the mean, over the
    pool's requests, of each request's median latency (the median of the
    whole mix would sit between two requests of different cost and jump from
    one to the other).  ``tuples`` and ``requests`` are what the completed
    operations took in, over ``busy_s`` (the served blocks' wall time; for a
    batch workload the operation count times the median operation, so one
    disturbed pass does not move it).
    """
    return {
        "setup_s": median(setup),
        "integrate_s": operation_s,
        "tuples_per_s": tuples / busy_s,
        "requests_per_s": requests / busy_s,
        "peak_rss_mb": rss_mb,
        "match_f1": output.f1,
    }


def compare_outputs(tally: Tally, reference: PassOutput, output: PassOutput, label: str) -> None:
    if output.digests != reference.digests:
        tally.problem(f"{label}: integrated tables differ from the first pass")


# -- the three ways a workload is driven --------------------------------------------
# Each takes the run's ``Speed`` and multiplies every wall time by the scale
# of the two reference loops around it; ``raw_s`` keeps the wall seconds.
def batch_setup(workload: Workload, seed: int, smoke: bool, speed: Speed) -> List[float]:
    """``setup_s`` samples: process start → imports done and engine built."""
    return [
        measure.run_child("ready", workload.name, seed, smoke)["ready_s"] * speed.scale()
        for _ in range(measure.SETUP_PROBES)
    ]


def run_warm(workload: Workload, seconds: float, tally: Tally, speed: Speed) -> Dict[str, Any]:
    """One operation = one pass over the pool through one warm engine."""
    with IntegrationEngine(workload.preset) as engine:
        # One untimed pass fills the embedding cache; it is also the reference
        # every timed pass must reproduce.
        reference = measure.check_pass(workload, measure.integrate_pool(engine, workload))
        latencies: List[float] = []
        raw: List[float] = []
        speed.scale()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            begin = time.perf_counter()
            results = tally.attempt(lambda: measure.integrate_pool(engine, workload))
            elapsed = time.perf_counter() - begin
            scale = speed.scale()
            if results is None:
                continue
            raw.append(elapsed)
            latencies.append(elapsed * scale)
            compare_outputs(tally, reference, measure.check_pass(workload, results), "timed pass")
        if workload.equi:
            regular = measure.check_pass(workload, measure.integrate_pool(engine, workload, fuzzy=False))
            if regular.digests != reference.digests:
                tally.problem("fuzzy FD and regular FD disagree on an equi-join input")
    return {
        "operation_s": median(latencies),
        "latencies": latencies,
        "raw_s": raw,
        "tuples": workload.input_tuples * len(latencies),
        "requests": len(workload.requests) * len(latencies),
        "busy_s": median(latencies) * len(latencies),
        "rss_mb": measure.peak_rss_mb(),
        "output": reference,
    }


def cold_pass(workload: Workload) -> Dict[str, Any]:
    """A fresh engine and one pass over the pool; runs in a fork."""
    start = time.perf_counter()
    with IntegrationEngine(workload.preset) as engine:
        results = measure.integrate_pool(engine, workload)
    seconds = time.perf_counter() - start
    output = measure.check_pass(workload, results)
    return {"seconds": seconds, "rss_mb": measure.peak_rss_mb(), "output": vars(output)}


def run_cold(workload: Workload, seconds: float, tally: Tally, speed: Speed) -> Dict[str, Any]:
    """One operation = the pass on a fresh engine in a process that never embedded.

    A fresh engine in a used process is not cold: the embedders memoise
    their n-gram directions per process, which made a second "cold" pass 5×
    faster than the first when this benchmark was sized.  So every pass runs
    in a fork of this process, which holds the imports and the tables and
    has never called the program.  A fork and not a new interpreter, so that
    the clock covers the fork's whole life and the reference loops stand right
    beside it, and twice as many passes fit into a run.
    """
    children: List[Dict[str, Any]] = []
    latencies: List[float] = []
    measure.forked(lambda: cold_pass(workload))  # untimed: the pages it frees serve the next fork
    speed.scale()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        child = tally.attempt(lambda: measure.forked(lambda: cold_pass(workload)))
        scale = speed.scale()
        if child is not None:
            children.append(child)
            latencies.append(child["seconds"] * scale)
    outputs = [PassOutput(**child["output"]) for child in children]
    for output in outputs[1:]:
        compare_outputs(tally, outputs[0], output, "cold pass")
    return {
        "operation_s": median(latencies),
        "latencies": latencies,
        "raw_s": [child["seconds"] for child in children],
        "tuples": workload.input_tuples * len(children),
        "requests": len(workload.requests) * len(children),
        "busy_s": median(latencies) * len(latencies),
        "rss_mb": median([child["rss_mb"] for child in children]),
        "output": outputs[0],
    }


def run_serve(workload: Workload, seconds: float, tally: Tally, speed: Speed) -> Dict[str, Any]:
    """One operation = one ``POST /integrate`` against ``repro serve``.

    Phase A boots on an empty store and posts every request once, which
    publishes the store.  The server is then rebooted on the published store
    ``SETUP_PROBES`` times (``setup_s``); the last one serves phase B, the
    timed closed loop, in which no request may reach the raw embedder.  The
    loop runs in blocks of ``SERVE_BLOCK_S`` with the reference loop between
    them, while the server idles.
    """
    with IntegrationEngine(workload.preset) as engine:
        direct = measure.check_pass(workload, measure.integrate_pool(engine, workload))
    bodies = [measure.request_body(tables) for tables in workload.requests]
    scratch = measure.scratch_dir("serve")
    store = scratch / "store"
    try:
        with Server(workload.preset, store, scratch / "phase-a.log") as server:
            for index, body in enumerate(bodies):
                measure.post_integrate(server, index, body, direct.digests[index], tally)
        setup = []
        speed.scale()
        for probe in range(measure.SETUP_PROBES - 1):
            with Server(workload.preset, store, scratch / f"phase-b-{probe}.log") as server:
                ready_s = server.ready_s
            setup.append(ready_s * speed.scale())
        with Server(workload.preset, store, scratch / "phase-b.log") as server:
            setup.append(server.ready_s * speed.scale())
            # Untimed: the first requests of a process import lazily.
            measure.closed_loop(server, bodies, direct.digests, Tally(), 0.0)
            speed.scale()
            samples: List[measure.ServedSample] = []
            latencies: List[float] = []
            busy_s = 0.0
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                block, wall_s = measure.closed_loop(server, bodies, direct.digests, tally, SERVE_BLOCK_S)
                scale = speed.scale()
                samples += block
                latencies += [sample.latency_s * scale for sample in block]
                busy_s += wall_s * scale
            rss_mb = server.peak_rss_mb()
            stats = json.loads(server.call("GET", "/stats")[1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw_embeds = sum(sample.raw_embed_calls for sample in samples)
    if raw_embeds:
        tally.problem(f"warm server made {raw_embeds:.0f} raw embed calls on a published store")
    if stats.get("served", 0) < len(samples):
        tally.problem(f"/stats counts {stats.get('served')} served, the clients {len(samples)}")
    by_request: Dict[int, List[float]] = {}
    for sample, latency in zip(samples, latencies):
        by_request.setdefault(sample.request, []).append(latency)
    return {
        "setup": setup,
        "operation_s": statistics.mean(median(values) for values in by_request.values()),
        "latencies": latencies,
        "raw_s": [sample.latency_s for sample in samples],
        "tuples": sum(request_tuples(workload.requests[sample.request]) for sample in samples),
        "requests": len(samples),
        "busy_s": busy_s,
        "rss_mb": rss_mb,
        "output": direct,
    }


# -- one run ------------------------------------------------------------------------
def run_once(args: argparse.Namespace) -> int:
    """Measure one workload and print the result object as the last line."""
    spec = measure.spec()
    sizes = SMOKE if args.smoke else FULL
    tally = Tally()
    workload = build(args.workload, args.seed, sizes)
    digest = input_digest(workload)
    if digest != input_digest(build(args.workload, args.seed, sizes)):
        tally.problem("the same seed generated different tables")
    speed = Speed()

    details: Dict[str, Any]
    if args.trace:
        import layers

        values, details = layers.traced_run(workload, args.seed, args.smoke, args.seconds, tally)
        speed.scale()
        values["bench.calibration_s"] = median(speed.loops)
        expected = spec["per_layer"]
    else:
        if workload.mode == "serve":
            run = run_serve(workload, args.seconds, tally, speed)
        else:
            setup = batch_setup(workload, args.seed, args.smoke, speed)
            if workload.mode == "cold":
                run = run_cold(workload, args.seconds, tally, speed)
            else:
                run = run_warm(workload, args.seconds, tally, speed)
            run["setup"] = setup
        output: PassOutput = run.pop("output")
        raw, latencies = run.pop("raw_s"), run.pop("latencies")
        values = end_to_end(output=output, **run)
        details = {
            "operations": len(raw),
            "latencies_s": latencies,
            "raw_latencies_s": raw,
            "setup_s": run["setup"],
            "precision": output.precision,
            "recall": output.recall,
            "rewrites": output.rewrites,
            "digests": output.digests,
        }
        expected = spec["end_to_end"]

    names = [entry["name"] for entry in expected]
    if set(names) != set(values):
        print(f"BENCHMARK.json and the code disagree on {sorted(set(names) ^ set(values))}", file=sys.stderr)
        return 1
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in expected}
    result = {
        "correct": not tally.problems,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }
    details.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, input_digest=digest, input_tuples=workload.input_tuples,
        reference_loops_s=speed.loops, noisy=speed.noisy, problems=tally.problems, result=result,
    )
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(details, indent=1) + "\n")
    print_run(workload, details, metrics)
    print(json.dumps(result))
    return 0


def print_run(workload: Workload, details: Dict[str, Any], metrics: Dict[str, Any]) -> None:
    _generator, why = WORKLOADS[workload.name]
    print(f"workload {workload.name} (seed {details['seed']}, {workload.input_tuples} input tuples): {why}")
    loops = details["reference_loops_s"]
    if not details["trace"]:
        print(
            f"  {details['operations']} operations, precision {details['precision']:.4f}, "
            f"recall {details['recall']:.4f}, {details['rewrites']} rewrites"
        )
        print(
            f"  times are in seconds at reference speed: wall × {measure.REFERENCE_S} ÷ the reference loops beside "
            f"each sample; median wall seconds per operation {median(details['raw_latencies_s']):.6g}, "
            f"median loop {median(loops):.4f} s"
        )
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
    if details["noisy"]:
        print(f"  NOISY: the reference loop took between {min(loops):.4f} s and {max(loops):.4f} s during the run")
    for problem in details["problems"]:
        print(f"  CHECK FAILED: {problem}")


# -- child processes ----------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Body of ``--child``: work that needs a process nothing has run in."""
    workload = build(args.workload, args.seed, SMOKE if args.smoke else FULL)
    if args.child == "ready":
        IntegrationEngine(workload.preset)
        print(json.dumps({"ready_s": time.time() - args.spawned_at}))
    elif args.child == "embed":
        import layers

        print(json.dumps(layers.embed_probe(workload)))
    return 0


# -- the whole set ------------------------------------------------------------------
def run_rounds(args: argparse.Namespace, label: str, seeds: List[int]) -> Dict[str, Any]:
    """Run every selected workload once per seed, interleaved; returns the set."""
    spec = measure.spec()
    names = [args.only] if args.only else list(WORKLOADS)
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec["run_seconds"])
    plan = [(name, seed, 0) for seed in seeds for name in names]
    if args.trace:
        plan += [(name, seeds[0], 1) for name in names]
    runs: List[Dict[str, Any]] = []
    for name, seed, trace in plan:
        path = OUT / f"{label}-{name}-seed{seed}-trace{trace}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--output", str(path),
        ] + (["--smoke"] if args.smoke else [])
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"run {name} seed {seed} trace {trace} exited {done.returncode}")
        details = json.loads(path.read_text())
        details["run_wall_s"] = wall
        runs.append(details)
        flag = " NOISY" if details["noisy"] else ""
        print(f"[{label}] {name} seed {seed} trace {trace}: {wall:.1f} s{flag}", flush=True)
        if trace:
            sys.stdout.write(done.stdout)
    return summarise(runs, spec)


def summarise(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Per (workload, metric): every run's value with median, quartiles, min, n."""
    summary: Dict[str, Any] = {"workloads": {}, "problems": [], "attempted": 0, "failed": 0, "noisy_runs": 0}
    for details in runs:
        result = details["result"]
        entry = summary["workloads"].setdefault(details["workload"], {"end_to_end": {}, "per_layer": {}, "digests": {}})
        kind = "per_layer" if details["trace"] else "end_to_end"
        for name, value in result["metrics"].items():
            entry[kind].setdefault(name, {"unit": value["unit"], "values": []})["values"].append(value["value"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["noisy_runs"] += bool(details["noisy"])
        summary["problems"] += [f"{details['workload']} seed {details['seed']}: {p}" for p in details["problems"]]
        if not details["trace"]:
            # The same seed must integrate to the same tables in every round.
            seen = entry["digests"].setdefault(str(details["seed"]), details["digests"])
            if seen != details["digests"]:
                summary["problems"].append(f"{details['workload']} seed {details['seed']}: digests differ across rounds")
    for entry in summary["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for item in entry[kind].values():
                values = item["values"]
                item.update(median=median(values), min=min(values), n=len(values), spread=spread(values))
                if len(values) >= 2:
                    item["q1"], _q2, item["q3"] = statistics.quantiles(values, n=4)
    summary["failed_ratio"] = summary["failed"] / max(1, summary["attempted"])
    summary["correct"] = not summary["problems"]
    return summary


def print_summary(summary: Dict[str, Any]) -> None:
    for name, entry in summary["workloads"].items():
        print(f"\n{name}: {WORKLOADS[name][1]}")
        for kind in ("end_to_end", "per_layer"):
            for metric_name, item in entry[kind].items():
                quartiles = f"q1 {item['q1']:.6g} q3 {item['q3']:.6g} " if "q1" in item else ""
                print(
                    f"  {metric_name:34s} {item['median']:14.6g} {item['unit']:8s} "
                    f"{quartiles}min {item['min']:.6g} n {item['n']} spread {item['spread']:.3f}"
                )
    print(
        f"\nfailed_ratio {summary['failed_ratio']:.6f} ({summary['failed']} of {summary['attempted']} operations), "
        f"{summary['noisy_runs']} noisy runs, outputs {'correct' if summary['correct'] else 'WRONG'}"
    )
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")


def run_set(args: argparse.Namespace) -> int:
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        # What the driver does: ten seeds per workload, twice, compared
        # against the bounds — spread within a set, drift between the sets.
        import compare

        seeds = [args.seed + offset for offset in range(SELF_CHECK_ROUNDS)]
        paths = []
        for label in ("check-a", "check-b"):
            summary = run_rounds(args, label, seeds)
            paths.append(OUT / f"{label}.json")
            paths[-1].write_text(json.dumps(summary, indent=1) + "\n")
            print_summary(summary)
        return compare.main([str(paths[0]), str(paths[1])])
    summary = run_rounds(args, "round", [args.seed] * args.rounds)
    print_summary(summary)
    output = Path(args.output) if args.output else OUT / "pipeline.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"written to {output}")
    return 0 if summary["correct"] and not summary["failed"] else 1


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="measure this workload once (the driver's form)")
    parser.add_argument("--only", choices=list(WORKLOADS), help="restrict the whole-set form to one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--smoke", action="store_true", help="small inputs, 1 round, 3 s per run")
    parser.add_argument("--self-check", action="store_true", help="two sets of ten seeds through compare.py")
    parser.add_argument("--output", help="where to write the JSON record")
    parser.add_argument("--child", choices=("ready", "embed"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds = 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    measure.keep_heap()
    if args.child:
        return child_main(args)
    if args.workload:
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else measure.spec()["run_seconds"]
        return run_once(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
