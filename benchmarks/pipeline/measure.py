"""Building blocks shared by the untraced run (``run.py``) and the traced one
(``layers.py``): child processes, the ``repro serve`` process and its HTTP
client, output checks and the reference loop that tells the machine's speed.

Only the public API of the program is used: ``IntegrationEngine``,
``repro.evaluation.metrics`` for F1, and ``python -m repro.cli serve`` over
HTTP.
"""

from __future__ import annotations

import ctypes
import http.client
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

# One BLAS thread in this process and in every process it starts.  Sized on
# this 2-core box with the variable unset, a warm lake_mixed request flipped
# between 3.6 s (≈500 voluntary context switches) and 4.9 s (≈67 000, +1 s of
# system time) from one call to the next while OpenBLAS workers spun against
# the engine's own thread pool; pinned, it stays at 3.1–3.7 s.  A benchmark
# that cannot tell 35 % from nothing measures nothing, so the pin is part of
# the benchmark's environment.  It must precede the numpy import.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SRC = ROOT / "src"
# The program under test.  In a directory that holds only the benchmark this
# import fails and the command exits non-zero, as the contract asks.
sys.path.insert(0, str(SRC))

from repro.core.engine import FuzzyIntegrationResult, IntegrationEngine  # noqa: E402
from repro.evaluation.metrics import macro_average, score_match_sets  # noqa: E402
from repro.service.http import table_to_json  # noqa: E402

from workloads import Workload, rows_digest, table_digest  # noqa: E402

SETUP_PROBES = 7
CLIENTS = min(2, os.cpu_count() or 1)
CHILD_TIMEOUT_S = 150


def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric and workload names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def keep_heap() -> None:
    """Memory the program frees stays in its heap, here and in every child.

    In this process through ``mallopt``, in every process it starts through
    the variables glibc reads at start-up: no ``mmap`` per large array, no
    trimming.  This guest reports free pages to its host, which drops them
    within seconds, and most of its 16 GB were never touched at all.
    Touching 256 MB took 0.07 s when the pages had just been freed, 1.4 s
    thirty seconds later and 2–7 s on never-used memory, all of it system time
    that nothing in the program explains: a warm lake_mixed request, which
    frees and reallocates ≈ 100 MB of arrays, read 1.7 s or 2.9 s depending
    on which pages the kernel happened to hand out.  With the heap kept, a
    warm request touches no new page.
    """
    trim_threshold, mmap_max = -1, -4  # M_TRIM_THRESHOLD, M_MMAP_MAX of <malloc.h>
    os.environ.update(MALLOC_MMAP_MAX_="0", MALLOC_TRIM_THRESHOLD_=str(2**31 - 1))
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(mmap_max, 0)
        libc.mallopt(trim_threshold, 2**31 - 1)
    except (OSError, AttributeError):  # not glibc: the benchmark runs, only noisier
        pass


# -- small statistics ---------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def spread(values: Sequence[float]) -> float:
    """(p75 − p25) ÷ median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


# -- the machine's speed ------------------------------------------------------------
# This box is a small guest on a shared host: the same request takes 0.6 s in
# one minute and 1.0 s in the next, for minutes at a time, with all of the
# difference in user time.  Ten runs of a workload then spread by a quarter of
# their median whatever the program does.  So every timed sample is taken
# between two runs of a fixed reference loop, and reported in seconds *at
# reference speed*: wall seconds × REFERENCE_S ÷ the mean of the two loops.
# The loop is the benchmark's own (plain Python and numpy, nothing of
# ``src/``), so a change to the program moves a metric by exactly its share.
# Its two halves were picked by tracing candidates beside 0.6–1.7 s requests
# for five minutes each: a random walk over a heap of tuples into a dict, and
# FD-like small-array numpy calls keyed by ``tobytes``.  Their sum brought the
# spread of 20 s window medians from 0.14–0.19 to 0.03–0.04 (imdb_equi) and
# from 0.17–0.19 to 0.05–0.06 (lake_mixed); an arithmetic-only loop, a BLAS
# call and a page-faulting allocation loop each tracked the requests worse
# than the machine varies.
REFERENCE_S = 0.07  # what the loop takes on this box when the host is quiet
_REFERENCE_ROWS = 120_000
_REFERENCE_LOOKUPS = 60_000
_REFERENCE_TUPLES = 1_200
_REFERENCE_WIDTH = 12
_reference_data: Optional[tuple] = None


def _reference_inputs() -> tuple:
    global _reference_data
    if _reference_data is None:
        rng = random.Random(1)
        heap = [(rng.randrange(10**6), str(rng.randrange(10**6)), None) for _ in range(_REFERENCE_ROWS)]
        walk = [rng.randrange(_REFERENCE_ROWS) for _ in range(_REFERENCE_LOOKUPS)]
        codes = np.random.default_rng(2).integers(-1, 40, size=(_REFERENCE_TUPLES, _REFERENCE_WIDTH))
        _reference_data = (heap, walk, codes.astype(np.int32))
    return _reference_data


def reference() -> float:
    """Seconds of the fixed reference loop; see the note above."""
    heap, walk, data = _reference_inputs()
    start = time.perf_counter()
    sums: Dict[str, int] = {}
    for position in walk:
        row = heap[position]
        sums[row[1]] = sums.get(row[1], 0) + row[0]
    postings: Dict[tuple, List[int]] = {}
    known: Dict[bytes, int] = {}
    for tuple_id in range(_REFERENCE_TUPLES):
        current = data[tuple_id]
        buckets = []
        for column in range(_REFERENCE_WIDTH):
            code = int(current[column])
            if code < 0:
                continue
            bucket = postings.setdefault((column, code), [])
            if bucket:
                buckets.append(np.asarray(bucket[-16:], dtype=np.int64))
            bucket.append(tuple_id)
        known[current.tobytes()] = tuple_id
        if not buckets:
            continue
        candidates = np.concatenate(buckets)
        block = data[candidates]
        conflict = ((block >= 0) & (current >= 0) & (block != current)).any(axis=1)
        consistent = np.unique(candidates[~conflict])
        if consistent.size:
            merged = np.where(data[consistent] >= 0, data[consistent], current)
            known.get(merged[0].tobytes())
    return time.perf_counter() - start


class Speed:
    """The reference loop, run before the first sample and after every one."""

    def __init__(self) -> None:
        reference()  # builds the inputs and warms the loop
        self.loops = [reference()]

    def scale(self) -> float:
        """Run the loop again; returns what converts the wall seconds spent
        since the previous loop into seconds at reference speed."""
        self.loops.append(reference())
        return REFERENCE_S / ((self.loops[-2] + self.loops[-1]) / 2)

    @property
    def noisy(self) -> bool:
        """The machine changed speed by more than 15 % under the run."""
        return max(self.loops) > 1.15 * min(self.loops)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output checks ------------------------------------------------------------------
@dataclass
class PassOutput:
    """What one pass over a workload's pool produced, reduced for checking."""

    digests: List[str]
    f1: float
    precision: float
    recall: float
    rewrites: int


def integrate_pool(engine: IntegrationEngine, workload: Workload, **kwargs: Any) -> List[FuzzyIntegrationResult]:
    """One pass: every request of the pool through ``engine.integrate``."""
    options = {**workload.overrides, **kwargs}
    return [engine.integrate(tables, **options) for tables in workload.requests]


def check_pass(workload: Workload, results: Sequence[FuzzyIntegrationResult]) -> PassOutput:
    """Digests of the integrated tables and value-matching F1 against the gold.

    F1 is the pairwise measure of the paper's Table 1
    (``repro.evaluation.metrics``), macro-averaged over the requests whose
    gold the generator knows.
    """
    scores = []
    for result, gold in zip(results, workload.gold):
        if gold is None:
            continue
        predicted = [
            match_set.members
            for matching in result.value_matching.values()
            for match_set in matching.sets
        ]
        scores.append(score_match_sets(predicted, gold))
    average = macro_average(scores)
    return PassOutput(
        digests=[table_digest(result.table) for result in results],
        f1=average.f1,
        precision=average.precision,
        recall=average.recall,
        rewrites=sum(result.rewrites_applied() for result in results),
    )


@dataclass
class Tally:
    """Operations attempted and failed, and every failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems = (self.problems + other.problems)[:20]

    def attempt(self, operation: Callable[[], Any]) -> Any:
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return operation()
        except Exception:  # noqa: BLE001 — counted, reported, the run goes on
            self.failed += 1
            traceback.print_exc()
            return None


# -- child processes ----------------------------------------------------------------
def run_child(kind: str, workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """Run ``run.py --child kind`` in a fresh process; returns its JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", kind, "--workload", workload,
        "--seed", str(seed), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"child {kind} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def forked(operation: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """Run ``operation`` in a fork of this process; returns its (JSON) result.

    The fork holds this process's imports and inputs and none of what an
    earlier fork left behind, so whatever the program memoises per process is
    empty again — as long as this process never runs the program itself.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(operation(), pipe)
            status = 0
        except BaseException:  # noqa: BLE001 — reported by the exit status
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked operation ended with wait status {status}")
    return json.loads(text)


# -- the served path ----------------------------------------------------------------
def scratch_dir(label: str) -> Path:
    """A fresh directory under ``out/`` (the benchmark writes nowhere else)."""
    path = OUT / f"tmp-{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def request_body(tables: Sequence[Any]) -> bytes:
    return json.dumps({"tables": [table_to_json(table) for table in tables]}).encode("utf-8")


class Server:
    """A real ``python -m repro.cli serve`` process on an OS-assigned port.

    ``ready_s`` is spawn → first healthy ``/healthz``.  The process writes
    its output to a file, which is also where the port is read from, so a
    chatty server can never block on a full pipe.
    """

    def __init__(self, preset: str, store_dir: Path, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w")
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--preset", preset,
                "--store-dir", str(store_dir), "--port", "0",
            ],
            cwd=ROOT, env=environment, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_for_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - spawned

    def _wait_for_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout_s
        marker = "serving on http://"
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.process.returncode}: {text[-2000:]}")
            time.sleep(0.002)
        raise RuntimeError("repro serve did not bind within the timeout")

    def _wait_healthy(self, timeout_s: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            try:
                status, body = self.call("GET", "/healthz")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200 and json.loads(body).get("status") == "healthy":
                return
            time.sleep(0.002)
        raise RuntimeError("repro serve never reported healthy")

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> tuple:
        """One request on one connection (the server closes after each)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json", "Connection": "close"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class ServedSample:
    """One completed ``POST /integrate`` as the client and the server saw it."""

    request: int
    latency_s: float
    total_s: float
    queue_wait_s: float
    raw_embed_calls: float
    response_bytes: int


def post_integrate(
    server: Server, index: int, body: bytes, expected_digest: str, tally: Tally
) -> Optional[ServedSample]:
    """POST one request; anything but a correct ``ok`` answer is a failure."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        status, raw = server.call("POST", "/integrate", body)
    except (OSError, http.client.HTTPException) as exc:
        tally.failed += 1
        tally.problem(f"request {index}: {type(exc).__name__}: {exc}")
        return None
    latency = time.perf_counter() - start
    payload = json.loads(raw)
    if status != 200 or payload.get("status") != "ok":
        tally.failed += 1
        tally.problem(f"request {index}: HTTP {status}, status {payload.get('status')!r}")
        return None
    table = payload["table"]
    if rows_digest(table["columns"], table["rows"]) != expected_digest:
        tally.problem(f"request {index}: served table differs from the direct engine's")
    trace = payload["trace"]
    return ServedSample(
        request=index,
        latency_s=latency,
        total_s=trace["total_seconds"],
        queue_wait_s=trace["queue_wait_seconds"],
        raw_embed_calls=trace["raw_embed_calls"],
        response_bytes=len(raw),
    )


def closed_loop(
    server: Server, bodies: Sequence[bytes], expected: Sequence[str], tally: Tally, seconds: float
) -> tuple:
    """``CLIENTS`` callers, each sending its next request when the reply is in.

    Callers of an integration API wait for the answer, hence a closed loop.
    The callers cycle through the pool together (one shared counter) and stop
    once ``seconds`` have passed and every request of the pool was sent.
    Returns the samples and the wall seconds of the loop.
    """
    counter = itertools.count()
    start = time.perf_counter()
    clients = [(Tally(), []) for _ in range(CLIENTS)]

    def client(own: Tally, samples: List[ServedSample]) -> None:
        while True:
            number = next(counter)
            if number >= len(bodies) and time.perf_counter() - start >= seconds:
                return
            index = number % len(bodies)
            sample = post_integrate(server, index, bodies[index], expected[index], own)
            if sample is not None:
                samples.append(sample)

    threads = [threading.Thread(target=client, args=state) for state in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    for own, _samples in clients:
        tally.merge(own)
    return [sample for _own, samples in clients for sample in samples], wall_s
