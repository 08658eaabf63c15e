"""``repro serve --processes N``: pre-forked warm servers on one listening socket.

A server process runs one request's engine work at a time — whichever
request is computing holds the interpreter lock — so with one process a
second client queues behind the first.  :func:`serve_processes` therefore
boots the service once (config, engine, store attach, solver bind, imports),
binds one listening socket, creates the shared counters block and forks
``N − 1`` children *before* any thread or event loop exists.  Every process,
process 0 included, then serves ``asyncio.start_server(sock=...)`` on the
inherited socket over its own copy-on-write copy of the warm engine; the
kernel hands each connection to whichever process accepts it first.

What the processes share, and how:

* **Counters** — :class:`Scoreboard`, an anonymous shared ``mmap`` with one
  fixed-layout row per process.  A process writes only its own row, under
  its service lock, inside a sequence lock (the row's first word is odd
  while a write is in progress); a reader copies a row until the word is
  even and unchanged across the copy.  No reader sees a torn row, and with
  one writer per row no update is lost.  ``/stats`` and ``/healthz``
  aggregate every row.  (The lock needs stores and loads to stay in program
  order, as x86-64 keeps them; Python has no fences, so on a weakly ordered
  CPU a reader may, rarely, see a row that mixes two writes.)
* **Embeddings** — the artifact store.  Each process publishes what it
  embedded after every request, and a process that misses re-attaches new
  segments before it embeds (``StoreBackedEmbeddingCache.fill_many``).
* **Nothing else.**  Admission limits, breakers and latency windows are per
  process; health is the worst breaker state of the live processes.

Lifecycle: the children watch a pipe whose write end only process 0 holds
and exit at its end of file, that is when process 0 ends, however it ends.
SIGTERM on process 0 stops its server, terminates the children and reaps
them.  A child that dies is reaped and marked dead in its row
(``processes_alive``) but not forked again: by then process 0 runs an event
loop and pool threads, and forking a threaded process is unsafe.
"""

from __future__ import annotations

import asyncio
import mmap
import os
import signal
import socket
import struct
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.service.http import start_http_server
from repro.service.service import LATENCY_WINDOW, IntegrationService
from repro.service.types import BREAKER_COUNTERS, BREAKER_STATES, ROW_COUNTERS

_INT_FIELDS = ROW_COUNTERS + BREAKER_COUNTERS
_SEQUENCE = struct.Struct("<Q")
#: pid, alive, latencies recorded, the counters, breaker state; then the
#: breaker's remaining open window (ms) and the monotonic time of the write.
_BODY = struct.Struct(f"<qqq{len(_INT_FIELDS)}qqdd")
_ALIVE_OFFSET = _SEQUENCE.size + 8
_COUNT_OFFSET = _SEQUENCE.size + 16
_RING_OFFSET = _SEQUENCE.size + _BODY.size
_LATENCY = struct.Struct("<d")
#: One row: sequence word, body, then a ring of the last LATENCY_WINDOW
#: latencies, padded to whole cache lines so two processes' rows share none.
ROW_BYTES = -(-(_RING_OFFSET + LATENCY_WINDOW * _LATENCY.size) // 64) * 64


class Scoreboard:
    """The shared counters block: one row per server process.

    Created before the fork; the anonymous mapping is shared, not copied,
    by every process forked after it.  Every row starts alive.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self._block = mmap.mmap(-1, processes * ROW_BYTES)
        for index in range(processes):
            struct.pack_into("<q", self._block, index * ROW_BYTES + _ALIVE_OFFSET, 1)

    def write(self, index: int, row: Dict[str, Any], latency_seconds: Optional[float]) -> None:
        """Publish row ``index`` (its owner only, under its service lock).

        The body is packed before the sequence word turns odd, so a write
        holds readers off for two small copies only.
        """
        block, base = self._block, index * ROW_BYTES
        count = struct.unpack_from("<q", block, base + _COUNT_OFFSET)[0]
        slot = base + _RING_OFFSET + _LATENCY.size * (count % LATENCY_WINDOW)
        count += latency_seconds is not None
        body = _BODY.pack(
            os.getpid(), 1, count, *(row[name] for name in _INT_FIELDS),
            BREAKER_STATES.index(row["breaker_state"]), row["retry_after_ms"], time.monotonic(),
        )
        sequence = _SEQUENCE.unpack_from(block, base)[0]
        _SEQUENCE.pack_into(block, base, sequence + 1)
        if latency_seconds is not None:
            _LATENCY.pack_into(block, slot, latency_seconds)
        block[base + _SEQUENCE.size : base + _RING_OFFSET] = body
        _SEQUENCE.pack_into(block, base, sequence + 2)

    def mark_dead(self, index: int) -> None:
        """Clear a reaped child's alive word; its owner is gone, so no write races this."""
        struct.pack_into("<q", self._block, index * ROW_BYTES + _ALIVE_OFFSET, 0)

    def rows(self) -> List[Dict[str, Any]]:
        """A consistent copy of every row, with the breakers' windows aged to now."""
        now = time.monotonic()
        rows = []
        for index in range(self.processes):
            raw = self._copy(index * ROW_BYTES)
            pid, alive, count, *values = _BODY.unpack_from(raw, _SEQUENCE.size)
            row: Dict[str, Any] = dict(zip(_INT_FIELDS, values))
            state, retry_after_ms, written_at = values[len(_INT_FIELDS) :]
            retry_after_ms -= (now - written_at) * 1000.0
            state = BREAKER_STATES[state]
            if state == "open" and retry_after_ms <= 0.0:
                state = "half_open"  # what the breaker itself reports once its window passed
            row.update(
                pid=pid,
                alive=bool(alive),
                breaker_state=state,
                retry_after_ms=max(0.0, retry_after_ms) if state == "open" else 0.0,
                latencies=list(
                    struct.unpack_from(f"<{min(count, LATENCY_WINDOW)}d", raw, _RING_OFFSET)
                ),
            )
            rows.append(row)
        return rows

    def _copy(self, base: int) -> bytes:
        """One row as it stood between two writes (the sequence lock's read side)."""
        block = self._block
        for _attempt in range(1000):
            # The sequence word is read on its own before and after the copy:
            # a bulk copy may load its bytes in any order.
            sequence = _SEQUENCE.unpack_from(block, base)[0]
            raw = block[base : base + ROW_BYTES]
            if sequence % 2 == 0 and _SEQUENCE.unpack_from(block, base)[0] == sequence:
                return raw
            if not struct.unpack_from("<q", block, base + _ALIVE_OFFSET)[0]:
                return raw  # the owner died mid-write; its last copy is all there is
            time.sleep(0)  # let the writer finish instead of racing it in step
        return raw  # a writer that never lets go: the last copy it is


def default_processes() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def serve_processes(service: IntegrationService, host: str, port: int, processes: int) -> None:
    """Serve ``service`` from ``processes`` pre-forked processes until process 0 stops."""
    assert threading.active_count() == 1, "fork only before any thread exists"
    listener = socket.create_server((host, port))
    board = Scoreboard(processes)
    service.share(board, 0)
    lifeline, keepalive = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    children: Dict[int, int] = {}
    for index in range(1, processes):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(keepalive)
                service.share(board, index)
                asyncio.run(_serve(service, listener, lifeline=lifeline))
                status = 0
            except Exception:  # noqa: BLE001 — reported, then the child ends
                traceback.print_exc()
            finally:
                os._exit(status)
        children[pid] = index
    os.close(lifeline)
    bound_host, bound_port = listener.getsockname()[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        asyncio.run(_serve(service, listener, children=children, board=board))
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        os.close(keepalive)


async def _serve(
    service: IntegrationService,
    listener: socket.socket,
    *,
    lifeline: Optional[int] = None,
    children: Optional[Dict[int, int]] = None,
    board: Optional[Scoreboard] = None,
) -> None:
    """One process's server: until the lifeline ends (a child) or SIGTERM (process 0)."""
    loop = asyncio.get_running_loop()
    stopped = loop.create_future()

    def stop() -> None:
        if not stopped.done():
            stopped.set_result(None)

    def reap() -> None:
        for pid, index in list(children.items()):
            try:
                ended = os.waitpid(pid, os.WNOHANG)[0] == pid
            except ChildProcessError:
                ended = True
            if ended:
                board.mark_dead(index)
                del children[pid]

    if lifeline is not None:
        loop.add_reader(lifeline, stop)
    else:
        loop.add_signal_handler(signal.SIGTERM, stop)
        loop.add_signal_handler(signal.SIGCHLD, reap)
        reap()  # a child that died before the handler existed
    server = await start_http_server(service, sock=listener)
    await stopped
    server.close()
