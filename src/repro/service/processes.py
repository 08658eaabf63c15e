"""``repro serve --processes N``: pre-forked warm servers on one listening socket.

A server process serves one connection at a time on its one thread
(:func:`repro.service.http.serve`), so a second client needs a second
process.  :func:`serve_processes` therefore boots the service once (config,
engine, store attach, solver bind, imports), binds one listening socket,
creates the shared counters block and forks ``N − 1`` children.  Every
process, process 0 included, then waits on the inherited socket over its own
copy-on-write copy of the warm engine, and calls ``accept()`` only while it
is idle: a connection waits in the kernel's listen backlog until some
process is free, and goes to the first that is.  ``TCP_DEFER_ACCEPT`` keeps
a connection that has sent nothing out of ``accept()`` for the read
deadline, so a silent client does not take a process from clients with
requests.  ``--processes 1`` is the same loop without children.

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
* **Nothing else.**  Latency windows are per process.

Lifecycle: the children watch a pipe whose write end only process 0 holds
and exit at its end of file, that is when process 0 ends, however it ends.
Process 0 learns of SIGTERM and SIGCHLD through a self-pipe it waits on
beside the socket: SIGTERM stops it, after which it terminates the children
and reaps them; a child that dies is reaped and marked dead in its row
(``processes_alive``) but not forked again.
"""

from __future__ import annotations

import math
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

from repro.obs import ROW_COUNTERS
from repro.service import http
from repro.service.service import LATENCY_WINDOW, IntegrationService

_SEQUENCE = struct.Struct("<Q")
#: pid, alive, latencies recorded, then the counters.
_BODY = struct.Struct(f"<qqq{len(ROW_COUNTERS)}q")
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
        body = _BODY.pack(os.getpid(), 1, count, *(row[name] for name in ROW_COUNTERS))
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
        """A consistent copy of every row."""
        rows = []
        for index in range(self.processes):
            raw = self._copy(index * ROW_BYTES)
            pid, alive, count, *values = _BODY.unpack_from(raw, _SEQUENCE.size)
            row: Dict[str, Any] = dict(zip(ROW_COUNTERS, values))
            row.update(
                pid=pid,
                alive=bool(alive),
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
    if hasattr(socket, "TCP_DEFER_ACCEPT"):  # Linux
        listener.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, math.ceil(http.REQUEST_READ_TIMEOUT_S)
        )
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
                http.serve(service, listener, lifeline)
                status = 0
            except Exception:  # noqa: BLE001 — reported, then the child ends
                traceback.print_exc()
            finally:
                os._exit(status)
        children[pid] = index
    os.close(lifeline)
    signals, signalled = os.pipe()
    os.set_blocking(signalled, False)
    signal.set_wakeup_fd(signalled)
    for number in (signal.SIGTERM, signal.SIGCHLD):
        signal.signal(number, lambda *_: None)  # the byte in the pipe is the message

    def on_wake() -> bool:
        """Reap whichever children ended; stop on SIGTERM."""
        received = os.read(signals, 512)
        for pid, index in list(children.items()):
            try:
                ended = os.waitpid(pid, os.WNOHANG)[0] == pid
            except ChildProcessError:
                ended = True
            if ended:
                board.mark_dead(index)
                del children[pid]
        return signal.SIGTERM in received

    os.write(signalled, bytes([signal.SIGCHLD]))  # reap a child that died before the handler existed
    bound_host, bound_port = listener.getsockname()[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        http.serve(service, listener, signals, on_wake)
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
