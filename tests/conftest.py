"""Shared pytest fixtures.

The fixtures here provide the paper's Figure 1 tables (the canonical running
example), small benchmark instances, and the default embedders, so individual
test modules stay focused on behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.embeddings import EmbedderUnavailable, ExactEmbedder, FastTextEmbedder, MistralEmbedder
from repro.table import Table, is_null


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter and return the JSON object it prints last.

    What a process has imported or bound is process-wide state; the tests of
    the cold-start path need a process that has not run the rest of the suite.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(script: str) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    return run


class LoopbackServer:
    """A service served on a loopback port by the loop every ``repro serve``
    process runs (:func:`repro.service.http.serve`), here on a thread."""

    def __init__(self, service) -> None:
        from repro.service.http import serve

        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._stop, self._stopper = os.pipe()
        self._thread = threading.Thread(target=serve, args=(service, self._listener, self._stop), daemon=True)
        self._thread.start()

    def raw(self, blob: bytes, timeout: float = 10.0):
        """Send ``blob`` as is and read until the server closes.

        Returns ``(status, headers, json body)``, or ``(None, {}, None)`` when
        the server closed without answering; a server that never answers
        fails the test through the timeout instead of hanging it.
        """
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as connection:
            connection.sendall(blob)
            answer = b"".join(iter(lambda: connection.recv(1 << 16), b""))
        if not answer:
            return None, {}, None
        head, _, body = answer.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {name.strip().lower(): value.strip() for name, _, value in (line.partition(":") for line in header_lines)}
        return int(status_line.split(" ", 2)[1]), headers, json.loads(body)

    def request(self, method: str, path: str, body=None):
        """One JSON request; returns ``(status, headers, json body)``."""
        payload = json.dumps(body).encode() if body is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        return self.raw(head.encode() + payload)

    def close(self) -> None:
        os.close(self._stopper)  # end of file on the wake pipe stops the loop
        self._thread.join(timeout=30)
        os.close(self._stop)
        self._listener.close()


@pytest.fixture
def serve_http():
    """``with serve_http(service) as server``: a :class:`LoopbackServer` for the block."""

    @contextlib.contextmanager
    def serving(service):
        server = LoopbackServer(service)
        try:
            yield server
        finally:
            server.close()

    return serving


def _entries(rows, provenance):
    """Each ``(row, provenance)`` as JSON (nulls of every flavour alike)."""
    for values, sources in zip(rows, provenance):
        yield json.dumps([[None if is_null(value) else value for value in values], sorted(sources)])


def _digest(entries) -> str:
    state = hashlib.blake2b(digest_size=16)
    for entry in entries:
        state.update(entry.encode("utf-8"))
    return state.hexdigest()


@pytest.fixture(scope="session")
def ordered_digest():
    """Digest of ``(rows, provenance)`` *in order*: pins tuple ids and row order,
    not just the row set (nulls of every flavour digest alike)."""
    return lambda rows, provenance: _digest(_entries(rows, provenance))


@pytest.fixture(scope="session")
def set_digest():
    """Digest of ``(rows, provenance)`` as a set of rows, each with its provenance."""
    return lambda rows, provenance: _digest(sorted(_entries(rows, provenance)))


@pytest.fixture(scope="session")
def covid_tables():
    """The three COVID-19 tables of the paper's Figure 1 (T1, T2, T3)."""
    t1 = Table(
        "T1",
        ["City", "Country"],
        [
            ("Berlinn", "Germany"),
            ("Toronto", "Canada"),
            ("Barcelona", "Spain"),
            ("New Delhi", "India"),
        ],
    )
    t2 = Table(
        "T2",
        ["Country", "City", "VaxRate"],
        [
            ("CA", "Toronto", "83%"),
            ("US", "Boston", "62%"),
            ("DE", "Berlin", "63%"),
            ("ES", "Barcelona", "82%"),
        ],
    )
    t3 = Table(
        "T3",
        ["City", "TotalCases", "DeathRate"],
        [
            ("Berlin", "1.4M", "147"),
            ("barcelona", "2.68M", "275"),
            ("Boston", "263K", "335"),
        ],
    )
    return [t1, t2, t3]


@pytest.fixture(scope="session")
def mistral_embedder():
    """The default (paper) embedding model, shared across tests for its cache."""
    return MistralEmbedder()


@pytest.fixture(scope="session")
def fasttext_embedder():
    """The cheap surface-only embedder."""
    return FastTextEmbedder()


@pytest.fixture(scope="session")
def exact_embedder():
    """The equality-only embedder (regular-FD behaviour)."""
    return ExactEmbedder()


class DownEmbedder(MistralEmbedder):
    """Mistral behind a backend that can be down: while ``down`` is set,
    ``embed`` / ``embed_many`` raise :class:`EmbedderUnavailable` before
    touching the cache (``refused`` counts those calls).  Clearing ``down``
    brings it back: it then embeds exactly as a fresh ``MistralEmbedder``."""

    def __init__(self, down: bool = True) -> None:
        super().__init__()
        self.down = down
        self.refused = 0

    def embed_many(self, values):
        if self.down:
            self.refused += 1
            raise EmbedderUnavailable("embedding backend is down")
        return super().embed_many(values)


@pytest.fixture()
def down_embedder():
    """A fresh :class:`DownEmbedder`, down."""
    return DownEmbedder()


@pytest.fixture(scope="session")
def small_autojoin_sets():
    """A tiny Auto-Join style benchmark (3 sets) shared by several test modules."""
    from repro.datasets import AutoJoinBenchmark

    return AutoJoinBenchmark(n_sets=3, values_per_column=25, seed=11).generate()


@pytest.fixture(scope="session")
def small_em_set():
    """One small entity-matching integration set."""
    from repro.datasets import AliteEmBenchmark

    return AliteEmBenchmark(n_sets=1, entities_per_set=25, seed=5).generate()[0]
