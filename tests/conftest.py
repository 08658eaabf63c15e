"""Shared pytest fixtures.

The fixtures here provide the paper's Figure 1 tables (the canonical running
example), small benchmark instances, and the default embedders, so individual
test modules stay focused on behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.embeddings import ExactEmbedder, FastTextEmbedder, MistralEmbedder
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


@pytest.fixture(scope="session")
def ordered_digest():
    """Digest of ``(rows, provenance)`` *in order*: pins tuple ids and row order,
    not just the row set (nulls of every flavour digest alike)."""

    def digest(rows, provenance) -> str:
        state = hashlib.blake2b(digest_size=16)
        for values, sources in zip(rows, provenance):
            cells = [None if is_null(value) else value for value in values]
            state.update(json.dumps([cells, sorted(sources)]).encode("utf-8"))
        return state.hexdigest()

    return digest


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
