"""Deterministic fault injection for chaos testing (see :mod:`.faults`)."""

from repro.testing.faults import (
    FaultInjector,
    FaultyEmbedder,
    FaultyStore,
    TransientFault,
    chaos_embedder_from_env,
    corrupt_array_file,
)

__all__ = [
    "FaultInjector",
    "FaultyEmbedder",
    "FaultyStore",
    "TransientFault",
    "chaos_embedder_from_env",
    "corrupt_array_file",
]
