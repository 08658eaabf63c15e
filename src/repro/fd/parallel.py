"""Partitioned Full Disjunction (after Paganelli et al. 2019).

The component decomposition of :mod:`repro.fd.incremental` makes the closure
embarrassingly parallel, and this algorithm used to ship each component to a
worker pool.  The batched kernel closes a batch of components in one
vectorised pass faster than a pool can be handed them (1 698 components:
0.35 s as work units, 0.03 s in batches), so ``partitioned`` is now the
incremental algorithm under the name configurations and the ``scale`` preset
use.
"""

from __future__ import annotations

from repro.fd.incremental import IncrementalFullDisjunction


class PartitionedFullDisjunction(IncrementalFullDisjunction):
    """The component-batched closure, under its registry name ``partitioned``."""

    name = "partitioned"
