"""Full Disjunction algorithms.

Full Disjunction (FD) is the associative extension of the outer join
introduced by Galindo-Legaria: it combines the tuples of a set of tables in a
*maximal* way so that every input tuple is represented and no output tuple is
subsumed by (i.e. strictly less informative than) another.

This package registers six interchangeable implementations of the same
semantics.  Four run outer union → complementation closure → subsumption
removal through the one coded, generation-batched kernel of
:mod:`repro.fd.complementation` (``alite``, ``incremental``, ``partitioned``,
``streaming``) and differ in which tuples a tuple may meet, hence in the
order they list the result in, and in whether they compute it lazily; two are
definition-level oracles (``naive``, ``outer_join_sequence``):

* :class:`~repro.fd.naive.NaiveFullDisjunction` — the definitional fixpoint;
  quadratic pair scanning, used as the reference oracle in tests.
* :class:`~repro.fd.naive.OuterJoinSequence` — Galindo-Legaria's all-orders
  outer-join characterisation; a second, independently derived oracle.
* :class:`~repro.fd.alite.AliteFullDisjunction` — the paper's substrate [18]:
  posting-indexed complementation with duplicate elimination over the whole
  input at once, practical at the IMDB-benchmark scale.
* :class:`~repro.fd.incremental.IncrementalFullDisjunction` — labels the
  connected components of the join-value graph and closes all of them in one
  pass of the kernel, a tuple meeting only its own component's nulls; linear
  where tables of unrelated schemas make the whole-input closure quadratic.
* :class:`~repro.fd.incremental.PartitionedFullDisjunction` — the incremental
  algorithm under the registry name of the former worker-pool variant (one
  pass closes the components faster than a pool is handed them).
* :class:`~repro.fd.iterator.StreamingFullDisjunction` — the incremental
  algorithm as a generator: components close a bounded batch at a time, and
  a batch's tuples are emitted before later components are touched.
"""

from repro.fd.base import FullDisjunctionAlgorithm, FullDisjunctionResult
from repro.fd.naive import NaiveFullDisjunction, OuterJoinSequence
from repro.fd.alite import AliteFullDisjunction
from repro.fd.incremental import IncrementalFullDisjunction, PartitionedFullDisjunction
from repro.fd.iterator import StreamingFullDisjunction
from repro.registry import Registry

__all__ = [
    "FullDisjunctionAlgorithm",
    "FullDisjunctionResult",
    "NaiveFullDisjunction",
    "OuterJoinSequence",
    "AliteFullDisjunction",
    "IncrementalFullDisjunction",
    "PartitionedFullDisjunction",
    "StreamingFullDisjunction",
    "FD_ALGORITHMS",
    "get_algorithm",
    "available_algorithms",
]


#: All Full Disjunction algorithms, keyed by registry name.
FD_ALGORITHMS = Registry(
    "full disjunction algorithm",
    {
        "naive": NaiveFullDisjunction,
        "outer_join_sequence": OuterJoinSequence,
        "alite": AliteFullDisjunction,
        "incremental": IncrementalFullDisjunction,
        "partitioned": PartitionedFullDisjunction,
        "streaming": StreamingFullDisjunction,
    },
)


def available_algorithms() -> list:
    """Names of the registered Full Disjunction algorithms."""
    return FD_ALGORITHMS.names()


def get_algorithm(name: str, **kwargs) -> FullDisjunctionAlgorithm:
    """Instantiate a Full Disjunction algorithm by name.

    >>> get_algorithm("alite").name
    'alite'
    """
    return FD_ALGORITHMS.create(name, **kwargs)
