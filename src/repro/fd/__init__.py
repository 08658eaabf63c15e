"""Full Disjunction algorithms.

Full Disjunction (FD) is the associative extension of the outer join
introduced by Galindo-Legaria: it combines the tuples of a set of tables in a
*maximal* way so that every input tuple is represented and no output tuple is
subsumed by (i.e. strictly less informative than) another.

This package registers five names for four implementations of the same
semantics.  Two run outer union → complementation closure → subsumption
removal through the one coded, generation-batched kernel of
:mod:`repro.fd.complementation` and differ in which tuples a tuple may meet,
hence in the order they list the result in; two are definition-level oracles:

* :class:`~repro.fd.naive.NaiveFullDisjunction` (``naive``) — the
  definitional fixpoint; quadratic pair scanning, used as the reference
  oracle in tests.
* :class:`~repro.fd.naive.OuterJoinSequence` (``outer_join_sequence``) —
  Galindo-Legaria's all-orders outer-join characterisation; a second,
  independently derived oracle.
* :class:`~repro.fd.alite.AliteFullDisjunction` (``alite``) — the paper's
  substrate [18]: posting-indexed complementation with duplicate elimination
  over the whole input at once, practical at the IMDB-benchmark scale.
* :class:`~repro.fd.incremental.IncrementalFullDisjunction` (``incremental``,
  also registered as ``partitioned``, the name of a retired worker-pool
  variant that configurations may still carry) — labels the connected
  components of the join-value graph and closes all of them in one pass of
  the kernel, a tuple meeting only its own component's nulls; linear where
  tables of unrelated schemas make the whole-input closure quadratic.
"""

from repro.fd.base import FullDisjunctionAlgorithm, FullDisjunctionResult
from repro.fd.naive import NaiveFullDisjunction, OuterJoinSequence
from repro.fd.alite import AliteFullDisjunction
from repro.fd.incremental import IncrementalFullDisjunction
from repro.registry import Registry

__all__ = [
    "FullDisjunctionAlgorithm",
    "FullDisjunctionResult",
    "NaiveFullDisjunction",
    "OuterJoinSequence",
    "AliteFullDisjunction",
    "IncrementalFullDisjunction",
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
        "partitioned": IncrementalFullDisjunction,
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
