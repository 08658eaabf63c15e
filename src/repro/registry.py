"""One generic plugin registry behind every extension point.

The pipeline has four knob families that are resolved by name — embedding
models, Full Disjunction algorithms, assignment solvers and representative
policies.  Each family is a module-level
:class:`Registry` instance; registering a plugin is one decorator::

    from repro.embeddings.registry import EMBEDDERS

    @EMBEDDERS.register("my-model")
    class MyEmbedder(ValueEmbedder):
        ...

Every lookup failure raises :class:`UnknownNameError` (a ``ValueError``)
whose message lists the registered names, so a typo anywhere — a config
field, a CLI flag, a benchmark sweep — fails fast with the valid options
in hand instead of exploding deep inside the pipeline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class UnknownNameError(ValueError, KeyError):
    """An unregistered name was looked up; the message lists the options.

    Subclasses both ``ValueError`` (what the hand-rolled factories used to
    raise, so existing ``except``/``pytest.raises`` clauses keep working)
    and ``KeyError`` (what a mapping lookup would raise).
    """

    def __init__(self, kind: str, name: object, available: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = available
        super().__init__(f"unknown {kind} {name!r}; available: {available}")

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class Registry(Generic[T]):
    """A named collection of factories (classes or callables) of one kind.

    Parameters
    ----------
    kind:
        Human-readable name of what is registered (``"embedding model"``);
        used in error messages.
    entries:
        Optional initial ``name -> factory`` mapping.
    """

    def __init__(self, kind: str, entries: Optional[Dict[str, T]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = dict(entries or {})

    # -- registration --------------------------------------------------------------
    def register(self, name: str, obj: Optional[T] = None) -> Any:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        >>> registry = Registry("greeting")
        >>> @registry.register("hello")
        ... def hello():
        ...     return "hi"
        >>> registry.names()
        ['hello']

        Re-registering a name replaces the previous entry (tests and
        downstream plugins may shadow a built-in deliberately).
        """
        if obj is not None:
            self._entries[name] = obj
            return obj

        def decorator(target: T) -> T:
            self._entries[name] = target
            return target

        return decorator

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (no-op if absent)."""
        self._entries.pop(name, None)

    # -- lookup --------------------------------------------------------------------
    def get(self, name: str) -> T:
        """Return the raw registered object, raising :class:`UnknownNameError`."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def create(self, name: str, **kwargs) -> Any:
        """Instantiate the factory registered under ``name``."""
        factory = self.get(name)
        return factory(**kwargs)  # type: ignore[operator]

    def resolve(self, spec: Any, instance_of: type, **kwargs) -> Any:
        """Pass ``spec`` through if already an instance, else create by name."""
        if isinstance(spec, instance_of):
            return spec
        return self.create(spec, **kwargs)

    def validate(self, name: Any) -> Any:
        """Raise :class:`UnknownNameError` unless ``name`` is registered."""
        if name not in self._entries:
            raise UnknownNameError(self.kind, name, self.names())
        return name

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        return sorted(self._entries)

    # -- container protocol ---------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, entries={self.names()})"
