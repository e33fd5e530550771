"""One name-table type: where names from the CLI and the API become objects.

Section V-C: the scaling algorithm "can be specified at initialization or
through the command-line interface".  Six kinds of names resolve that way
— algorithms, routing policies, sampling policies, workloads, multi-tier
applications and resource profiles — each through one
:class:`NameRegistry` held by the module that owns the kind, whose public
``register_*`` function is a thin call into :meth:`NameRegistry.register`.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Mapping, TypeVar

T = TypeVar("T")


class NameRegistry(Generic[T]):
    """A name -> value table with one validation and error contract.

    The table lives on an instance, not a bare module dict, so the lookup
    paths that run inside sweep workers carry no module-level mutable
    state.  It is filled at import time (``load`` defers built-ins whose
    module would import the owner in a cycle) and only read afterwards,
    so every worker resolves identically.

    ``kind`` names the table in messages, ``error`` is the exception every
    failure raises, and ``accepts``/``expected`` judge and describe a
    registrable value.
    """

    def __init__(
        self,
        kind: str,
        error: type[Exception],
        accepts: Callable[[Any], bool],
        expected: str,
        entries: Mapping[str, T] | None = None,
        *,
        load: Callable[[], object] | None = None,
    ) -> None:
        self._kind = kind
        self._error = error
        self._accepts = accepts
        self._expected = expected
        self._load: Callable[[], object] | None = None
        self._entries: dict[str, T] = {}
        for name, value in (entries or {}).items():
            self.register(name, value)
        self._load = load

    def _ensure_loaded(self) -> None:
        # Clear the hook first: the loader registers through this table.
        load, self._load = self._load, None
        if load is not None:
            load()

    def names(self) -> tuple[str, ...]:
        """Every resolvable name, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._entries))

    def register(self, name: str, value: T, *, replace: bool = False) -> None:
        """Add ``value`` under ``name``; a taken name needs ``replace``."""
        self._ensure_loaded()
        if not self._accepts(value):
            raise self._error(f"{self._kind} {name!r} must be {self._expected}")
        if not isinstance(name, str) or not name:
            raise self._error(f"{self._kind} name must be a non-empty string, got {name!r}")
        if name in self._entries and not replace:
            raise self._error(f"{self._kind} {name!r} is already registered")
        self._entries[name] = value

    def resolve(self, name: str) -> T:
        """The value registered under ``name``."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise self._error(f"unknown {self._kind} {name!r}; known: {self.names()}") from None
