"""Registries for lockers, attacks and metrics — the plug-in layer of the API.

Every workload component the evaluation pipeline instantiates by name goes
through one of three process-wide registries:

* ``LOCKERS`` — locking-algorithm factories (``assure``, ``hra``, ``era``,
  ...), called as ``factory(rng, pair_table=None, track_metrics=False,
  **options)`` and returning an object with a
  ``lock(design, key_budget) -> LockResult`` method (the built-ins inherit
  it from :class:`repro.locking.Locker`),
* ``ATTACKS`` — attack factories (``snapshot``, ``majority``, ...), called as
  ``factory(rng, **options)`` and returning an object with an
  ``attack(design, algorithm=None) -> AttackResult`` method (the built-ins
  inherit it from :class:`repro.attacks.Attack`, which scores the
  predicted key),
* ``METRICS`` — metric callables evaluated on a locked design as
  ``metric(design, rng=None, **options)`` returning a JSON-serialisable
  value (number or dict).  A metric registers the declared range of each
  numeric field it returns (:data:`Bound`, read back with
  ``METRICS.bounds(name)``); the registry contracts check every packaged
  metric's fields against them.

Built-in components register themselves with the decorators below at import
time of their defining modules (:mod:`repro.locking`, :mod:`repro.attacks`,
:mod:`repro.locking.metrics`); third-party or experimental algorithms plug in
the same way without touching ``eval/``.  A locker built on the frame
states only its selection loop; :meth:`~repro.locking.Locker.lock` copies
the design, opens the session, tracks the metrics and reports the new key
bits::

    from repro.api import register_locker
    from repro.locking import Locker

    class FirstOpsLocker(Locker):
        algorithm = "first-ops"

        def lock_session(self, session, key_budget, tracker=None):
            refs = [ref for ref in session.all_ops()
                    if self.pair_table.has_pair(ref.op)][:key_budget]
            for bits, ref in enumerate(refs, 1):
                session.add_pair(ref, correct_value=self.rng.randint(0, 1))
                if tracker is not None:
                    tracker.record(session.odt, bits)
            return {"locked_operations": float(len(refs))}

    @register_locker("first-ops")
    def make_first_ops(rng, pair_table=None, track_metrics=False, **_):
        return FirstOpsLocker(pair_table, rng, track_metrics)

This module is deliberately import-light (no intra-package imports) so the
component modules can import the decorators without cycles; the lookup
helpers lazily import the built-in packages to guarantee registration.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Declared range of one numeric field of a metric result, ``(low,
#: high)``, both inclusive; a list field bounds each of its items.  Either
#: end may be a callable of the evaluated design (e.g. its key width).
Bound = Tuple[object, object]


class UnknownComponentError(ValueError):
    """Raised when a name is not present in a registry.

    Subclasses :class:`ValueError`, so callers that validate user input
    can catch one exception type for every bad name or value.
    """


class Registry:
    """A name → factory mapping with decorator-based registration.

    Args:
        kind: Human-readable component kind used in error messages
            (``"locking algorithm"``, ``"attack"``, ``"metric"``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}
        self._aliases: Dict[str, str] = {}
        self._bounds: Dict[str, Dict[str, Bound]] = {}

    # ------------------------------------------------------------ registration

    def register(self, name: str, factory: Optional[Callable] = None, *,
                 aliases: Iterable[str] = (), replace: bool = False,
                 bounds: Optional[Mapping[str, Bound]] = None) -> Callable:
        """Register ``factory`` under ``name`` (decorator when omitted).

        Args:
            name: Canonical component name.
            factory: The factory callable; when omitted a decorator is
                returned so classes and functions can self-register.
            aliases: Extra names resolving to the same factory (not listed by
                :meth:`names`).
            replace: Allow overwriting an existing entry (off by default so
                accidental name collisions fail loudly).
            bounds: ``{field: (low, high)}`` of the numeric fields the
                component returns (metrics; see :data:`Bound`).

        Raises:
            ValueError: for empty names or (without ``replace``) duplicates.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def decorator(fn: Callable) -> Callable:
            if not replace and (name in self._factories or name in self._aliases):
                raise ValueError(
                    f"{self.kind} {name!r} is already registered")
            self._factories[name] = fn
            self._bounds.pop(name, None)
            if bounds is not None:
                self._bounds[name] = dict(bounds)
            for alias in aliases:
                if not replace and (alias in self._factories
                                    or alias in self._aliases):
                    raise ValueError(
                        f"{self.kind} alias {alias!r} is already registered")
                self._aliases[alias] = name
            return fn

        if factory is None:
            return decorator
        return decorator(factory)

    def unregister(self, name: str) -> None:
        """Remove a canonical name and every alias pointing at it."""
        canonical = self._aliases.get(name, name)
        self._factories.pop(canonical, None)
        self._bounds.pop(canonical, None)
        for alias in [a for a, target in self._aliases.items()
                      if target == canonical or a == name]:
            del self._aliases[alias]

    # ----------------------------------------------------------------- lookup

    def get(self, name: str) -> Callable:
        """Return the factory registered under ``name`` (or an alias).

        Raises:
            UnknownComponentError: for unknown names; the message lists every
                registered canonical name.
        """
        canonical = self._aliases.get(name, name)
        factory = self._factories.get(canonical)
        if factory is None:
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}")
        return factory

    def bounds(self, name: str) -> Optional[Dict[str, Bound]]:
        """The field bounds ``name`` (or an alias) was registered with, or
        ``None`` when it declared none.

        Raises:
            UnknownComponentError: for unknown names.
        """
        self.get(name)
        bounds = self._bounds.get(self._aliases.get(name, name))
        return None if bounds is None else dict(bounds)

    def names(self) -> List[str]:
        """Sorted canonical names currently registered."""
        return sorted(self._factories)

    def all_names(self) -> List[str]:
        """Sorted canonical names plus aliases (the CLI ``choices`` set)."""
        return sorted(set(self._factories) | set(self._aliases))

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: Process-wide component registries.
LOCKERS = Registry("locking algorithm")
ATTACKS = Registry("attack")
METRICS = Registry("metric")


def register_locker(name: str, *, aliases: Iterable[str] = (),
                    replace: bool = False) -> Callable:
    """Decorator registering a locking-algorithm factory under ``name``."""
    return LOCKERS.register(name, aliases=aliases, replace=replace)


def register_attack(name: str, *, aliases: Iterable[str] = (),
                    replace: bool = False) -> Callable:
    """Decorator registering an attack factory under ``name``."""
    return ATTACKS.register(name, aliases=aliases, replace=replace)


def register_metric(name: str, *, aliases: Iterable[str] = (),
                    replace: bool = False,
                    bounds: Optional[Mapping[str, Bound]] = None
                    ) -> Callable:
    """Decorator registering a metric callable under ``name``.

    ``bounds`` declares ``{field: (low, high)}`` for every numeric field
    of the dict the metric returns (see :data:`Bound`).  A metric without
    them registers, but fails the registry contracts.
    """
    return METRICS.register(name, aliases=aliases, replace=replace,
                            bounds=bounds)


def _ensure_builtins() -> None:
    """Import the packages whose modules register the built-in components."""
    from .. import attacks, locking  # noqa: F401  (import = registration)
    from ..locking import metrics  # noqa: F401


def make_locker(algorithm: str, rng: random.Random,
                pair_table=None, track_metrics: bool = False, **options):
    """Instantiate a locking algorithm by registry name.

    ``pair_table`` and ``track_metrics`` go to every factory; any extra
    ``options`` are forwarded as keywords.

    Raises:
        UnknownComponentError: for unregistered algorithm names.
    """
    factory = locker_factory(algorithm)
    return factory(rng, pair_table=pair_table, track_metrics=track_metrics,
                   **options)


def locker_factory(algorithm: str) -> Callable:
    """The factory registered under a locking-algorithm name (or alias).

    Raises:
        UnknownComponentError: for unregistered algorithm names.
    """
    _ensure_builtins()
    return LOCKERS.get(algorithm)


def make_attack(name: str, rng: random.Random, **options):
    """Instantiate an attack by registry name.

    Factories receive only the options they understand; unknown extras are
    ignored by the built-in factories so one declarative options dict can
    drive heterogeneous attacks.

    Raises:
        UnknownComponentError: for unregistered attack names.
    """
    _ensure_builtins()
    factory = ATTACKS.get(name)
    return factory(rng, **options)


def make_metric(name: str) -> Callable:
    """Return the metric callable registered under ``name``.

    Raises:
        UnknownComponentError: for unregistered metric names.
    """
    _ensure_builtins()
    return METRICS.get(name)


def locker_names(include_aliases: bool = False) -> List[str]:
    """Registered locking-algorithm names (built-ins guaranteed loaded)."""
    _ensure_builtins()
    return LOCKERS.all_names() if include_aliases else LOCKERS.names()


def attack_names(include_aliases: bool = False) -> List[str]:
    """Registered attack names (built-ins guaranteed loaded)."""
    _ensure_builtins()
    return ATTACKS.all_names() if include_aliases else ATTACKS.names()


def metric_names(include_aliases: bool = False) -> List[str]:
    """Registered metric names (built-ins guaranteed loaded)."""
    _ensure_builtins()
    return METRICS.all_names() if include_aliases else METRICS.names()
