"""Process-wide LRU cache of compiled evaluation plans.

Every attack-side hot loop — equivalence checks, corruption metrics, KPA
sweeps, SnapShot's functional validation — used to recompile the same design
into an :class:`~repro.sim.plan.EvalPlan` on every call.  Plans are pure
functions of the netlist content, so this module caches them process-wide,
keyed by :meth:`Design.fingerprint() <repro.rtlir.design.Design.fingerprint>`:

* independent copies of the same design (e.g. a locked design and the
  copies each attack takes of it) share a single compilation,
* a *mutated* design gets a new fingerprint and therefore a fresh plan — the
  stale entry simply ages out of the LRU.  One rule keeps the fingerprint
  current: :class:`~repro.locking.base.LockingSession` invalidates it on
  every mutation it performs, and any other in-place AST edit calls
  :meth:`Design.invalidate_fingerprint()
  <repro.rtlir.design.Design.invalidate_fingerprint>` before the design is
  simulated again,
* designs the plan compiler rejects are cached negatively, so scalar-fallback
  paths pay the failed compile once instead of per call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Union

from ..rtlir.design import Design
from .plan import BatchCompileError, BatchSimulator, EvalPlan, compile_plan

#: Number of plans kept by the process-wide cache.
DEFAULT_CACHE_SIZE = 128


@dataclass(frozen=True)
class PlanCacheInfo:
    """Hit/miss statistics of the process-wide plan cache."""

    hits: int
    misses: int
    size: int
    maxsize: int


_lock = threading.Lock()
_cache: "OrderedDict[str, Union[EvalPlan, BatchCompileError]]" = OrderedDict()
_hits = 0
_misses = 0


def get_plan(design: Design) -> EvalPlan:
    """Return the cached :class:`EvalPlan` of ``design``, compiling on miss.

    Raises:
        SimulationError: for combinational dependency cycles (never cached).
        BatchCompileError: for designs without a static bit-slice form; the
            failure is cached, so repeated calls fail without recompiling.
    """
    global _hits, _misses
    fingerprint = design.fingerprint()
    with _lock:
        entry = _cache.get(fingerprint)
        if entry is not None:
            _cache.move_to_end(fingerprint)
            _hits += 1
            if isinstance(entry, BatchCompileError):
                raise BatchCompileError(*entry.args)
            return entry
        _misses += 1
    try:
        plan = compile_plan(design)
    except BatchCompileError as exc:
        with _lock:
            _store(fingerprint, exc)
        raise
    with _lock:
        _store(fingerprint, plan)
    return plan


def _store(fingerprint: str,
           entry: Union[EvalPlan, BatchCompileError]) -> None:
    _cache[fingerprint] = entry
    _cache.move_to_end(fingerprint)
    while len(_cache) > DEFAULT_CACHE_SIZE:
        _cache.popitem(last=False)


def cached_simulator(design: Design) -> BatchSimulator:
    """A :class:`BatchSimulator` over the design's cached plan."""
    return BatchSimulator(design, plan=get_plan(design))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def plan_cache_info() -> PlanCacheInfo:
    """Snapshot of the cache statistics."""
    with _lock:
        return PlanCacheInfo(hits=_hits, misses=_misses, size=len(_cache),
                             maxsize=DEFAULT_CACHE_SIZE)

