"""ASSURE-style RTL locking (the baseline scheme the paper builds upon).

The locker implements ASSURE's operation obfuscation: it wraps a real
operation and a dummy operation in a key-controlled ternary.  That is the
technique the paper evaluates and attacks; ASSURE's branch and constant
obfuscation are not reproduced.

Two operation-selection strategies are supported:

* ``serial`` — operations are locked in their topological dataflow order
  (ASSURE's default; Section 3 shows this is what accidentally makes the
  original scheme appear learning-resilient under self-referencing),
* ``random`` — operations are selected uniformly at random (used for the
  relocking rounds that build the attack's training set).

By default the locker uses the *fixed symmetric* pair table; pass
:data:`~repro.locking.pairs.ORIGINAL_ASSURE_TABLE` to reproduce the leaky
pairing of Section 3.2.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..rtlir.opgraph import build_operation_graph
from ..sim.vectors import random_bits
from .base import LockAction, Locker, LockingSession, OpRef
from .metrics import MetricTracker
from .pairs import PairTable

#: Selection strategies understood by :class:`AssureLocker`.
SELECTION_MODES = ("serial", "random")


class AssureLocker(Locker):
    """ASSURE operation locking with serial or random selection.

    Args:
        selection: ``serial`` or ``random``.
        pair_table: Locking pair table (fixed symmetric table by default).
        rng: Random source (fresh unseeded :class:`random.Random` by default).
        track_metrics: Record the security-metric trajectory during locking.
    """

    def __init__(self, selection: str = "serial",
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None,
                 track_metrics: bool = True) -> None:
        if selection not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {selection!r}; "
                             f"expected one of {SELECTION_MODES}")
        super().__init__(pair_table, rng, track_metrics)
        self.selection = selection

    @property
    def algorithm(self) -> str:
        """``assure-serial`` or ``assure-random``."""
        return f"assure-{self.selection}"

    def relock(self, session: LockingSession,
               key_budget: int) -> List[LockAction]:
        """Apply one relocking round to an open session (self-referencing, Fig. 2).

        The session's design is already locked, so the candidate set holds
        both real and dummy operations, which is exactly what the attacker
        exploits/contends with when building the training set.  The round
        draws its selection and key values from this locker's rng, as
        :meth:`lock` does, so relocking a session over a copy of a design
        yields the same design as ``lock(design, key_budget)``.  A
        random-selection round locks what :func:`random_round_draws` draws,
        which is how the SnapShot training set is built without relocking
        any design.

        Args:
            session: Session over the design to relock; it must use this
                locker's pair table.
            key_budget: Number of operation-locking key bits to insert.

        Returns:
            The actions applied, oldest first.

        Raises:
            ValueError: for a negative key budget.
        """
        if key_budget < 0:
            raise ValueError("key budget must be non-negative")
        depth = len(session.actions)
        self.lock_session(session, key_budget)
        return session.actions[depth:]

    def lock_session(self, session: LockingSession, key_budget: int,
                     tracker: Optional[MetricTracker] = None
                     ) -> Dict[str, float]:
        """Lock candidates in selection order until ``key_budget`` bits are used.

        Each lock costs one key bit, whose value comes from this locker's
        rng, not the session's: relocking rounds with their own rngs share
        one session.
        """
        candidates = [ref for ref in session.all_ops()
                      if self.pair_table.has_pair(ref.op)]
        if self.selection == "random":
            locks = [(candidates[position], value) for position, value
                     in random_round_draws(self.rng, len(candidates),
                                           key_budget)]
        else:
            chosen = self._serial_order(session, candidates)[:key_budget]
            locks = list(zip(chosen, random_bits(self.rng, len(chosen))))
        for bits_used, (ref, value) in enumerate(locks, 1):
            session.add_pair(ref, correct_value=value)
            if tracker is not None:
                tracker.record(session.odt, bits_used)
        return {"locked_operations": float(len(locks)),
                "candidate_operations": float(len(candidates))}

    # ----------------------------------------------------- selection strategies

    def _serial_order(self, session: LockingSession,
                      refs: Sequence[OpRef]) -> List[OpRef]:
        """Order references by the topological position of their sites."""
        graph = build_operation_graph(session.design.top,
                                      session.design.key_names())
        position_by_node = {}
        for order, site in enumerate(graph.topological_site_order()):
            position_by_node[id(site.node)] = order
        fallback = len(position_by_node)
        return sorted(refs, key=lambda ref: (position_by_node.get(id(ref.node),
                                                                  fallback),
                                             ref.op))


def random_round_draws(rng: random.Random, candidates: int,
                       key_budget: int) -> List[Tuple[int, int]]:
    """Replay the draws of one random-selection locking round, with no design.

    A random :class:`AssureLocker` round over a session whose ``candidates``
    lockable operations all have a pair (and so each cost one key bit)
    shuffles them once and then draws one key value per lock, for the first
    ``key_budget`` of them.  This returns those draws as ``(candidate
    position, key value)`` per locked operation, oldest first;
    :meth:`AssureLocker.lock_session` locks exactly these.

    Raises:
        ValueError: for a negative key budget.
    """
    if key_budget < 0:
        raise ValueError("key budget must be non-negative")
    order = list(range(candidates))
    rng.shuffle(order)
    chosen = order[:key_budget]
    return list(zip(chosen, random_bits(rng, len(chosen))))


# ---------------------------------------------------------------------------
# Registry factories (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_locker  # noqa: E402


@register_locker("assure", aliases=("assure-serial",))
def _make_assure_serial(rng: random.Random,
                        pair_table: Optional[PairTable] = None,
                        track_metrics: bool = False, **_: object) -> AssureLocker:
    """Baseline ASSURE with serial (topological) operation selection."""
    return AssureLocker("serial", pair_table=pair_table, rng=rng,
                        track_metrics=track_metrics)


@register_locker("assure-random")
def _make_assure_random(rng: random.Random,
                        pair_table: Optional[PairTable] = None,
                        track_metrics: bool = False, **_: object) -> AssureLocker:
    """ASSURE with uniformly random operation selection."""
    return AssureLocker("random", pair_table=pair_table, rng=rng,
                        track_metrics=track_metrics)
