"""HRA: the Heuristic ML-Resilient Algorithm (Algorithm 4 of the paper).

HRA performs fine-grained balancing of locking pairs under a strict key
budget.  In every iteration it either

* (with probability 1/2) picks a random pair and applies a *balanced* lock
  step (pair mode), which injects randomness and thwarts reversal of the
  locking procedure, or
* plans a tentative lock step for every valid pair, measures the global
  security metric ``M_g_sec`` it would achieve, and then commits the step
  with the highest metric gain (steepest ascent).  A trial is scored on the
  ODT counts plus its planned dummies, so it never edits the design and
  needs no ``UndoLock``; as locking and undoing the step would, it still
  marks its pair as affected.

Setting ``greedy=True`` removes the random branch entirely; this is the
*Greedy* variant discussed in Section 4.4, which needs fewer key bits to
reach full security but whose deterministic trajectory an attacker could
reverse.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .base import Locker, LockingSession
from .lockstep import lock_step, plan_step, valid_pairs
from .metrics import MetricTracker, global_metric
from .pairs import PairTable


class HRALocker(Locker):
    """Heuristic ML-resilient locking within ``key_budget`` (Algorithm 4).

    Args:
        pair_table: Locking-pair table (fixed symmetric table by default).
        rng: Random source for the randomised decisions and key values.
        greedy: Disable the random branch (the Greedy variant of Section 4.4,
            whose runs report the algorithm ``greedy``).
        track_metrics: Record the metric trajectory (Fig. 5b data).
    """

    def __init__(self, pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None,
                 greedy: bool = False,
                 track_metrics: bool = True) -> None:
        super().__init__(pair_table, rng, track_metrics)
        self.greedy = greedy

    @property
    def algorithm(self) -> str:
        """``greedy`` for the Greedy variant, ``hra`` otherwise."""
        return "greedy" if self.greedy else "hra"

    def lock_session(self, session: LockingSession, key_budget: int,
                     tracker: Optional[MetricTracker] = None
                     ) -> Dict[str, float]:
        """Take random or steepest-ascent steps within ``key_budget`` bits."""
        initial_vector = session.odt.vector()
        pairs = valid_pairs(session)
        bits_used = 0
        iterations = 0
        random_steps = 0

        while bits_used < key_budget and pairs:
            iterations += 1
            pair_mode = (not self.greedy) and bool(self.rng.randint(0, 1))
            if pair_mode:
                random_steps += 1
                selected = self.rng.randrange(len(pairs))
            else:
                selected = self._best_pair_index(session, pairs,
                                                 initial_vector)

            lock_type = pairs[selected][0]
            bits = lock_step(session, lock_type, pair_mode=pair_mode)
            if bits == 0 and pair_mode:
                # The balanced double-lock needs operations of both types; on
                # a one-sided pair fall back to the ordinary balancing step.
                bits = lock_step(session, lock_type, pair_mode=False)
            if bits == 0:
                # The selected pair has no operations to attach dummies to;
                # drop it from the valid set and continue.
                pairs = [p for i, p in enumerate(pairs) if i != selected]
                continue
            bits_used += bits
            if tracker is not None:
                tracker.record(session.odt, bits_used)
        return {"iterations": float(iterations),
                "random_steps": float(random_steps)}

    def _best_pair_index(self, session: LockingSession,
                         pairs: List[Tuple[str, str]],
                         initial_vector) -> int:
        """Score a trial step of every pair and return the best ``M_g_sec``.

        Implements lines 12-22 of Algorithm 4.  Each trial plans the step
        :func:`lock_step` would apply, with all of its draws, and evaluates
        the (monotonic) global metric on the ODT counts plus the planned
        dummies.  The design and the ODT counts are left alone; the trial's
        pair stays marked affected, as it would after locking and undoing
        the step.
        """
        odt = session.odt
        order = list(range(len(pairs)))
        self.rng.shuffle(order)
        best_metric = -1.0
        best_index = order[0]
        for index in order:
            locks = plan_step(session, pairs[index][0])
            if not locks:
                continue
            trial = odt.with_operations(dummy_op for _, dummy_op, _ in locks)
            metric = global_metric(trial, initial_vector)
            for ref, dummy_op, _ in locks:
                odt.mark_affected(ref.op)
                odt.mark_affected(dummy_op)
            if metric > best_metric:
                best_metric = metric
                best_index = index
        return best_index


# ---------------------------------------------------------------------------
# Registry factories (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_locker  # noqa: E402


@register_locker("hra")
def _make_hra(rng: random.Random, pair_table: Optional[PairTable] = None,
              track_metrics: bool = False, **_: object) -> HRALocker:
    """Heuristic ML-Resilient Algorithm (Algorithm 4)."""
    return HRALocker(pair_table=pair_table, rng=rng,
                     track_metrics=track_metrics)


@register_locker("greedy")
def _make_greedy(rng: random.Random, pair_table: Optional[PairTable] = None,
                 track_metrics: bool = False, **_: object) -> HRALocker:
    """Deterministic Greedy variant of HRA."""
    return HRALocker(pair_table=pair_table, rng=rng, greedy=True,
                     track_metrics=track_metrics)
