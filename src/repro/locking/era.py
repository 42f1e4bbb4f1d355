"""ERA: the Exact ML-Resilient Algorithm (Algorithm 3 of the paper).

ERA guarantees learning resilience in the sense of Definition 1: after every
locking round all *affected* locking pairs are perfectly balanced, so
``M_r_sec = 100`` at every point where the algorithm can stop.  The price is
that the key budget is treated as a lower bound — the inner balancing loop
runs until the selected pair reaches ``ODT[T] = 0`` even if that exceeds the
budget ("ERA prioritizes security over cost").

Degenerate case: when the randomly selected pair is already balanced (e.g. a
fully balanced design such as ``N_1023``), the paper's Algorithm 3 would make
no progress.  To keep the security invariant *and* terminate, this
implementation applies one *balanced* lock step (the pair-mode branch of
Algorithm 1, which adds one dummy of each type and therefore preserves
``ODT[T] = 0``).  The deviation is listed in ``docs/architecture.md``
("Deviations from the paper").
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from .base import Locker, LockingSession
from .lockstep import lock_step, valid_pairs
from .metrics import MetricTracker
from .pairs import PairTable


class ERALocker(Locker):
    """Exact ML-resilient locking: at least ``key_budget`` bits (Algorithm 3).

    Takes the arguments of :class:`~repro.locking.base.Locker`; its rng
    draws the pairs, their types and the key values.
    """

    algorithm = "era"

    def lock_session(self, session: LockingSession, key_budget: int,
                     tracker: Optional[MetricTracker] = None
                     ) -> Dict[str, float]:
        """Balance random pairs until ``key_budget`` bits are used."""
        pairs = valid_pairs(session)
        bits_used = 0
        rounds = 0

        while bits_used < key_budget and pairs:
            pair = self.rng.choice(pairs)
            lock_type = self.rng.choice(pair)
            rounds += 1

            if session.odt[lock_type] == 0:
                # Degenerate (already balanced) pair: one balanced step keeps
                # M_r_sec at 100 while still consuming key bits.
                bits = lock_step(session, lock_type, pair_mode=True)
                if bits == 0:
                    pairs = [p for p in pairs if p != pair]
                    continue
                bits_used += bits
            else:
                while abs(session.odt[lock_type]) > 0:
                    bits = lock_step(session, lock_type, pair_mode=False)
                    bits_used += bits

            if tracker is not None:
                tracker.record(session.odt, bits_used)
        return {"rounds": float(rounds)}


# ---------------------------------------------------------------------------
# Registry factory (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_locker  # noqa: E402


@register_locker("era")
def _make_era(rng: random.Random, pair_table: Optional[PairTable] = None,
              track_metrics: bool = False, **_: object) -> ERALocker:
    """Exact ML-Resilient Algorithm (Algorithm 3)."""
    return ERALocker(pair_table=pair_table, rng=rng,
                     track_metrics=track_metrics)
