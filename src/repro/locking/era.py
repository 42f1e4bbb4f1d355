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
from typing import List, Optional, Tuple

from ..rtlir.design import Design
from .base import LockingSession
from .lockstep import lock_step
from .metrics import MetricTracker
from .pairs import PairTable, default_pair_table
from .result import LockResult


class ERALocker:
    """Exact ML-resilient locking.

    Args:
        pair_table: Locking-pair table (fixed symmetric table by default).
        rng: Random source used for pair/type selection and key values.
        track_metrics: Record the metric trajectory (Fig. 5b data).
    """

    name = "era"

    def __init__(self, pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None,
                 track_metrics: bool = True) -> None:
        self.pair_table = pair_table or default_pair_table()
        self.rng = rng or random.Random()
        self.track_metrics = track_metrics

    def lock(self, design: Design, key_budget: int) -> LockResult:
        """Lock ``design`` with at least ``key_budget`` key bits (Algorithm 3).

        Raises:
            ValueError: for a negative key budget.
        """
        if key_budget < 0:
            raise ValueError("key budget must be non-negative")
        target = design.copy()
        session = LockingSession(target, pair_table=self.pair_table, rng=self.rng)
        tracker = MetricTracker(session.odt.vector()) if self.track_metrics else None

        valid_pairs = self._valid_pairs(session)
        existing_bits = len(target.key_bits)
        bits_used = 0
        rounds = 0

        while bits_used < key_budget and valid_pairs:
            pair = self.rng.choice(valid_pairs)
            lock_type = self.rng.choice(pair)
            rounds += 1

            if session.odt[lock_type] == 0:
                # Degenerate (already balanced) pair: one balanced step keeps
                # M_r_sec at 100 while still consuming key bits.
                bits, _ = lock_step(session, lock_type, pair_mode=True)
                if bits == 0:
                    valid_pairs = [p for p in valid_pairs if p != pair]
                    continue
                bits_used += bits
            else:
                while abs(session.odt[lock_type]) > 0:
                    bits, _ = lock_step(session, lock_type, pair_mode=False)
                    bits_used += bits

            if tracker is not None:
                tracker.record(session.odt, bits_used)

        new_bits = target.key_bits[existing_bits:]
        return LockResult(
            design=target,
            algorithm=self.name,
            key_budget=key_budget,
            bits_used=bits_used,
            new_key_bits=list(new_bits),
            tracker=tracker,
            statistics={"rounds": float(rounds)},
        )

    def _valid_pairs(self, session: LockingSession) -> List[Tuple[str, str]]:
        """Pairs for which the design contains at least one operation."""
        pairs = []
        for first, second in self.pair_table.unordered_pairs():
            if session.ops_of_type(first) or session.ops_of_type(second):
                pairs.append((first, second))
        return pairs


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
