"""Approximate oracle-budget KPA attack: refine a base attack's key guess.

SnapShot and the baselines are strictly oracle-less; this plugin models the
*bounded-oracle* middle ground the paper's threat-model discussion leaves
open: an attacker with a small functional-query budget (an activated chip
probed a few dozen times) who uses it to polish an oracle-less prediction.
The attack runs any registered base attack, then spends the query budget
scoring the base key plus single-bit-flip neighbours with one bit-parallel
:func:`~repro.attacks.kpa.functional_kpa_many` sweep, keeping whichever
candidate best reproduces the oracle outputs.

Because the refinement only ever *re-ranks* candidates against simulated
oracle responses, its accuracy is monotone in the budget: zero extra
queries degrade to the base attack, and the metadata records how many
queries were actually consumed so sweeps over ``oracle_queries`` map budget
to KPA directly.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..rtlir.design import Design
from .kpa import functional_kpa_many, kpa
from .snapshot import AttackResult


class OracleBudgetAttack:
    """Wrap a base attack with a bounded functional-oracle refinement.

    Args:
        base: Registry name of the oracle-less attack providing the initial
            key guess (any registered attack works, including ``snapshot``).
        oracle_queries: Total functional-query budget.  Each candidate key
            evaluated against the oracle costs ``vectors`` queries, so the
            attack considers at most ``oracle_queries // vectors`` flip
            neighbours beyond the base guess.
        vectors: Input vectors per candidate evaluation (the "response
            length" of one oracle probe session).
        rng: Random source for flip-position sampling and oracle inputs.
        base_options: Extra options forwarded to the base attack factory.
    """

    def __init__(self, base: str = "majority", oracle_queries: int = 64,
                 vectors: int = 16, rng: Optional[random.Random] = None,
                 **base_options: object) -> None:
        if oracle_queries < 0:
            raise ValueError("oracle_queries must be non-negative")
        if vectors < 1:
            raise ValueError("vectors must be >= 1")
        self.base = base
        self.oracle_queries = oracle_queries
        self.vectors = vectors
        self.rng = rng or random.Random()
        self.base_options = dict(base_options)

    def _candidates(self, predicted: Sequence[int]) -> List[List[int]]:
        """Base key plus budget-bounded single-bit-flip neighbours."""
        budget_slots = self.oracle_queries // self.vectors
        flips = min(len(predicted), max(0, budget_slots - 1))
        positions = sorted(self.rng.sample(range(len(predicted)), flips))
        candidates = [list(predicted)]
        for position in positions:
            neighbour = list(predicted)
            neighbour[position] = 1 - neighbour[position]
            candidates.append(neighbour)
        return candidates

    def attack(self, design: Design,
               algorithm: Optional[str] = None) -> AttackResult:
        """Attack ``design``: run the base attack, then refine on-budget.

        Raises:
            ValueError: for an unlocked design (via the base attack).
        """
        from ..api.registry import make_attack

        base_rng = random.Random(self.rng.getrandbits(64))
        base_attack = make_attack(self.base, base_rng, **self.base_options)
        base_result = base_attack.attack(design, algorithm=algorithm)

        candidates = self._candidates(base_result.predicted_key)
        if len(candidates) > 1 or self.oracle_queries >= self.vectors:
            oracle_rng = random.Random(self.rng.getrandbits(64))
            scores = functional_kpa_many(design, candidates,
                                         vectors=self.vectors,
                                         rng=oracle_rng)
            # Ties keep the earliest candidate, so the base prediction wins
            # unless a flip strictly improves the oracle agreement.
            best = max(range(len(candidates)), key=lambda i: (scores[i], -i))
            predicted = candidates[best]
            functional = scores[best]
            queries_used = len(candidates) * self.vectors
        else:
            predicted = list(base_result.predicted_key)
            functional = base_result.functional_kpa
            queries_used = 0

        correct = list(base_result.correct_key)
        per_bit = [p == c for p, c in zip(predicted, correct)]
        return AttackResult(
            design_name=base_result.design_name,
            predicted_key=predicted,
            correct_key=correct,
            kpa=kpa(predicted, correct),
            model_name=f"oracle-budget({base_result.model_name})",
            training_size=base_result.training_size,
            per_bit_correct=per_bit,
            metadata={
                "base_attack": self.base,
                "base_kpa": base_result.kpa,
                "oracle_queries": self.oracle_queries,
                "oracle_queries_used": queries_used,
                "oracle_vectors": self.vectors,
                "candidates_scored": len(candidates),
            },
            functional_kpa=functional,
        )


# ---------------------------------------------------------------------------
# Registry factory (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_attack  # noqa: E402


@register_attack("oracle-budget", aliases=("oracle",))
def _make_oracle_budget(rng: random.Random, base: str = "majority",
                        oracle_queries: int = 64, vectors: int = 16,
                        rounds: int = 20,
                        time_budget: float = 10.0,
                        functional_vectors: int = 0,
                        pair_table=None,
                        **_: object) -> OracleBudgetAttack:
    """Bounded-oracle refinement of a registered oracle-less attack."""
    return OracleBudgetAttack(base=base, oracle_queries=oracle_queries,
                              vectors=vectors, rng=rng,
                              rounds=rounds, time_budget=time_budget,
                              functional_vectors=functional_vectors,
                              pair_table=pair_table)
