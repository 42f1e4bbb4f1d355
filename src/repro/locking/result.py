"""Result objects returned by the locking algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rtlir.design import Design, KeyBit
from .metrics import MetricTracker


@dataclass
class LockResult:
    """Outcome of one locking run.

    Attributes:
        design: The locked design (a copy of the input unless locking was
            requested in place).
        algorithm: Name of the locking algorithm (``assure``, ``era``, ...).
        key_budget: The key budget that was requested.
        bits_used: Key bits actually consumed by this run (ERA may exceed the
            budget; see Section 4.2).
        new_key_bits: The key records introduced by this run, in order.
        tracker: Metric trajectory recorded during locking (None when metric
            tracking was disabled).
        statistics: Free-form run statistics (iterations, selections, ...).
    """

    design: Design
    algorithm: str
    key_budget: int
    bits_used: int
    new_key_bits: List[KeyBit] = field(default_factory=list)
    tracker: Optional[MetricTracker] = None
    statistics: Dict[str, float] = field(default_factory=dict)

    @property
    def correct_key(self) -> List[int]:
        """Correct values of the key bits introduced by this run."""
        return [bit.correct_value for bit in self.new_key_bits]

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"{self.algorithm}: {self.bits_used}/{self.key_budget} key bits",
        ]
        if self.tracker is not None:
            parts.append(f"M_g_sec={self.tracker.final_global:.1f}")
            parts.append(f"M_r_sec={self.tracker.final_restricted:.1f}")
        return ", ".join(parts)
