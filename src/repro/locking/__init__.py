"""RTL locking: ASSURE baseline, ML-resilient ERA/HRA, metrics and keys.

Public entry points:

* :class:`~repro.locking.base.Locker` — the frame of every locker: it
  locks a copy of the design in one session, tracks the metrics and
  reports the new key bits; a locker states only its selection loop.
* :class:`~repro.locking.assure.AssureLocker` — baseline ASSURE locking
  (serial or random operation selection).
* :class:`~repro.locking.era.ERALocker` — Exact ML-Resilient Algorithm.
* :class:`~repro.locking.hra.HRALocker` — Heuristic ML-Resilient Algorithm;
  ``greedy=True`` is its deterministic Greedy variant.
* :func:`~repro.locking.metrics.global_metric` /
  :func:`~repro.locking.metrics.restricted_metric` — the learning-resilience
  security metrics.
"""

from .assure import AssureLocker
from .base import LockAction, Locker, LockingError, LockingSession, OpRef
from .era import ERALocker
from .hra import HRALocker
from .lockstep import lock_step
from .metrics import (
    AvalancheReport,
    FunctionalCorruptionReport,
    MetricPoint,
    MetricTracker,
    avalanche_sensitivity,
    functional_corruption,
    global_metric,
    key_bit_sensitivity,
    metric_surface,
    modified_euclidean,
    restricted_metric,
    security_metric,
)
from .odt import OperationDistributionTable, odt_from_design
from .pairs import (
    ORIGINAL_ASSURE_TABLE,
    SYMMETRIC_PAIR_TABLE,
    PairingError,
    PairTable,
    default_pair_table,
    make_symmetric,
)
from .result import LockResult

__all__ = [
    "AssureLocker",
    "LockAction",
    "Locker",
    "LockingError",
    "LockingSession",
    "OpRef",
    "ERALocker",
    "HRALocker",
    "lock_step",
    "AvalancheReport",
    "FunctionalCorruptionReport",
    "MetricPoint",
    "MetricTracker",
    "avalanche_sensitivity",
    "functional_corruption",
    "global_metric",
    "key_bit_sensitivity",
    "metric_surface",
    "modified_euclidean",
    "restricted_metric",
    "security_metric",
    "OperationDistributionTable",
    "odt_from_design",
    "ORIGINAL_ASSURE_TABLE",
    "SYMMETRIC_PAIR_TABLE",
    "PairingError",
    "PairTable",
    "default_pair_table",
    "make_symmetric",
    "LockResult",
]
