"""Output checks, record digests and summary statistics of the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def record_digest(keyed_records: Iterable[Tuple[str, Mapping]]) -> str:
    """SHA-256 over ``(key, record)`` pairs with ``elapsed_seconds`` removed.

    ``elapsed_seconds`` is the only wall-clock field of a record; every
    other field is a pure function of the scenario, so two runs of the same
    scenarios must produce the same digest.
    """
    rows = []
    for key, record in keyed_records:
        clean = {k: v for k, v in record.items() if k != "elapsed_seconds"}
        rows.append([key, clean])
    rows.sort(key=lambda row: row[0])
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  Percentiles use the nearest
    rank: the p-th percentile of n sorted samples is the ``ceil(p*n/100)``-th
    one, which leaves ``n - ceil(p*n/100)`` samples beyond it, so the
    highest whole percentile leaving at least ten is ``floor(100*(n-10)/n)``.
    Below 20 samples that percentile is under the median; the tail is then
    reported as the median (percentile 50), because no percentile above the
    median has ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    percentile = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    if percentile < 50:
        return median(ordered), 50, n
    rank = math.ceil(percentile * n / 100)
    return float(ordered[rank - 1]), percentile, n


def _within(value, low: float, high: float) -> bool:
    return isinstance(value, (int, float)) and low <= value <= high


def _fractions(values) -> bool:
    return isinstance(values, list) and all(_within(v, 0.0, 1.0)
                                            for v in values)


def check_record(record: Mapping, scenario: Mapping) -> List[str]:
    """Invariant violations of one job record (empty when it is correct).

    Attack records: KPA in [0, 100], predicted-key width equal to the key
    width, and a functional KPA in [0, 100] whenever the attack simulated
    functional vectors.  Metric records: every value within its bounds.
    """
    errors: List[str] = []
    job = record.get("job_id", "?")
    result = record.get("result")
    if not isinstance(result, Mapping):
        return [f"{job}: record has no result"]
    width = record.get("key_width")
    if record.get("kind") == "attack":
        if not _within(result.get("kpa"), 0.0, 100.0):
            errors.append(f"{job}: KPA {result.get('kpa')} outside [0, 100]")
        predicted = result.get("predicted_key") or []
        if len(predicted) != width or len(result.get("correct_key") or
                                          []) != width:
            errors.append(f"{job}: predicted key width {len(predicted)} != "
                          f"key width {width}")
        vectors = _attack_vectors(record, scenario)
        if vectors > 0 and not _within(result.get("functional_kpa"), 0.0,
                                       100.0):
            errors.append(f"{job}: functional_kpa "
                          f"{result.get('functional_kpa')} missing or out of "
                          "range with functional vectors enabled")
        return errors
    metric = record.get("metric")
    if metric == "corruption":
        ok = (_within(result.get("min_corruption"), 0.0, 1.0)
              and _within(result.get("mean_corruption"),
                          result.get("min_corruption", 2.0), 1.0)
              and _within(result.get("avalanche"), 0.0, 1.0)
              and _fractions(result.get("per_key_rates")))
    elif metric == "key-sensitivity":
        per_bit = result.get("per_bit")
        ok = (_fractions(per_bit) and len(per_bit) == width
              and _within(result.get("mean"), 0.0, 1.0)
              and result.get("dead_bits") == sum(1 for v in per_bit
                                                 if v == 0.0))
    elif metric == "avalanche":
        low, high = result.get("min"), result.get("max")
        ok = (_within(low, 0.0, 1.0) and _within(high, 0.0, 1.0)
              and _within(result.get("mean"), low, high)
              and _fractions(result.get("per_bit")))
    else:
        ok = False
    if not ok:
        errors.append(f"{job}: {metric} metric values out of bounds: "
                      f"{json.dumps(result)[:200]}")
    return errors


def _attack_vectors(record: Mapping, scenario: Mapping) -> int:
    """Functional vectors of the attack that produced ``record``."""
    for attack in scenario.get("attacks", []):
        if attack.get("name") == record.get("attack"):
            return int(attack.get("functional_vectors", 0))
    return 0


def check_run(final: Mapping) -> List[str]:
    """Violations of a finished run summary (Runner report or service job).

    Every run must end ``done`` with ``executed + skipped == total`` and no
    failed or quarantined job.
    """
    errors: List[str] = []
    state = final.get("state", "done")
    if state != "done":
        errors.append(f"run ended {state!r}: {final.get('error')}")
    if final.get("executed", 0) + final.get("skipped", 0) != final.get(
            "total"):
        errors.append(f"executed {final.get('executed')} + skipped "
                      f"{final.get('skipped')} != total {final.get('total')}")
    if final.get("failures") or final.get("quarantined"):
        errors.append(f"{final.get('failures')} failed and "
                      f"{final.get('quarantined')} quarantined job(s)")
    return errors


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else None


def as_metrics(values: Mapping[str, Tuple[float, str]]
               ) -> Dict[str, Dict[str, object]]:
    """``{name: (value, unit)}`` in the result-line form."""
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
