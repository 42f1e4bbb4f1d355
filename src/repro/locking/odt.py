"""Operation distribution table (ODT).

For every operator ``T`` the ODT stores ``count(T) - count(T')`` where ``T'``
is the locking-pair partner of ``T`` (Section 4 of the paper).  A positive
entry means ``T`` is over-represented, a negative entry under-represented, and
zero means the pair is perfectly balanced — the learning-resilient state of
Definition 1.

The table also tracks which pairs have been *affected* by locking, which is
what distinguishes the restricted metric ``M_r_sec`` from the global metric
``M_g_sec``.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from .pairs import PairTable, default_pair_table


class OperationDistributionTable:
    """Mutable ODT over a fixed pair table.

    Args:
        census: ``{operator: count}`` of the design's lockable operations.
        pair_table: The (symmetric) pair table defining the pairings.

    Only operators that have a pairing in the table participate; operators
    outside the table are ignored (they can never be locked).
    """

    def __init__(self, census: Mapping[str, int],
                 pair_table: Optional[PairTable] = None) -> None:
        self.pair_table = pair_table or default_pair_table()
        self._counts: Dict[str, int] = {}
        for op in self.pair_table.supported_operators():
            self._counts[op] = int(census.get(op, 0))
        # Operators present in the census but missing from the table still get
        # a count entry so reports can show them, but they have no ODT value.
        self._unpaired: Dict[str, int] = {
            op: int(count) for op, count in census.items()
            if not self.pair_table.has_pair(op)
        }
        self._affected: Set[frozenset] = set()

    # ------------------------------------------------------------- inspection

    def count(self, op: str) -> int:
        """Return the current number of operations of type ``op``."""
        return self._counts.get(op, 0)

    def value(self, op: str) -> int:
        """Return ``ODT[op] = count(op) - count(pair(op))``.

        Raises:
            repro.locking.pairs.PairingError: if ``op`` has no pairing.
        """
        partner = self.pair_table.dummy_of(op)
        return self.count(op) - self.count(partner)

    def __getitem__(self, op: str) -> int:
        return self.value(op)

    def pairs(self) -> List[Tuple[str, str]]:
        """Return the unordered pairs covered by this table."""
        return self.pair_table.unordered_pairs()

    def affected_pairs(self) -> List[Tuple[str, str]]:
        """Return the pairs touched by locking so far (for ``M_r_sec``)."""
        result = []
        for first, second in self.pairs():
            if frozenset((first, second)) in self._affected:
                result.append((first, second))
        return result

    def is_affected(self, op: str) -> bool:
        """True if the pair containing ``op`` has been touched by locking."""
        pair = frozenset(self.pair_table.pair_of(op))
        return pair in self._affected

    def is_balanced(self, op: str) -> bool:
        """True if the pair containing ``op`` is perfectly balanced."""
        return self.value(op) == 0

    # --------------------------------------------------------------- mutation

    def add_operation(self, op: str) -> None:
        """Record that one new operation of type ``op`` was added to the design.

        The pair containing ``op`` is marked as affected by locking.
        """
        if not self.pair_table.has_pair(op):
            self._unpaired[op] = self._unpaired.get(op, 0) + 1
            return
        self._counts[op] = self._counts.get(op, 0) + 1
        self.mark_affected(op)

    def mark_affected(self, op: str) -> None:
        """Mark the pair containing ``op`` as affected by locking."""
        if self.pair_table.has_pair(op):
            self._affected.add(frozenset(self.pair_table.pair_of(op)))

    def with_operations(self, ops: Iterable[str]) -> "OperationDistributionTable":
        """Return a copy with one more operation of each type in ``ops``.

        The copy reads what this table would read after those operations
        were added; this table is left unchanged.
        """
        trial = copy.copy(self)
        trial._counts = dict(self._counts)
        trial._unpaired = dict(self._unpaired)
        trial._affected = set(self._affected)
        for op in ops:
            trial.add_operation(op)
        return trial

    # ---------------------------------------------------------------- vectors

    def vector(self, pair_order: Optional[List[Tuple[str, str]]] = None) -> np.ndarray:
        """Return ``v_j = [|ODT[T_0]|, ..., |ODT[T_{l-1}]|]`` (Section 4.1).

        Args:
            pair_order: Pair ordering to use; defaults to :meth:`pairs` order.
        """
        order = pair_order or self.pairs()
        return np.array([abs(self.value(first)) for first, _ in order], dtype=float)

    def optimal_vector(self, restricted: bool = False,
                       pair_order: Optional[List[Tuple[str, str]]] = None
                       ) -> np.ndarray:
        """Return the optimal vector ``v_o``.

        For the global metric every entry is 0.  For the restricted metric,
        entries of pairs *not* affected by locking are excluded (NaN encodes
        the paper's ``'x'`` marker consumed by the modified Euclidean
        distance, Algorithm 2).
        """
        order = pair_order or self.pairs()
        values = []
        for first, second in order:
            if restricted and frozenset((first, second)) not in self._affected:
                values.append(np.nan)
            else:
                values.append(0.0)
        return np.array(values, dtype=float)

    # -------------------------------------------------------------- rendering

    def to_text(self) -> str:
        """Render the table as readable text (one line per pair)."""
        lines = ["Operation distribution table:"]
        for first, second in self.pairs():
            value = self.value(first)
            affected = "affected" if self.is_affected(first) else "untouched"
            lines.append(
                f"  ({first:>3}, {second:>3}) : ODT[{first}] = {value:+d} "
                f"({self.count(first)} vs {self.count(second)}, {affected})"
            )
        if self._unpaired:
            unpaired = ", ".join(f"{op}:{count}" for op, count in self._unpaired.items())
            lines.append(f"  unpaired operators: {unpaired}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = {f"{f}/{s}": self.value(f) for f, s in self.pairs() if self.count(f) or self.count(s)}
        return f"ODT({entries})"


def odt_from_design(design, pair_table: Optional[PairTable] = None
                    ) -> OperationDistributionTable:
    """Build an ODT from the current operation census of ``design``.

    This is the ``LoadODT(D)`` step of Algorithms 3 and 4.
    """
    return OperationDistributionTable(design.operation_census(), pair_table)
