"""Training-set construction by self-referencing (relocking).

The oracle-less SnapShot attack cannot query a working chip, so it creates its
own labelled data: the locked *target* design is relocked again and again with
fresh random keys (which the attacker chose, hence knows), and the localities
of those new key bits become labelled training samples (Fig. 2 of the paper,
"Relocking" / "Extraction" steps).

The paper relocks with *random* ASSURE selection "so that all parts of the
design were used for learning"; :class:`TrainingSetBuilder` follows that
default.  Every round is undone before the next, so each round starts from
the target itself.  The rows are built at the type level, from each round's
rng draws over the target's candidate operation types
(:meth:`TrainingSetBuilder.build`): no design copy, no session and no AST
edit, and still bit-identical to relocking a fresh copy of the target every
round.  The rows have one form, a count table
(:class:`~repro.ml.base.GroupedRows`): the distinct ``[C1, C2]`` rows, each
row's group and its key value.  SnapShot's auto-ML fit and the
``majority`` attack's pair vote both read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..locking.assure import random_round_draws
from ..locking.pairs import PairTable, default_pair_table
from ..ml.base import GroupedRows, group_rows
from ..rtlir.design import Design
from .locality import operation_code


@dataclass
class TrainingSet:
    """Labelled localities assembled from relocked copies of the target.

    Attributes:
        data: The rows as a count table of distinct ``[C1, C2]`` rows.
        rounds: Number of relocking rounds.
        bits_per_round: Key bits each round adds.
    """

    data: GroupedRows
    rounds: int
    bits_per_round: int

    @property
    def features(self) -> np.ndarray:
        """The ``[C1, C2]`` rows, in draw order."""
        return self.data.rows()

    @property
    def labels(self) -> np.ndarray:
        """The key value of every row."""
        return self.data.labels()

    @property
    def size(self) -> int:
        """Number of training samples."""
        return self.data.n_samples

    def label_balance(self) -> float:
        """Fraction of samples with label 1 (0.5 = perfectly balanced)."""
        if self.labels.size == 0:
            return 0.0
        return float(np.mean(self.labels == 1))


class TrainingSetBuilder:
    """Build a SnapShot training set by relocking the target design.

    Each relocking round adds as many key bits as the target already has
    (the same budget the defender used).

    Args:
        rounds: Number of relocking rounds.
        pair_table: Pair table used for relocking (the attacker knows the
            locking scheme, threat-model assumption 2).
        rng: Random source.
    """

    def __init__(self, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rounds < 1:
            raise ValueError("at least one relocking round is required")
        self.rounds = rounds
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def build(self, target: Design) -> TrainingSet:
        """Relock ``target`` ``rounds`` times and extract labelled localities.

        A row is the code of the locked operation and the code of its dummy,
        swapped when the drawn key value is 0, and that value is its label.
        Every round is undone before the next, so all rounds choose from the
        same candidates: the target's sites that are not key-controlled and
        have a pair, in registry order.  Replaying each round's rng draws
        (:func:`~repro.locking.assure.random_round_draws`) over those
        candidates' codes therefore yields exactly the rows that relocking a
        fresh copy of the target every round and extracting the new key
        bits' localities would; ``target`` itself is never mutated.  The
        candidates' rows in both orientations are grouped once
        (:func:`~repro.ml.base.group_rows`), each draw picks its group, and
        the groups never drawn are dropped, which gives the table
        :meth:`GroupedRows.from_rows <repro.ml.base.GroupedRows.from_rows>`
        would build from the drawn rows.

        Args:
            target: The locked design to self-reference against.

        Raises:
            ValueError: if the target is not locked (there is nothing to
                self-reference against).
        """
        if not target.is_locked:
            raise ValueError("the target design must be locked")
        budget = target.key_width
        table = self.pair_table or default_pair_table()
        codes = np.array(
            [(operation_code(site.op), operation_code(table.dummy_of(site.op)))
             for site in target.sites()
             if not site.key_controlled and table.has_pair(site.op)],
            dtype=float).reshape(-1, 2)
        positions: List[int] = []
        values: List[int] = []
        for _ in range(self.rounds):
            draws = random_round_draws(random.Random(self.rng.getrandbits(64)),
                                       len(codes), budget)
            positions.extend(position for position, _ in draws)
            values.extend(value for _, value in draws)
        labels = np.array(values, dtype=int)
        # Candidate p drawn with key value 1 is row p of the oriented table,
        # drawn with 0 it is row n + p, its codes swapped.
        distinct, groups = group_rows(np.vstack([codes, codes[:, ::-1]]))
        rows = np.array(positions, dtype=int)
        rows[labels == 0] += len(codes)
        data = GroupedRows(distinct, groups[rows], labels, np.array([0, 1]))
        # Every row, without the groups and classes never drawn.
        return TrainingSet(data=data.subset(slice(None)), rounds=self.rounds,
                           bits_per_round=budget)

