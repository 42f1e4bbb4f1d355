"""The common locking step shared by ERA and HRA (Algorithm 1 of the paper).

One step balances one locking pair by a single fine-grained action:

* if the selected type ``T`` is over-represented (``ODT[T] > 0``), a dummy of
  the partner type ``T'`` is added next to an existing ``T`` operation,
* if it is under-represented (``ODT[T] < 0``), a dummy ``T`` is added next to
  an existing ``T'`` operation,
* otherwise (or when *pair mode* is requested), both directions are applied at
  once, which keeps the pair balanced while still consuming key bits.

:func:`plan_step` makes all of the step's draws (the operations, then one
key value per lock) and its decision, and returns the locks it would add;
:func:`lock_step` applies them.  HRA scores its trial steps on the plan
alone (``M_g_sec`` reads only the ODT counts), so a trial never edits the
design.  The ODT bookkeeping of an applied lock happens inside
:meth:`LockingSession.add_pair`.  Both lockers choose among the
:func:`valid_pairs` of the design.
"""

from __future__ import annotations

from typing import List, Tuple

from ..rtlir.operations import normalize_operator
from .base import LockingError, LockingSession, OpRef


def valid_pairs(session: LockingSession) -> List[Tuple[str, str]]:
    """Pairs of the session's table with an operation in the design."""
    return [(first, second)
            for first, second in session.pair_table.unordered_pairs()
            if session.ops_of_type(first) or session.ops_of_type(second)]


def plan_step(session: LockingSession, lock_type: str,
              pair_mode: bool = False) -> List[Tuple[OpRef, str, int]]:
    """Draw and decide one locking step for ``lock_type`` (Algorithm 1).

    Draws one operation of ``lock_type`` and one of its partner type from
    ``session.rng`` (each only when such operations exist), reads the ODT
    sign, and then draws one correct key value per lock from the same rng;
    the design is left alone.

    Args:
        session: Active locking session.
        lock_type: The operation type ``T`` selected by the caller.
        pair_mode: The ``P`` flag of Algorithm 1.  When ``True`` the balanced
            double-lock branch is forced regardless of the ODT value.

    Returns:
        The ``(operation, dummy operator, key value)`` locks the step adds,
        in the order they are applied.  Empty when the design contains no
        operation that could implement the requested step (e.g. a pair with
        no occurrences at all).

    Raises:
        LockingError: if the ODT reports an excess or deficit that no
            operation of the design can balance.
        repro.locking.pairs.PairingError: if the session's pair table has no
            pairing for ``lock_type``.
    """
    lock_type = normalize_operator(lock_type)
    partner = session.pair_table.dummy_of(lock_type)
    odt = session.odt
    rng = session.rng

    ops_of_type = session.ops_of_type(lock_type)
    ops_of_partner = session.ops_of_type(partner)
    selected_type = rng.choice(ops_of_type) if ops_of_type else None
    selected_partner = rng.choice(ops_of_partner) if ops_of_partner else None

    if odt[lock_type] > 0 and not pair_mode:
        if selected_type is None:
            raise LockingError(
                f"ODT reports excess of {lock_type!r} but no such operation exists")
        locks = [(selected_type, partner)]
    elif odt[lock_type] < 0 and not pair_mode:
        if selected_partner is None:
            raise LockingError(
                f"ODT reports deficit of {lock_type!r} but no {partner!r} "
                f"operation exists")
        locks = [(selected_partner, lock_type)]
    elif selected_type is None or selected_partner is None:
        locks = []
    else:
        locks = [(selected_type, partner), (selected_partner, lock_type)]
    return [(ref, dummy_op, rng.randint(0, 1)) for ref, dummy_op in locks]


def lock_step(session: LockingSession, lock_type: str,
              pair_mode: bool = False) -> int:
    """Apply one locking step for operation type ``lock_type`` (Algorithm 1).

    Args:
        session: Active locking session (mutated).
        lock_type: The operation type ``T`` selected by the caller.
        pair_mode: The ``P`` flag of Algorithm 1 (see :func:`plan_step`).

    Returns:
        The number of key bits consumed: 0 when the design contains no
        operation that could implement the requested step.

    Raises:
        LockingError: as :func:`plan_step`.
    """
    return sum(session.add_pair(ref, dummy_op=dummy_op,
                                correct_value=value).bits_used
               for ref, dummy_op, value in plan_step(session, lock_type,
                                                     pair_mode))
