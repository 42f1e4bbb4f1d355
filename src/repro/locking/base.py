"""Core structural locking primitives shared by every locking algorithm.

:class:`LockingSession` owns a design while it is being locked.  It keeps

* an incremental registry of the operation sites present in the design
  (including dummy operations added by earlier locking actions — these are
  legitimate relocking targets, Fig. 3b),
* the live :class:`~repro.locking.odt.OperationDistributionTable`,
* the key-bit records and the key input port of the design,
* the record of every action applied in this session.

There is no undo: HRA scores its trial steps on the ODT alone (see
:mod:`repro.locking.hra`), and :meth:`LockingSession.add_pair` checks its
input before it consumes a key bit, so a call that raises leaves the design
unchanged.

The one locking primitive is ASSURE's operation obfuscation,
:meth:`LockingSession.add_pair` (``AddPair`` of Algorithm 1): wrap a real
operation and a freshly created dummy operation in a key-controlled ternary.
ASSURE's branch and constant obfuscation are not reproduced; the paper's
attacks and metrics read operation pairs only.

:class:`Locker` is the frame of every locker: :meth:`Locker.lock` copies
the design, opens a session on the copy, tracks the metrics and reports the
key bits the run added, and a locker states only its selection loop,
:meth:`Locker.lock_session`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rtlir.design import DEFAULT_KEY_PORT, Design, KeyBit
from ..rtlir.operations import normalize_operator
from ..rtlir.sites import SiteCollection
from ..verilog import ast_nodes as ast
from ..verilog.transform import clone, unique_name
from .metrics import MetricTracker
from .odt import OperationDistributionTable
from .pairs import PairTable, default_pair_table
from .result import LockResult


class LockingError(RuntimeError):
    """Raised when a locking primitive cannot be applied."""


@dataclass(eq=False)
class OpRef:
    """A live reference to one operation node inside the design being locked.

    References compare by identity: two distinct references may hold equal
    fields, and only the very reference that was registered may be
    unregistered.

    Attributes:
        node: The :class:`~repro.verilog.ast_nodes.BinaryOp` node.
        op: Normalised operator string.
        parent: Current direct parent of ``node`` (kept up to date as locking
            wraps the node into ternaries).
        is_dummy: True when the operation was introduced as a dummy by an
            earlier locking action.
        lock_count: Number of times this node has been wrapped by a locking
            pair (> 0 means it currently sits inside a locking pair).
    """

    node: ast.BinaryOp
    op: str
    parent: ast.Node
    is_dummy: bool = False
    lock_count: int = 0


@dataclass
class LockAction:
    """Record of one applied locking primitive."""

    key_bits: List[KeyBit]
    real_op: Optional[str] = None
    dummy_op: Optional[str] = None

    @property
    def bits_used(self) -> int:
        """Number of key bits the action consumed."""
        return len(self.key_bits)


class LockingSession:
    """Stateful locking context over one design (mutated in place).

    Args:
        design: Design to lock.  It may already be locked (relocking);
            existing key bits are preserved and new ones are appended.
        pair_table: Locking-pair table; defaults to the fixed symmetric table.
        rng: Random source for key values and operation selection.

    The key port the session creates, when the design has none yet, is
    named :data:`~repro.rtlir.design.DEFAULT_KEY_PORT` (uniquified).
    """

    def __init__(self, design: Design, pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.design = design
        self.pair_table = pair_table or default_pair_table()
        self.rng = rng or random.Random()
        # The key port and the range this session installed on it; the
        # range's msb is replaced in place as key bits are added.
        self._key_port_node: Optional[ast.Port] = None
        self._key_range: Optional[ast.Range] = None
        # One site walk feeds both the ODT and the registry: nothing below
        # mutates the design before the registry is built.
        sites = design.sites()
        self.odt: OperationDistributionTable = OperationDistributionTable(
            sites.count_by_operator(), self.pair_table)
        if design.is_locked:
            # Pairs already present in a locked design count as affected.
            self._mark_existing_locks_affected()
        self.actions: List[LockAction] = []
        self._ops: List[OpRef] = []
        self._ops_by_type: Dict[str, List[OpRef]] = {}
        self._build_registry(sites)

    # --------------------------------------------------------------- registry

    def _build_registry(self, sites: SiteCollection) -> None:
        for site in sites:
            if site.key_controlled:
                continue
            ref = OpRef(node=site.node, op=site.op, parent=site.parent,
                        is_dummy=False,
                        lock_count=1 if site.in_locked_branch else 0)
            self._register(ref)

    def _register(self, ref: OpRef) -> None:
        self._ops.append(ref)
        self._ops_by_type.setdefault(ref.op, []).append(ref)

    def _mark_existing_locks_affected(self) -> None:
        for bit in self.design.key_bits:
            if bit.kind == "operation" and bit.real_op:
                if self.pair_table.has_pair(bit.real_op):
                    self.odt.mark_affected(bit.real_op)

    # -------------------------------------------------------------- accessors

    def ops_of_type(self, op: str) -> List[OpRef]:
        """Return the live references to all operations of type ``op``."""
        return list(self._ops_by_type.get(normalize_operator(op), []))

    def all_ops(self) -> List[OpRef]:
        """Return references to every operation currently in the design."""
        return list(self._ops)

    # ------------------------------------------------------------ key plumbing

    def _ensure_key_port(self) -> str:
        if self.design.key_port is None:
            name = unique_name(self.design.top, DEFAULT_KEY_PORT)
            self.design.key_port = name
            port = ast.Port(name, direction="input", net_type="wire",
                            width=ast.Range(ast.IntConst("0"), ast.IntConst("0")))
            self.design.top.ports.append(port)
        return self.design.key_port

    def _update_key_port_width(self) -> None:
        """Make the key port ``[key_width-1:0]`` wide (at least one bit).

        The first call installs a range owned by this session; later calls
        only swap that range's msb literal, with no port lookup.  The port is
        looked up again whenever its range is no longer this session's
        (another session on the same design resized it).
        """
        msb = ast.IntConst(str(max(self.design.key_width, 1) - 1))
        port = self._key_port_node
        if port is not None and port.width is self._key_range:
            self._key_range.msb = msb
            return
        assert self.design.key_port is not None
        port = self.design.top.find_port(self.design.key_port)
        if port is None:
            raise LockingError("key port disappeared from the module")
        self._key_range = ast.Range(msb, ast.IntConst("0"))
        port.width = self._key_range
        self._key_port_node = port

    def _consume_key_bit(self, correct_value: int, real_op: str,
                         dummy_op: str) -> KeyBit:
        bit = KeyBit(index=self.design.key_width, kind="operation",
                     correct_value=correct_value, real_op=real_op,
                     dummy_op=dummy_op)
        self._ensure_key_port()
        self.design.key_bits.append(bit)
        self._update_key_port_width()
        # Every session mutation passes through here; dropping the memoized
        # fingerprint keeps the plan cache honest without trusting the cheap
        # mutation token (see Design.fingerprint).
        self.design.invalidate_fingerprint()
        return bit

    def _key_bit_expr(self, index: int) -> ast.Expression:
        assert self.design.key_port is not None
        return ast.BitSelect(ast.Identifier(self.design.key_port),
                             ast.IntConst(str(index)))

    # ------------------------------------------------------- operation locking

    def add_pair(self, ref: OpRef, dummy_op: Optional[str] = None,
                 correct_value: Optional[int] = None) -> LockAction:
        """Lock operation ``ref`` with a dummy operation (``AddPair`` of Alg. 1).

        The real operation and a new dummy operation (same operands, operator
        ``dummy_op``) are wrapped in a key-controlled ternary.  Which branch
        holds the real operation is decided by the (random) correct key value,
        following the ternary convention of Fig. 3.

        Args:
            ref: Reference to the real operation to lock.
            dummy_op: Dummy operator; defaults to the pair partner of the real
                operator in the session's pair table.
            correct_value: The correct key-bit value (0 or 1); drawn from the
                session rng when omitted.  The lockers pass their own draws.

        Returns:
            The :class:`LockAction` record.

        Raises:
            LockingError: if the reference is stale (its parent no longer
                contains the node); the design is then left unchanged.
        """
        real_node = ref.node
        real_op = ref.op
        if dummy_op is None:
            dummy_op = self.pair_table.dummy_of(real_op)
        dummy_op = normalize_operator(dummy_op)

        dummy_node = ast.BinaryOp(dummy_op, clone(real_node.left),
                                  clone(real_node.right))
        key_value = self.rng.randint(0, 1) if correct_value is None else int(correct_value)
        if key_value not in (0, 1):
            raise LockingError("correct_value must be 0 or 1")
        if not _holds(ref.parent, real_node):
            raise LockingError(
                f"stale operation reference: parent no longer contains the "
                f"{real_op!r} node")

        bit = self._consume_key_bit(key_value, real_op, dummy_op)
        cond = self._key_bit_expr(bit.index)
        if key_value == 1:
            ternary = ast.TernaryOp(cond, real_node, dummy_node)
        else:
            ternary = ast.TernaryOp(cond, dummy_node, real_node)
        ref.parent.replace_child(real_node, ternary)

        # Registry bookkeeping: the real node now lives under the ternary and
        # the dummy node becomes a selectable operation of the design.
        ref.parent = ternary
        ref.lock_count += 1
        dummy_ref = OpRef(node=dummy_node, op=dummy_op, parent=ternary,
                          is_dummy=True, lock_count=1)
        self._register(dummy_ref)

        self.odt.add_operation(dummy_op)  # also marks the dummy's pair
        self.odt.mark_affected(real_op)

        action = LockAction(key_bits=[bit],
                            real_op=real_op, dummy_op=dummy_op)
        self.actions.append(action)
        return action


class Locker:
    """The frame every locker shares; a locker states its selection loop.

    Args:
        pair_table: Locking-pair table (fixed symmetric table by default).
        rng: Random source of the selection and of the key values.
        track_metrics: Record the security-metric trajectory (Fig. 5b data).

    A subclass sets :attr:`algorithm` and implements :meth:`lock_session`.
    """

    #: The :attr:`LockResult.algorithm` of this locker's runs.
    algorithm: str

    def __init__(self, pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None,
                 track_metrics: bool = True) -> None:
        self.pair_table = pair_table or default_pair_table()
        self.rng = rng or random.Random()
        self.track_metrics = track_metrics

    def lock(self, design: Design, key_budget: int) -> LockResult:
        """Lock a copy of ``design`` with ``key_budget`` key bits.

        The copy gets one :class:`LockingSession` drawing from this
        locker's rng, the key bits the run appends are its
        ``new_key_bits`` and count as its ``bits_used``.

        Raises:
            ValueError: for a negative key budget.
        """
        if key_budget < 0:
            raise ValueError("key budget must be non-negative")
        target = design.copy()
        session = LockingSession(target, pair_table=self.pair_table,
                                 rng=self.rng)
        tracker = (MetricTracker(session.odt.vector())
                   if self.track_metrics else None)
        existing_bits = len(target.key_bits)
        statistics = self.lock_session(session, key_budget, tracker)
        new_bits = target.key_bits[existing_bits:]
        return LockResult(design=target, algorithm=self.algorithm,
                          key_budget=key_budget, bits_used=len(new_bits),
                          new_key_bits=new_bits, tracker=tracker,
                          statistics=statistics)

    def lock_session(self, session: LockingSession, key_budget: int,
                     tracker: Optional[MetricTracker] = None
                     ) -> Dict[str, float]:
        """Lock the session's design; return the run's ``statistics``.

        ``tracker``, when given, records the metrics after each step.
        """
        raise NotImplementedError


def _holds(parent: ast.Node, node: ast.Node) -> bool:
    """True if ``node`` is a direct child of ``parent`` (by identity)."""
    return any(child is node for child in parent.children())
