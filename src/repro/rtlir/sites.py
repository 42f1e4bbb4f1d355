"""Collection of lockable operation sites from a parsed module.

An *operation site* is one concrete occurrence of a lockable binary operator
inside the behavioural part of a module (continuous assignments, always
blocks, function bodies).  Operators appearing in structural positions —
ranges, parameter values, sensitivity lists, replication counts — are not
dataflow operations and are never considered for locking.

The collector also classifies each site's surrounding context so that the
locking engine can tell original operations apart from dummy operations that
earlier locking rounds introduced (needed for re-locking, Fig. 3b of the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from ..verilog import ast_nodes as ast
from .operations import is_lockable, normalize_operator


@dataclass
class OperationSite:
    """One lockable operator occurrence.

    Attributes:
        node: The :class:`~repro.verilog.ast_nodes.BinaryOp` AST node.
        op: Normalised operator string.
        index: Stable pre-order index among the collected sites.
        parent: Direct parent AST node (used for in-place replacement).
        container: The module item (assign / always / function) holding the site.
        depth: Expression nesting depth below the containing statement.
        in_locked_branch: ``True`` when the site lives inside a branch of a
            key-controlled ternary (i.e. it is part of an earlier locking pair).
        key_controlled: ``True`` when the site's own operands reference a key
            signal (defensive flag; such sites are skipped for locking).
    """

    node: ast.BinaryOp
    op: str
    index: int
    parent: ast.Node
    container: ast.ModuleItem
    depth: int
    in_locked_branch: bool = False
    key_controlled: bool = False


@dataclass
class SiteCollection:
    """The ordered collection of operation sites of one module."""

    sites: List[OperationSite] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[OperationSite]:
        return iter(self.sites)

    def __getitem__(self, index: int) -> OperationSite:
        return self.sites[index]

    def by_operator(self) -> Dict[str, List[OperationSite]]:
        """Group the sites by operator string."""
        grouped: Dict[str, List[OperationSite]] = {}
        for site in self.sites:
            grouped.setdefault(site.op, []).append(site)
        return grouped

    def count_by_operator(self) -> Dict[str, int]:
        """Return the number of sites per operator."""
        return {op: len(sites) for op, sites in self.by_operator().items()}

    def operators(self) -> Set[str]:
        """Return the set of operators present in the collection."""
        return {site.op for site in self.sites}


def _is_key_reference(expr: ast.Node, key_names: Set[str]) -> bool:
    """Return True if ``expr`` reads one of the key signals."""
    if not key_names:
        return False
    if isinstance(expr, ast.Identifier):
        return expr.name in key_names
    return any(isinstance(node, ast.Identifier) and node.name in key_names
               for node in expr.iter_tree())


class _SiteCollector:
    """Walks one module item and accumulates operation sites."""

    def __init__(self, key_names: Set[str]) -> None:
        self._key_names = key_names
        self.sites: List[OperationSite] = []

    def collect_item(self, item: ast.ModuleItem) -> None:
        if isinstance(item, (ast.ParamDeclaration, ast.GenvarDeclaration,
                             ast.PortDeclaration)):
            return
        if isinstance(item, ast.NetDeclaration):
            if item.init is not None:
                self._walk(item.init, item, item, depth=0, locked=False)
            return
        if isinstance(item, ast.ContinuousAssign):
            self._walk(item.rhs, item, item, depth=0, locked=False)
            return
        if isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)):
            self._walk_statement(item.statement, item)
            return
        if isinstance(item, ast.FunctionDeclaration):
            self._walk_statement(item.body, item)
            return
        if isinstance(item, ast.ModuleInstance):
            for connection in item.connections:
                if connection.expr is not None:
                    self._walk(connection.expr, connection, item, depth=0,
                               locked=False)
            return

    # ------------------------------------------------------------- internals

    def _walk_statement(self, stmt: Optional[ast.Statement],
                        container: ast.ModuleItem) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._walk_statement(inner, container)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._walk(stmt.rhs, stmt, container, depth=0, locked=False)
            self._walk_lhs(stmt.lhs, stmt, container)
        elif isinstance(stmt, ast.IfStatement):
            self._walk(stmt.cond, stmt, container, depth=0, locked=False)
            self._walk_statement(stmt.then_stmt, container)
            self._walk_statement(stmt.else_stmt, container)
        elif isinstance(stmt, ast.CaseStatement):
            self._walk(stmt.expr, stmt, container, depth=0, locked=False)
            for item in stmt.items:
                for cond in item.conditions:
                    self._walk(cond, item, container, depth=0, locked=False)
                self._walk_statement(item.statement, container)
        elif isinstance(stmt, ast.ForStatement):
            self._walk_statement(stmt.init, container)
            self._walk(stmt.cond, stmt, container, depth=0, locked=False)
            self._walk_statement(stmt.step, container)
            self._walk_statement(stmt.body, container)
        elif isinstance(stmt, ast.WhileStatement):
            self._walk(stmt.cond, stmt, container, depth=0, locked=False)
            self._walk_statement(stmt.body, container)
        elif isinstance(stmt, ast.RepeatStatement):
            self._walk(stmt.count, stmt, container, depth=0, locked=False)
            self._walk_statement(stmt.body, container)
        elif isinstance(stmt, ast.TaskCall):
            for arg in stmt.args:
                self._walk(arg, stmt, container, depth=0, locked=False)
        elif isinstance(stmt, ast.NullStatement):
            return

    def _walk_lhs(self, lhs: ast.Expression, parent: ast.Node,
                  container: ast.ModuleItem) -> None:
        # Index expressions on the left-hand side (e.g. mem[i+1]) contain
        # operations, but locking an address computation on an lvalue would
        # change which storage element is written; ASSURE does not lock these.
        return

    def _walk(self, expr: ast.Expression, parent: ast.Node,
              container: ast.ModuleItem, depth: int, locked: bool) -> bool:
        """Collect the sites of ``expr``; return whether its subtree reads a key.

        The answer covers the whole subtree, the parts the walk does not
        descend into (select targets and bounds, replication counts,
        excluded contexts) included, so a site's ``key_controlled`` and a
        ternary's locked branches come from this one walk.
        """
        keys = self._key_names
        if isinstance(expr, ast.Identifier):
            return expr.name in keys
        if isinstance(expr, ast.BinaryOp):
            op = normalize_operator(expr.op)
            site = None
            if is_lockable(op):
                site = OperationSite(node=expr, op=op, index=len(self.sites),
                                     parent=parent, container=container,
                                     depth=depth, in_locked_branch=locked)
                self.sites.append(site)
            reads = self._walk(expr.left, expr, container, depth + 1, locked)
            reads |= self._walk(expr.right, expr, container, depth + 1, locked)
            if site is not None:
                site.key_controlled = reads
            return reads
        if isinstance(expr, ast.TernaryOp):
            reads = self._walk(expr.cond, expr, container, depth + 1, locked)
            branch_locked = locked or reads
            reads |= self._walk(expr.true_value, expr, container, depth + 1,
                                branch_locked)
            reads |= self._walk(expr.false_value, expr, container, depth + 1,
                                branch_locked)
            return reads
        if isinstance(expr, ast.UnaryOp):
            return self._walk(expr.operand, expr, container, depth + 1, locked)
        if isinstance(expr, ast.Concat):
            reads = False
            for part in expr.parts:
                reads |= self._walk(part, expr, container, depth + 1, locked)
            return reads
        if isinstance(expr, ast.Replication):
            reads = self._walk(expr.value, expr, container, depth + 1, locked)
            return reads or _is_key_reference(expr.count, keys)
        if isinstance(expr, ast.BitSelect):
            reads = self._walk(expr.index, expr, container, depth + 1, locked)
            return reads or _is_key_reference(expr.target, keys)
        if isinstance(expr, ast.IndexedPartSelect):
            reads = self._walk(expr.base, expr, container, depth + 1, locked)
            return (reads or _is_key_reference(expr.target, keys)
                    or _is_key_reference(expr.width, keys))
        if isinstance(expr, ast.FunctionCall):
            reads = False
            for arg in expr.args:
                reads |= self._walk(arg, expr, container, depth + 1, locked)
            return reads
        # Part-selects, literals and structural nodes (ranges, parameter
        # values, sensitivity items) carry no lockable dataflow operation.
        return bool(expr._fields) and _is_key_reference(expr, keys)


def collect_sites(module: ast.Module,
                  key_names: Optional[Set[str]] = None) -> SiteCollection:
    """Collect every lockable operation site of ``module`` in source order.

    Args:
        module: The module to analyse.
        key_names: Names of key input signals.  Sites whose operands read a
            key signal are flagged; sites inside key-controlled ternary
            branches are marked as belonging to an existing locking pair.

    Returns:
        A :class:`SiteCollection` in deterministic pre-order.
    """
    collector = _SiteCollector(set(key_names or ()))
    for item in module.items:
        collector.collect_item(item)
    return SiteCollection(collector.sites)


def operation_census(module: ast.Module,
                     key_names: Optional[Set[str]] = None) -> Dict[str, int]:
    """Return ``{operator: count}`` for all lockable sites of ``module``."""
    return collect_sites(module, key_names).count_by_operator()
