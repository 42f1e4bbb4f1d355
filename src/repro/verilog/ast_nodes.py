"""Abstract syntax tree node classes for the supported Verilog subset.

The AST is deliberately simple and mutable: the locking transformations in
:mod:`repro.locking` rewrite expressions in place (e.g. replacing ``a + b``
with ``key ? (a + b) : (a - b)``), and the code generator in
:mod:`repro.verilog.codegen` renders the mutated tree back to Verilog source.

Every node derives from :class:`Node` and declares its child fields in
``_fields``; this powers :meth:`Node.children` and :meth:`Node.iter_tree`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple


class Node:
    """Base class for all AST nodes.

    ``_fields`` names the attributes that contain child nodes (or lists of
    child nodes).  Non-node attributes such as operator strings or identifier
    names are not listed.
    """

    _fields: Tuple[str, ...] = ()

    def children(self) -> Iterator["Node"]:
        """Yield every direct child node."""
        for field in self._fields:
            value = getattr(self, field)
            if value is None:
                continue
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def iter_tree(self) -> Iterator["Node"]:
        """Yield this node and every descendant in pre-order.

        The walk keeps a stack of child iterators instead of recursing, so
        a deep tree costs no interpreter recursion.
        """
        yield self
        stack = [self.children()]
        while stack:
            for node in stack[-1]:
                yield node
                stack.append(node.children())
                break
            else:
                stack.pop()

    def replace_child(self, old: "Node", new: "Node") -> bool:
        """Replace the direct child ``old`` by ``new``.

        Returns ``True`` if a replacement was performed.  Lists are searched by
        identity, scalar fields by identity as well.
        """
        for field in self._fields:
            value = getattr(self, field)
            if value is old:
                setattr(self, field, new)
                return True
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if item is old:
                        value[index] = new
                        return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = type(self).__name__
        parts = []
        for key, value in vars(self).items():
            if isinstance(value, (str, int, bool)) or value is None:
                parts.append(f"{key}={value!r}")
        return f"{name}({', '.join(parts)})"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expression(Node):
    """Marker base class for expression nodes."""


class Identifier(Expression):
    """A simple identifier reference, e.g. ``data_in``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Identifier) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Identifier", self.name))


class IntConst(Expression):
    """An integer literal.

    Attributes:
        value: Original literal text (``13``, ``4'b1101``, ``'hFF`` ...).
        width: Declared bit width if the literal was sized, otherwise ``None``.
    """

    def __init__(self, value: str) -> None:
        self.value = str(value)

    @property
    def width(self) -> Optional[int]:
        text = self.value
        if "'" in text:
            size = text.split("'", 1)[0]
            if size.isdigit():
                return int(size)
        return None

    def as_int(self) -> int:
        """Return the numeric value of the literal.

        Raises:
            ValueError: if the literal contains x/z bits.
        """
        text = self.value.replace("_", "")
        if "'" not in text:
            return int(text)
        _, rest = text.split("'", 1)
        if rest and rest[0] in "sS":
            rest = rest[1:]
        base_char, digits = rest[0].lower(), rest[1:]
        base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
        if any(c in "xXzZ?" for c in digits):
            raise ValueError(f"literal {self.value!r} contains unknown bits")
        return int(digits, base)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntConst) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("IntConst", self.value))


class RealConst(Expression):
    """A real (floating point) literal."""

    def __init__(self, value: str) -> None:
        self.value = str(value)


class StringConst(Expression):
    """A double-quoted string literal."""

    def __init__(self, value: str) -> None:
        self.value = value


class UnaryOp(Expression):
    """A unary operation, e.g. ``~a``, ``!valid``, ``&bus`` (reduction)."""

    _fields = ("operand",)

    def __init__(self, op: str, operand: Expression) -> None:
        self.op = op
        self.operand = operand


class BinaryOp(Expression):
    """A binary operation, e.g. ``a + b`` or ``x << 2``."""

    _fields = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op
        self.left = left
        self.right = right


class TernaryOp(Expression):
    """A conditional (ternary) expression ``cond ? true_value : false_value``.

    ASSURE operation locking is expressed with this node: the condition is a
    key-bit reference and the two branches are the real and dummy operations.
    """

    _fields = ("cond", "true_value", "false_value")

    def __init__(self, cond: Expression, true_value: Expression,
                 false_value: Expression) -> None:
        self.cond = cond
        self.true_value = true_value
        self.false_value = false_value


class Concat(Expression):
    """A concatenation ``{a, b, c}``."""

    _fields = ("parts",)

    def __init__(self, parts: Sequence[Expression]) -> None:
        self.parts = list(parts)


class Replication(Expression):
    """A replication ``{N{expr}}``."""

    _fields = ("count", "value")

    def __init__(self, count: Expression, value: Expression) -> None:
        self.count = count
        self.value = value


class BitSelect(Expression):
    """A single-bit select ``signal[index]``."""

    _fields = ("target", "index")

    def __init__(self, target: Expression, index: Expression) -> None:
        self.target = target
        self.index = index


class PartSelect(Expression):
    """A constant part select ``signal[msb:lsb]``."""

    _fields = ("target", "msb", "lsb")

    def __init__(self, target: Expression, msb: Expression, lsb: Expression) -> None:
        self.target = target
        self.msb = msb
        self.lsb = lsb


class IndexedPartSelect(Expression):
    """An indexed part select ``signal[base +: width]`` or ``[base -: width]``."""

    _fields = ("target", "base", "width")

    def __init__(self, target: Expression, base: Expression, width: Expression,
                 direction: str) -> None:
        if direction not in ("+:", "-:"):
            raise ValueError(f"invalid indexed part-select direction {direction!r}")
        self.target = target
        self.base = base
        self.width = width
        self.direction = direction


class FunctionCall(Expression):
    """A function call ``f(a, b)`` (user function or system task used as expr)."""

    _fields = ("args",)

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        self.name = name
        self.args = list(args)


# --------------------------------------------------------------------------
# Ranges and declarations
# --------------------------------------------------------------------------

class Range(Node):
    """A bit range ``[msb:lsb]``."""

    _fields = ("msb", "lsb")

    def __init__(self, msb: Expression, lsb: Expression) -> None:
        self.msb = msb
        self.lsb = lsb

    def width(self) -> Optional[int]:
        """Return the constant width of the range if both bounds are constant.

        A bound is constant when it is a literal or ``+``/``-``/``*`` of
        constant bounds, such as the ``4-1`` a ```define W 4`` leaves of
        ``[`W-1:0]``.
        """
        try:
            msb = _const_value(self.msb)
            lsb = _const_value(self.lsb)
        except (ValueError, TypeError):
            return None
        if msb is None or lsb is None:
            return None
        return abs(msb - lsb) + 1


def _const_value(expr: Expression) -> Optional[int]:
    if isinstance(expr, IntConst):
        return expr.as_int()
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*"):
        left, right = _const_value(expr.left), _const_value(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        return left - right if expr.op == "-" else left * right
    return None


class ModuleItem(Node):
    """Marker base class for items that appear directly inside a module body."""


class Port(Node):
    """An ANSI-style or collected port declaration.

    Attributes:
        name: Port identifier.
        direction: ``input``, ``output`` or ``inout`` (``None`` when the
            module header only listed the name and the direction is declared
            later in the body).
        net_type: ``wire``, ``reg`` or ``None``.
        width: Optional :class:`Range`.
        signed: True for ``signed`` ports.
    """

    _fields = ("width",)

    def __init__(self, name: str, direction: Optional[str] = None,
                 net_type: Optional[str] = None, width: Optional[Range] = None,
                 signed: bool = False) -> None:
        self.name = name
        self.direction = direction
        self.net_type = net_type
        self.width = width
        self.signed = signed


class PortDeclaration(ModuleItem):
    """A non-ANSI port direction declaration inside the module body."""

    _fields = ("width",)

    def __init__(self, direction: str, names: Sequence[str],
                 width: Optional[Range] = None, net_type: Optional[str] = None,
                 signed: bool = False) -> None:
        self.direction = direction
        self.names = list(names)
        self.width = width
        self.net_type = net_type
        self.signed = signed


class NetDeclaration(ModuleItem):
    """A ``wire``/``reg``/``integer`` declaration.

    Attributes:
        net_type: One of ``wire``, ``reg``, ``integer``, ``genvar``,
            ``supply0``, ``supply1``.
        names: Declared identifiers.
        width: Optional packed range.
        array_dims: Optional unpacked dimensions (memories), one Range per dim.
        init: Optional initial value expression (``wire x = a & b;``).
    """

    _fields = ("width", "array_dims", "init")

    def __init__(self, net_type: str, names: Sequence[str],
                 width: Optional[Range] = None,
                 array_dims: Optional[Sequence[Range]] = None,
                 signed: bool = False,
                 init: Optional[Expression] = None) -> None:
        self.net_type = net_type
        self.names = list(names)
        self.width = width
        self.array_dims = list(array_dims) if array_dims else []
        self.signed = signed
        self.init = init


class ParamDeclaration(ModuleItem):
    """A ``parameter`` or ``localparam`` declaration (single assignment)."""

    _fields = ("width", "value")

    def __init__(self, name: str, value: Expression, local: bool = False,
                 width: Optional[Range] = None, signed: bool = False) -> None:
        self.name = name
        self.value = value
        self.local = local
        self.width = width
        self.signed = signed


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

class Statement(Node):
    """Marker base class for procedural statements."""


class ContinuousAssign(ModuleItem):
    """A continuous assignment ``assign lhs = rhs;``."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression) -> None:
        self.lhs = lhs
        self.rhs = rhs


class BlockingAssign(Statement):
    """A blocking procedural assignment ``lhs = rhs;``."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression) -> None:
        self.lhs = lhs
        self.rhs = rhs


class NonBlockingAssign(Statement):
    """A non-blocking procedural assignment ``lhs <= rhs;``."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression) -> None:
        self.lhs = lhs
        self.rhs = rhs


class Block(Statement):
    """A ``begin ... end`` block, optionally named."""

    _fields = ("statements",)

    def __init__(self, statements: Sequence[Statement],
                 name: Optional[str] = None) -> None:
        self.statements = list(statements)
        self.name = name


class IfStatement(Statement):
    """An ``if``/``else`` statement."""

    _fields = ("cond", "then_stmt", "else_stmt")

    def __init__(self, cond: Expression, then_stmt: Optional[Statement],
                 else_stmt: Optional[Statement] = None) -> None:
        self.cond = cond
        self.then_stmt = then_stmt
        self.else_stmt = else_stmt


class CaseItem(Node):
    """One arm of a case statement (``default`` has an empty condition list)."""

    _fields = ("conditions", "statement")

    def __init__(self, conditions: Sequence[Expression],
                 statement: Optional[Statement]) -> None:
        self.conditions = list(conditions)
        self.statement = statement

    @property
    def is_default(self) -> bool:
        return not self.conditions


class CaseStatement(Statement):
    """A ``case``/``casex``/``casez`` statement."""

    _fields = ("expr", "items")

    def __init__(self, expr: Expression, items: Sequence[CaseItem],
                 kind: str = "case") -> None:
        if kind not in ("case", "casex", "casez"):
            raise ValueError(f"invalid case kind {kind!r}")
        self.expr = expr
        self.items = list(items)
        self.kind = kind


class ForStatement(Statement):
    """A ``for (init; cond; step) body`` loop."""

    _fields = ("init", "cond", "step", "body")

    def __init__(self, init: Statement, cond: Expression, step: Statement,
                 body: Statement) -> None:
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class WhileStatement(Statement):
    """A ``while (cond) body`` loop."""

    _fields = ("cond", "body")

    def __init__(self, cond: Expression, body: Statement) -> None:
        self.cond = cond
        self.body = body


class RepeatStatement(Statement):
    """A ``repeat (count) body`` loop."""

    _fields = ("count", "body")

    def __init__(self, count: Expression, body: Statement) -> None:
        self.count = count
        self.body = body


class TaskCall(Statement):
    """A task or system-task enable used as a statement, e.g. ``$display(...)``."""

    _fields = ("args",)

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        self.name = name
        self.args = list(args)


class NullStatement(Statement):
    """An empty statement (a bare ``;``)."""


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

class SensitivityItem(Node):
    """A single entry of a sensitivity list.

    ``edge`` is ``posedge``, ``negedge`` or ``None`` (level sensitivity).
    ``signal`` is ``None`` for the wildcard ``*``.
    """

    _fields = ("signal",)

    def __init__(self, signal: Optional[Expression], edge: Optional[str] = None) -> None:
        self.signal = signal
        self.edge = edge

    @property
    def is_wildcard(self) -> bool:
        return self.signal is None


class AlwaysBlock(ModuleItem):
    """An ``always @(...) statement`` process."""

    _fields = ("sensitivity", "statement")

    def __init__(self, sensitivity: Sequence[SensitivityItem],
                 statement: Statement) -> None:
        self.sensitivity = list(sensitivity)
        self.statement = statement


class InitialBlock(ModuleItem):
    """An ``initial statement`` process."""

    _fields = ("statement",)

    def __init__(self, statement: Statement) -> None:
        self.statement = statement


class FunctionDeclaration(ModuleItem):
    """A function declaration.

    Attributes:
        name: Function name.
        return_width: Optional packed range of the return value.
        items: Input/reg declarations local to the function.
        body: The single function statement (usually a begin/end block).
    """

    _fields = ("return_width", "items", "body")

    def __init__(self, name: str, return_width: Optional[Range],
                 items: Sequence[Node], body: Statement,
                 signed: bool = False) -> None:
        self.name = name
        self.return_width = return_width
        self.items = list(items)
        self.body = body
        self.signed = signed


class PortConnection(Node):
    """A named or positional port/parameter connection of an instance."""

    _fields = ("expr",)

    def __init__(self, expr: Optional[Expression], name: Optional[str] = None) -> None:
        self.expr = expr
        self.name = name


class ModuleInstance(ModuleItem):
    """A module instantiation.

    Attributes:
        module_name: Name of the instantiated module.
        instance_name: Instance identifier.
        parameters: Parameter overrides (``#(...)``).
        connections: Port connections.
    """

    _fields = ("parameters", "connections")

    def __init__(self, module_name: str, instance_name: str,
                 parameters: Sequence[PortConnection],
                 connections: Sequence[PortConnection]) -> None:
        self.module_name = module_name
        self.instance_name = instance_name
        self.parameters = list(parameters)
        self.connections = list(connections)


class GenvarDeclaration(ModuleItem):
    """A ``genvar`` declaration."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)


# --------------------------------------------------------------------------
# Module and source
# --------------------------------------------------------------------------

class Module(Node):
    """A Verilog module.

    Attributes:
        name: Module name.
        ports: Ordered port list (:class:`Port` objects).
        items: Module body items in source order.
        parameters: Header parameter declarations (``#(parameter ...)``).
    """

    _fields = ("ports", "parameters", "items")

    def __init__(self, name: str, ports: Sequence[Port],
                 items: Sequence[ModuleItem],
                 parameters: Optional[Sequence[ParamDeclaration]] = None) -> None:
        self.name = name
        self.ports = list(ports)
        self.items = list(items)
        self.parameters = list(parameters) if parameters else []

    # Convenience accessors -------------------------------------------------

    def find_port(self, name: str) -> Optional[Port]:
        """Return the port named ``name`` or ``None``."""
        for port in self.ports:
            if port.name == name:
                return port
        return None


class Source(Node):
    """Root node: an ordered collection of modules from one source text."""

    _fields = ("modules",)

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)

    def find_module(self, name: str) -> Optional[Module]:
        """Return the module named ``name`` or ``None``."""
        for module in self.modules:
            if module.name == name:
                return module
        return None

    @property
    def top(self) -> Module:
        """Return the first module (the conventional top for our benchmarks)."""
        if not self.modules:
            raise ValueError("source contains no modules")
        return self.modules[0]
