"""Lowering: AST expressions → bit-slice closures over the executor kernels.

:class:`ExpressionCompiler` translates each assignment expression into a
closure over the ALU primitives in :mod:`repro.sim.plan.executor`.  Width
bookkeeping happens at compile time: every compiled expression carries the
exact number of slices it produces, so the runtime never touches slices that
are provably zero.

A ternary whose condition is the same on every lane of a pass runs only the
branch it selects, padded to the ternary's width; the other branch is dead
and never runs.  A locking mux ``k[i] ? a OP1 b : a OP2 b`` is such a
ternary on every pass that binds one value of ``k[i]`` to all its lanes:
a ``run_batch`` under one key, the base pass and each single-flip cone of
a key-flip sweep, an avalanche sweep under one key, and a sweep tile whose
points agree on ``k[i]``.  Only a condition that differs between lanes
evaluates both branches and selects per lane (``executor._mux``).

The compiler consumes the annotations the analysis passes computed:

* ``shared`` structural keys (the CSE pass) — every subexpression whose key
  is shared compiles exactly once into a synthetic ``$cseN`` step; further
  occurrences become slot reads,
* ``invariant`` structural keys (the sweep value-numbering pass) — maximal
  point-invariant subexpressions inside point-varying assignments compile
  into ``$vnN`` steps, which the sweep executor evaluates once per V-lane
  base batch instead of once per S×V sweep lane.

Per emitted step the compiler records the set of signal/slot names its
closure reads — the dependency edges the sweep classifier and the release
schedules walk — and the key-port bits it reads directly: a static bit-
or part-select of the key port reads only the selected bits, any other read
of the port (whole, or by a dynamic index) reads every bit.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
                    Tuple)

from ...verilog import ast_nodes as ast
from ..evaluator import SimulationError
from . import executor as kernels
from .steps import (HOISTABLE, WORKING_WIDTH, BatchCompileError, CompiledExpr,
                    Slices, Step, static_int, structural_key)


class ExpressionCompiler:
    """Translates AST expressions into bit-slice closures.

    Args:
        widths: Declared signal widths (mutated: synthetic slots are added).
        default_width: Working width of intermediate results.
        shared: Structural keys of subexpressions to hoist into shared
            ``$cseN`` steps (computed by the CSE pass).
        invariant: Structural keys of point-invariant subexpressions to
            hoist into ``$vnN`` steps (computed by the sweep-VN pass).
            A key present in both sets is emitted as a ``$cseN`` step; the
            sweep executor hoists it all the same, since it reads no
            point-varying source.
        key_port: The design's key port, whose reads are recorded per bit.
        key_memo: The build's structural-key memo (see
            :func:`~repro.sim.plan.steps.structural_key`), shared with the
            passes that ran before lowering.
    """

    def __init__(self, widths: Mapping[str, int],
                 default_width: int = WORKING_WIDTH,
                 shared: FrozenSet[tuple] = frozenset(),
                 invariant: FrozenSet[tuple] = frozenset(),
                 key_port: Optional[str] = None, *,
                 key_memo: Dict[int, tuple]) -> None:
        self.widths = dict(widths)
        self.default_width = default_width
        self.shared = shared
        self.invariant = invariant
        self.key_port = key_port
        self._key_memo = key_memo
        self._hoist_slots: Dict[tuple, Tuple[str, int]] = {}
        self._cse_count = 0
        self._vn_count = 0
        self._pending_steps: List[Step] = []
        # Per step being compiled: (names read, key-port bits read).
        self._dep_stack: List[Tuple[Set[str], Set[int]]] = []

    def width_of(self, name: str) -> int:
        return self.widths.get(name, self.default_width)

    @property
    def cse_slot_count(self) -> int:
        """Number of shared-subexpression (``$cseN``) slots emitted so far."""
        return self._cse_count

    @property
    def vn_slot_count(self) -> int:
        """Number of invariant-subexpression (``$vnN``) slots emitted so far."""
        return self._vn_count

    def _record_dep(self, name: str,
                    key_bits: Optional[Iterable[int]] = None) -> None:
        """Record a read of ``name``; a read of the key port reads
        ``key_bits`` (default: every bit of the port)."""
        if self._dep_stack:
            names, bits = self._dep_stack[-1]
            names.add(name)
            if name == self.key_port:
                width = self.width_of(name)
                bits.update(range(width) if key_bits is None
                            else (bit for bit in key_bits if bit < width))

    def compile_step(self, expr: ast.Expression
                     ) -> Tuple[CompiledExpr, int, Set[str], Set[int]]:
        """Compile a top-level assignment: ``(closure, width, read names,
        key-port bits read)``."""
        self._dep_stack.append((set(), set()))
        fn, width = self.compile(expr)
        names, key_bits = self._dep_stack.pop()
        return fn, width, names, key_bits

    def take_pending_steps(self) -> List[Step]:
        """Drain hoisted steps emitted since the last call (dependency order)."""
        pending, self._pending_steps = self._pending_steps, []
        return pending

    def compile(self, expr: ast.Expression) -> Tuple[CompiledExpr, int]:
        """Return ``(closure, width)`` for ``expr``.

        Raises:
            BatchCompileError: for constructs the plan cannot express
                statically (the caller falls back to the scalar engine).
        """
        if (self.shared or self.invariant) and isinstance(expr, HOISTABLE):
            key = structural_key(expr, self._key_memo)
            is_shared = key in self.shared
            if is_shared or key in self.invariant:
                slot_info = self._hoist_slots.get(key)
                if slot_info is None:
                    self._dep_stack.append((set(), set()))
                    fn, width = self._compile(expr)
                    deps, key_bits = self._dep_stack.pop()
                    if is_shared:
                        slot = f"$cse{self._cse_count}"
                        self._cse_count += 1
                        kind = "cse"
                    else:
                        slot = f"$vn{self._vn_count}"
                        self._vn_count += 1
                        kind = "invariant"
                    self.widths[slot] = width
                    slot_info = (slot, width)
                    self._hoist_slots[key] = slot_info
                    self._pending_steps.append(
                        Step(target=slot, width=width, fn=fn,
                             reads=frozenset(deps),
                             key_bits=tuple(sorted(key_bits)),
                             kind=kind))
                slot, width = slot_info
                self._record_dep(slot)

                def read_slot(env: Dict[str, Slices], full: int,
                              _name: str = slot) -> Slices:
                    return env[_name]

                return read_slot, width
        return self._compile(expr)

    def _compile(self, expr: ast.Expression) -> Tuple[CompiledExpr, int]:
        working = max(self.default_width, 1)

        if isinstance(expr, ast.Identifier):
            return self._compile_read(expr.name)

        if isinstance(expr, ast.IntConst):
            try:
                value = expr.as_int()
            except ValueError as exc:
                raise BatchCompileError(str(exc)) from exc
            bits = [(value >> i) & 1 for i in range(value.bit_length())]

            def const(env: Dict[str, Slices], full: int,
                      _bits: List[int] = bits) -> Slices:
                return [full if b else 0 for b in _bits]

            return const, len(bits)

        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr, working)
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr, working)

        if isinstance(expr, ast.TernaryOp):
            cond, _ = self.compile(expr.cond)
            true_fn, wt = self.compile(expr.true_value)
            false_fn, wf = self.compile(expr.false_value)
            n = max(wt, wf)

            def ternary(env: Dict[str, Slices], full: int) -> Slices:
                m = kernels._nonzero(cond(env, full))
                # A condition uniform over the lanes selects one branch
                # whole; the other is dead and never runs.
                if m == full:
                    return kernels._fit(true_fn(env, full), n)
                if m == 0:
                    return kernels._fit(false_fn(env, full), n)
                return kernels._mux(m, true_fn(env, full),
                                    false_fn(env, full), full)

            return ternary, n

        if isinstance(expr, ast.Concat):
            parts = []
            total = 0
            for part in expr.parts:
                fn, _ = self.compile(part)
                pw = self._operand_width(part)
                parts.append((fn, pw))
                total += pw

            def concat(env: Dict[str, Slices], full: int) -> Slices:
                out: Slices = []
                for fn, pw in reversed(parts):
                    out.extend(kernels._fit(fn(env, full), pw))
                return out

            return concat, total

        if isinstance(expr, ast.Replication):
            count = static_int(expr.count)
            if count is None:
                raise BatchCompileError(
                    "replication count is not a static constant")
            fn, _ = self.compile(expr.value)
            pw = self._operand_width(expr.value)

            def replicate(env: Dict[str, Slices], full: int) -> Slices:
                part = kernels._fit(fn(env, full), pw)
                return part * count

            return replicate, count * pw

        if isinstance(expr, ast.BitSelect):
            index = static_int(expr.index)
            target_fn, wt = self._compile_select_target(
                expr.target, None if index is None else [index])
            if index is not None:

                def bit_static(env: Dict[str, Slices], full: int,
                               _i: int = index) -> Slices:
                    value = target_fn(env, full)
                    return [value[_i]] if _i < len(value) else [0]

                return bit_static, 1

            index_fn, _ = self.compile(expr.index)
            self._check_shift_width(wt)

            def bit_dynamic(env: Dict[str, Slices], full: int) -> Slices:
                shifted = kernels._shift_right_var(target_fn(env, full),
                                                   index_fn(env, full), full)
                return [shifted[0]] if shifted else [0]

            return bit_dynamic, 1

        if isinstance(expr, ast.PartSelect):
            msb = static_int(expr.msb)
            lsb = static_int(expr.lsb)
            if msb is None or lsb is None:
                raise BatchCompileError(
                    "part-select bounds are not static constants")
            if msb < lsb:
                msb, lsb = lsb, msb
            width = msb - lsb + 1
            target_fn, _ = self._compile_select_target(
                expr.target, range(lsb, msb + 1))

            def part(env: Dict[str, Slices], full: int) -> Slices:
                value = target_fn(env, full)
                return [value[i] if i < len(value) else 0
                        for i in range(lsb, msb + 1)]

            return part, width

        if isinstance(expr, ast.IndexedPartSelect):
            base = static_int(expr.base)
            width = static_int(expr.width)
            if base is None or width is None:
                raise BatchCompileError(
                    "indexed part-select bounds are not static constants")
            lsb = base if expr.direction == "+:" else base - width + 1
            lsb = max(lsb, 0)
            target_fn, _ = self._compile_select_target(
                expr.target, range(lsb, lsb + width))

            def indexed(env: Dict[str, Slices], full: int) -> Slices:
                value = target_fn(env, full)
                return [value[i] if i < len(value) else 0
                        for i in range(lsb, lsb + width)]

            return indexed, width

        raise BatchCompileError(
            f"cannot compile expression of type {type(expr).__name__}")

    def _compile_read(self, name: str,
                      key_bits: Optional[Iterable[int]] = None
                      ) -> Tuple[CompiledExpr, int]:
        """A signal read; ``key_bits`` are the key-port bits it reads."""
        self._record_dep(name, key_bits)

        def read(env: Dict[str, Slices], full: int,
                 _name: str = name) -> Slices:
            try:
                return env[_name]
            except KeyError:
                raise SimulationError(f"signal {_name!r} has no value")

        return read, self.width_of(name)

    def _compile_select_target(self, target: ast.Expression,
                               selected: Optional[Iterable[int]]
                               ) -> Tuple[CompiledExpr, int]:
        """The target of a select; a key-port target reads only the
        ``selected`` bits (``None``: a dynamic index, every bit)."""
        if isinstance(target, ast.Identifier) and target.name == self.key_port:
            return self._compile_read(target.name, selected)
        return self.compile(target)

    # ------------------------------------------------------------- binary ops

    def _compile_binary(self, expr: ast.BinaryOp,
                        working: int) -> Tuple[CompiledExpr, int]:
        op = expr.op
        left_fn, wl = self.compile(expr.left)
        right_fn, wr = self.compile(expr.right)

        if op == "+":
            n = min(working, max(wl, wr) + 1)

            def add(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._add(left_fn(env, full), right_fn(env, full), n)

            return add, n

        if op == "-":
            # mask(a - b, working) equals the (max+1)-bit difference
            # sign-extended to the working width; the extension slices share
            # one integer object, so the ripple stays short.
            m = min(working, max(wl, wr) + 1)

            def sub(env: Dict[str, Slices], full: int) -> Slices:
                low = kernels._sub(left_fn(env, full), right_fn(env, full),
                                   m, full)
                return low + [low[m - 1]] * (working - m)

            return sub, working

        if op == "*":
            n = min(working, wl + wr)

            def mul(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._mul(left_fn(env, full), right_fn(env, full), n)

            return mul, n

        if op in ("/", "%"):
            want_quotient = op == "/"
            n = min(wl, working) if want_quotient else min(wl, wr, working)

            def div(env: Dict[str, Slices], full: int) -> Slices:
                q, r = kernels._divmod(left_fn(env, full),
                                       right_fn(env, full), full)
                return kernels._fit(q if want_quotient else r, n)

            return div, n

        if op == "**":
            return self._compile_power(left_fn, right_fn, wr, working)

        if op in ("<<", "<<<"):
            static = static_int(expr.right)
            if static is not None:
                shift = min(static, 4 * working)
                n = min(working, wl + shift)

                def shl_static(env: Dict[str, Slices], full: int) -> Slices:
                    return kernels._fit([0] * shift + left_fn(env, full), n)

                return shl_static, n

            def shl(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._shift_left_var(left_fn(env, full),
                                               right_fn(env, full),
                                               working, full)

            return shl, working

        if op in (">>", ">>>"):
            static = static_int(expr.right)
            if static is not None:
                shift = min(static, 4 * working)
                n = max(0, min(wl - shift, working))

                def shr_static(env: Dict[str, Slices], full: int) -> Slices:
                    return kernels._fit(left_fn(env, full)[shift:], n)

                return shr_static, n

            self._check_shift_width(wl)

            def shr(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._fit(
                    kernels._shift_right_var(left_fn(env, full),
                                             right_fn(env, full), full),
                    min(wl, working))

            return shr, min(wl, working)

        if op in ("&", "|", "^"):
            n = min(working, min(wl, wr) if op == "&" else max(wl, wr))
            word = {"&": lambda x, y: x & y,
                    "|": lambda x, y: x | y,
                    "^": lambda x, y: x ^ y}[op]

            def bitwise(env: Dict[str, Slices], full: int) -> Slices:
                a = left_fn(env, full)
                b = right_fn(env, full)
                la, lb = len(a), len(b)
                return [word(a[i] if i < la else 0, b[i] if i < lb else 0)
                        for i in range(n)]

            return bitwise, n

        if op in ("~^", "^~"):
            def xnor(env: Dict[str, Slices], full: int) -> Slices:
                a = left_fn(env, full)
                b = right_fn(env, full)
                la, lb = len(a), len(b)
                return [((a[i] if i < la else 0) ^ (b[i] if i < lb else 0)
                         ^ full)
                        for i in range(working)]

            return xnor, working

        if op in ("<", ">", "<=", ">="):
            swapped = op in (">", "<=")
            inverted = op in ("<=", ">=")

            def relational(env: Dict[str, Slices], full: int) -> Slices:
                a = left_fn(env, full)
                b = right_fn(env, full)
                if swapped:
                    a, b = b, a
                m = kernels._less_than(a, b, full)
                return [m ^ full if inverted else m]

            return relational, 1

        if op in ("==", "===", "!=", "!=="):
            negate = op in ("!=", "!==")

            def equality(env: Dict[str, Slices], full: int) -> Slices:
                m = kernels._equal(left_fn(env, full), right_fn(env, full),
                                   full)
                return [m ^ full if negate else m]

            return equality, 1

        if op in ("&&", "||"):
            is_and = op == "&&"

            def logical(env: Dict[str, Slices], full: int) -> Slices:
                a = kernels._nonzero(left_fn(env, full))
                b = kernels._nonzero(right_fn(env, full))
                return [a & b if is_and else a | b]

            return logical, 1

        raise BatchCompileError(f"unsupported binary operator {op!r}")

    def _compile_power(self, left_fn: CompiledExpr, right_fn: CompiledExpr,
                       wr: int, working: int) -> Tuple[CompiledExpr, int]:
        """``pow(left, min(right, 64), 2**working)`` by square-and-multiply."""

        def power(env: Dict[str, Slices], full: int) -> Slices:
            base = kernels._fit(left_fn(env, full), working)
            exponent = right_fn(env, full)
            # Lanes with exponent >= 64 clamp to exactly 64 (bit 6 only).
            ge64 = 0
            for s in exponent[6:]:
                ge64 |= s
            keep = ge64 ^ full
            bits = [(exponent[k] if k < len(exponent) else 0) & keep
                    for k in range(6)] + [ge64]
            one = [full]
            result = kernels._fit(one, working)
            square = base
            for k, bit in enumerate(bits):
                if bit:
                    factor = kernels._mux(bit, square, one, full)
                    result = kernels._mul(result, factor, working)
                if k + 1 < len(bits):
                    square = kernels._mul(square, square, working)
            return result

        return power, working

    # -------------------------------------------------------------- unary ops

    def _compile_unary(self, expr: ast.UnaryOp,
                       working: int) -> Tuple[CompiledExpr, int]:
        op = expr.op
        operand_fn, _ = self.compile(expr.operand)
        operand_width = self._operand_width(expr.operand)

        if op == "+":
            def plus(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._fit(operand_fn(env, full), working)

            return plus, working

        if op == "-":
            zero: Slices = []

            def minus(env: Dict[str, Slices], full: int) -> Slices:
                return kernels._sub(zero, operand_fn(env, full), working, full)

            return minus, working

        if op == "~":
            def invert(env: Dict[str, Slices], full: int) -> Slices:
                value = operand_fn(env, full)
                lv = len(value)
                return [(value[i] ^ full) if i < lv else full
                        for i in range(working)]

            return invert, working

        if op == "!":
            def logical_not(env: Dict[str, Slices], full: int) -> Slices:
                return [kernels._nonzero(operand_fn(env, full)) ^ full]

            return logical_not, 1

        if op in ("&", "~&"):
            negate = op == "~&"

            def reduce_and(env: Dict[str, Slices], full: int) -> Slices:
                value = operand_fn(env, full)
                lv = len(value)
                # operand == mask(-1, operand_width): low bits all ones AND
                # no set bit above the operand width.
                acc = full
                for i in range(operand_width):
                    acc &= value[i] if i < lv else 0
                high = 0
                for i in range(operand_width, lv):
                    high |= value[i]
                m = acc & (high ^ full)
                return [m ^ full if negate else m]

            return reduce_and, 1

        if op in ("|", "~|"):
            negate = op == "~|"

            def reduce_or(env: Dict[str, Slices], full: int) -> Slices:
                m = kernels._nonzero(operand_fn(env, full))
                return [m ^ full if negate else m]

            return reduce_or, 1

        if op in ("^", "~^", "^~"):
            negate = op != "^"

            def reduce_xor(env: Dict[str, Slices], full: int) -> Slices:
                value = operand_fn(env, full)
                lv = len(value)
                acc = 0
                for i in range(operand_width):
                    if i < lv:
                        acc ^= value[i]
                return [acc ^ full if negate else acc]

            return reduce_xor, 1

        raise BatchCompileError(f"unsupported unary operator {op!r}")

    # -------------------------------------------------------------- utilities

    def _operand_width(self, expr: ast.Expression) -> int:
        """Static operand width (mirrors ExpressionEvaluator._operand_width)."""
        if isinstance(expr, ast.Identifier):
            return self.width_of(expr.name)
        if isinstance(expr, ast.IntConst) and expr.width is not None:
            return expr.width
        if isinstance(expr, ast.BitSelect):
            return 1
        if isinstance(expr, ast.PartSelect):
            try:
                msb = expr.msb.as_int()
                lsb = expr.lsb.as_int()
                return abs(msb - lsb) + 1
            except (AttributeError, ValueError):
                return self.default_width
        return self.default_width

    def _check_shift_width(self, width: int) -> None:
        if width > 4 * self.default_width:
            raise BatchCompileError(
                "variable shift over a value wider than the shift clamp")
