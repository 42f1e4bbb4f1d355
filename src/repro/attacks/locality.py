"""Locality extraction: the feature vectors of the RTL SnapShot attack.

For gate-level SnapShot a locality is a vector encoding the netlist sub-graph
around a key input.  The RTL adaptation of the paper extracts, for every key
bit ``K[i]``, the *key-controlled operation pair* ``[K[i], C1, C2]`` where
``C1``/``C2`` are integer encodings of the operations in the true/false branch
of the key-controlled ternary.

Three feature sets are provided:

* ``pair`` — exactly the paper's ``[C1, C2]`` encoding,
* ``extended`` — ``[C1, C2]`` plus structural context (parent operation code,
  ternary nesting depth, container kind), used by the ablation study on
  locality features,
* ``behavioral`` — ``[C1, C2]`` plus a simulation-derived output-sensitivity
  feature: the fraction of random input vectors whose outputs change when the
  key bit is flipped against the all-zero hypothesis key.  The probe is
  oracle-free (any attacker can simulate the locked RTL under keys of their
  choosing) and is evaluated with the bit-parallel batch engine, one compiled
  plan and ``key_width + 1`` passes per design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..rtlir.design import Design, KeyBit
from ..rtlir.operations import NO_OPERATION, encode_operator, normalize_operator
from ..verilog import ast_nodes as ast

#: Supported feature-set names.
FEATURE_SETS = ("pair", "extended", "behavioral")

#: Seed of the behavioural probe's input-vector stream; fixed so the same
#: design always yields the same behavioural features.
BEHAVIOR_SEED = 0

#: Container kind codes for the extended feature set.
_CONTAINER_CODES = {
    "assign": 1,
    "always": 2,
    "initial": 3,
    "function": 4,
    "instance": 5,
    "other": 0,
}


@dataclass
class Locality:
    """The extracted locality of one key bit.

    Attributes:
        key_index: Key-bit position.
        features: Feature vector (depends on the feature set).
        label: Correct key value (only meaningful to the defender / for KPA).
        kind: Key-bit kind (``operation``, ``branch``, ``constant``).
    """

    key_index: int
    features: np.ndarray
    label: int
    kind: str


class LocalityExtractor:
    """Extract localities for every key bit of a locked design.

    Args:
        feature_set: ``pair`` (paper default), ``extended`` or ``behavioral``.
        behavior_vectors: Input vectors per sensitivity probe (only used by
            the ``behavioral`` feature set).
    """

    def __init__(self, feature_set: str = "pair",
                 behavior_vectors: int = 32) -> None:
        if feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {feature_set!r}; "
                             f"expected one of {FEATURE_SETS}")
        if behavior_vectors < 1:
            raise ValueError("behavior_vectors must be positive")
        self.feature_set = feature_set
        self.behavior_vectors = behavior_vectors

    @property
    def n_features(self) -> int:
        """Width of the produced feature vectors."""
        if self.feature_set == "pair":
            return 2
        if self.feature_set == "behavioral":
            return 3
        return 5

    # ------------------------------------------------------------ extraction

    def extract(self, design: Design,
                key_indices: Optional[Sequence[int]] = None) -> List[Locality]:
        """Extract the localities of ``design``.

        Args:
            design: A locked design.
            key_indices: Restrict extraction to these key-bit indices
                (default: all key bits of the design).

        Raises:
            ValueError: if the design is not locked.
        """
        if not design.is_locked or design.key_port is None:
            raise ValueError("cannot extract localities from an unlocked design")
        wanted = set(key_indices) if key_indices is not None else None
        control_map = _key_controlled_nodes(design)
        sensitivities = self._sensitivity_profile(design, wanted)
        localities = [
            Locality(key_index=bit.index,
                     features=np.array(self._feature_row(
                         bit, control_map, sensitivities), dtype=float),
                     label=bit.correct_value, kind=bit.kind)
            for bit in design.key_bits
            if wanted is None or bit.index in wanted]
        localities.sort(key=lambda loc: loc.key_index)
        return localities

    def _sensitivity_profile(self, design: Design,
                             wanted: Optional[set] = None) -> Dict[int, float]:
        """Per-key-bit output sensitivity (behavioral feature set only).

        Only the requested key bits are probed — one bit-parallel pass per
        bit — so restricted extractions (the relocking training loop) pay for
        their own bits, not the whole key.  Designs the batch plan compiler
        cannot express degrade gracefully to an all-zero profile instead of
        failing the extraction.
        """
        if self.feature_set != "behavioral":
            return {}
        indices = sorted(bit.index for bit in design.key_bits
                         if wanted is None or bit.index in wanted)
        if not indices:
            return {}
        from ..locking.metrics import key_bit_sensitivity
        from ..sim import SimulationError
        try:
            values = key_bit_sensitivity(
                design, vectors=self.behavior_vectors,
                rng=random.Random(BEHAVIOR_SEED),
                key_indices=indices)
        except SimulationError:
            return {}
        return dict(zip(indices, values))

    def as_matrix(self, localities: Sequence[Locality]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Stack localities into ``(features, labels)`` arrays."""
        if not localities:
            return (np.zeros((0, self.n_features)), np.zeros((0,), dtype=int))
        features = np.vstack([loc.features for loc in localities])
        labels = np.array([loc.label for loc in localities], dtype=int)
        return features, labels

    def extract_matrix(self, design: Design,
                       key_indices: Optional[Sequence[int]] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Convenience: :meth:`extract` followed by :meth:`as_matrix`."""
        return self.as_matrix(self.extract(design, key_indices))

    # -------------------------------------------------------------- internals

    def _feature_row(self, bit: KeyBit, contexts: Dict[int, "_ControlContext"],
                     sensitivities: Dict[int, float]) -> List[float]:
        context = contexts.get(bit.index)
        if context is None or bit.kind != "operation":
            base = [float(NO_OPERATION), float(NO_OPERATION)]
            extended = [0.0, 0.0, 0.0]
        else:
            base = [float(context.true_code), float(context.false_code)]
            extended = [float(context.parent_code), float(context.depth),
                        float(context.container_code)]
        if self.feature_set == "pair":
            return base
        if self.feature_set == "behavioral":
            return base + [float(sensitivities.get(bit.index, 0.0))]
        return base + extended


@dataclass
class _ControlContext:
    """Structural context of one key-controlled ternary."""

    true_code: int
    false_code: int
    parent_code: int
    depth: int
    container_code: int


def operation_code(op: str) -> int:
    """Feature code of operator ``op`` (``NO_OPERATION`` if it has none)."""
    try:
        return encode_operator(normalize_operator(op))
    except KeyError:
        return NO_OPERATION


def _branch_operation_code(expr: ast.Expression) -> int:
    """Encode the dominant operation of a ternary branch.

    Relocked branches are nested ternaries (Fig. 3b); the encoding descends
    through the *true* branch of nested key-controlled ternaries until a
    binary operation is found, mirroring how an attacker would normalise the
    observed pair.
    """
    node = expr
    for _ in range(64):  # depth guard
        if isinstance(node, ast.BinaryOp):
            return operation_code(node.op)
        if isinstance(node, ast.TernaryOp):
            node = node.true_value
            continue
        if isinstance(node, ast.UnaryOp):
            node = node.operand
            continue
        break
    return NO_OPERATION


def _container_code(item: ast.Node) -> int:
    if isinstance(item, ast.ContinuousAssign) or isinstance(item, ast.NetDeclaration):
        return _CONTAINER_CODES["assign"]
    if isinstance(item, ast.AlwaysBlock):
        return _CONTAINER_CODES["always"]
    if isinstance(item, ast.InitialBlock):
        return _CONTAINER_CODES["initial"]
    if isinstance(item, ast.FunctionDeclaration):
        return _CONTAINER_CODES["function"]
    if isinstance(item, ast.ModuleInstance):
        return _CONTAINER_CODES["instance"]
    return _CONTAINER_CODES["other"]


def _key_bit_index(cond: ast.Expression, key_port: str) -> Optional[int]:
    """Return the key-bit index if ``cond`` is a direct key-bit read."""
    if isinstance(cond, ast.BitSelect) and isinstance(cond.target, ast.Identifier):
        if cond.target.name == key_port and isinstance(cond.index, ast.IntConst):
            try:
                return cond.index.as_int()
            except ValueError:
                return None
    if isinstance(cond, ast.Identifier) and cond.name == key_port:
        return 0
    return None


def _key_controlled_nodes(design: Design) -> Dict[int, _ControlContext]:
    """Map key-bit index -> structural context of the controlled ternary.

    A key bit whose ternary occurs more than once (``add_pair`` clones the
    operands of the real operation, and earlier ternaries with them) keeps
    the context of its last occurrence in pre-order.
    """
    key_port = design.key_port
    assert key_port is not None
    contexts: Dict[int, _ControlContext] = {}
    for item in design.top.items:
        container_code = _container_code(item)
        for node, parent, depth in _walk(item):
            if not isinstance(node, ast.TernaryOp):
                continue
            index = _key_bit_index(node.cond, key_port)
            if index is not None:
                contexts[index] = _context(node, parent, depth, container_code)
    return contexts


def _context(ternary: ast.TernaryOp, parent: Optional[ast.Node], depth: int,
             container_code: int) -> _ControlContext:
    parent_code = NO_OPERATION
    if isinstance(parent, ast.BinaryOp):
        parent_code = operation_code(parent.op)
    return _ControlContext(
        true_code=_branch_operation_code(ternary.true_value),
        false_code=_branch_operation_code(ternary.false_value),
        parent_code=parent_code,
        depth=depth,
        container_code=container_code,
    )


def _walk(root: ast.Node) -> Iterator[Tuple[ast.Node, Optional[ast.Node], int]]:
    """Yield ``(node, parent, ternary_depth)`` for ``root``'s subtree in pre-order.

    ``ternary_depth`` counts the :class:`~repro.verilog.ast_nodes.TernaryOp`
    nodes strictly above a node; ``root`` has no parent and depth 0.
    """
    stack: List[Tuple[ast.Node, Optional[ast.Node], int]] = [(root, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        yield node, parent, depth
        if isinstance(node, ast.TernaryOp):
            depth += 1
        for child in reversed(list(node.children())):
            stack.append((child, node, depth))
