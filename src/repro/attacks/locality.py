"""Locality extraction: the feature vectors of the RTL SnapShot attack.

For gate-level SnapShot a locality is a vector encoding the netlist sub-graph
around a key input.  The RTL adaptation of the paper extracts, for every key
bit ``K[i]``, the *key-controlled operation pair* ``[K[i], C1, C2]`` where
``C1``/``C2`` are integer encodings of the operations in the true/false branch
of the key-controlled ternary.  The feature vector of a key bit is exactly the
paper's ``[C1, C2]``.  The localities of a design have one form, a matrix:
:meth:`LocalityExtractor.extract_matrix` returns one row per key bit, in
index order, with the bit's correct value as its label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..rtlir.design import Design, KeyBit
from ..rtlir.operations import NO_OPERATION, encode_operator, normalize_operator
from ..verilog import ast_nodes as ast

#: Supported feature-set names: the paper's ``[C1, C2]`` pair only.
FEATURE_SETS = ("pair",)


class LocalityExtractor:
    """Extract the ``[C1, C2]`` locality of every key bit of a locked design."""

    #: Width of the produced feature vectors.
    n_features = 2

    def extract_matrix(self, design: Design,
                       key_indices: Optional[Sequence[int]] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """The localities of ``design`` as ``(features, labels)`` arrays.

        Row ``i`` holds the ``[C1, C2]`` features and the correct key value
        of the ``i``-th selected key bit in index order.  An empty selection
        gives ``(0, 2)`` features and ``(0,)`` labels.

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
        pairs = _key_controlled_nodes(design)
        bits = sorted((bit for bit in design.key_bits
                       if wanted is None or bit.index in wanted),
                      key=lambda bit: bit.index)
        features = np.array([_feature_row(bit, pairs) for bit in bits],
                            dtype=float).reshape(-1, self.n_features)
        labels = np.array([bit.correct_value for bit in bits], dtype=int)
        return features, labels


def _feature_row(bit: KeyBit, pairs: Dict[int, Tuple[int, int]]
                 ) -> List[float]:
    """``[C1, C2]`` of an operation key bit, ``NO_OPERATION`` twice otherwise."""
    pair = pairs.get(bit.index)
    if pair is None or bit.kind != "operation":
        return [float(NO_OPERATION), float(NO_OPERATION)]
    return [float(pair[0]), float(pair[1])]


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


def _key_controlled_nodes(design: Design) -> Dict[int, Tuple[int, int]]:
    """Map key-bit index -> branch codes ``(C1, C2)`` of its controlled ternary.

    A key bit whose ternary occurs more than once (``add_pair`` clones the
    operands of the real operation, and earlier ternaries with them) keeps
    the codes of its last occurrence in pre-order.
    """
    key_port = design.key_port
    assert key_port is not None
    pairs: Dict[int, Tuple[int, int]] = {}
    for item in design.top.items:
        for node in item.iter_tree():
            if not isinstance(node, ast.TernaryOp):
                continue
            index = _key_bit_index(node.cond, key_port)
            if index is not None:
                pairs[index] = (_branch_operation_code(node.true_value),
                                _branch_operation_code(node.false_value))
    return pairs

