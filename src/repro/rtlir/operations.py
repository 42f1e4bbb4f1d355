"""Operator taxonomy for RTL operation locking.

The locking algorithms reason about *operation types*: the binary operators
that appear in the dataflow of a design (``+``, ``-``, ``*``, ``<<`` ...).
This module defines

* which operators are considered *lockable* (candidates for ASSURE operation
  obfuscation),
* a stable integer encoding for every operator (used by the SnapShot locality
  extractor and by the ML feature vectors),
* convenience helpers for classifying operators.

The encoding is fixed and documented so that localities extracted from
different designs and different runs are comparable — exactly the property the
data-driven attack relies on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Binary operators that ASSURE-style operation obfuscation may lock.  These
#: are the word-level dataflow operators; purely boolean "glue" (``&&``,
#: ``||``) and the case-equality operators are excluded because ASSURE does
#: not lock them.
LOCKABLE_OPERATORS: FrozenSet[str] = frozenset(
    {
        "+", "-", "*", "/", "%", "**",
        "<<", ">>", "<<<", ">>>",
        "&", "|", "^", "~^", "^~",
        "<", ">", "<=", ">=", "==", "!=",
    }
)

#: Operators grouped by coarse functional class.  Used by the benchmark
#: profiles and by some analysis reports.
OPERATOR_CLASSES: Dict[str, FrozenSet[str]] = {
    "arithmetic": frozenset({"+", "-", "*", "/", "%", "**"}),
    "shift": frozenset({"<<", ">>", "<<<", ">>>"}),
    "bitwise": frozenset({"&", "|", "^", "~^", "^~"}),
    "relational": frozenset({"<", ">", "<=", ">=", "==", "!="}),
}

#: Stable integer encoding of every operator the frontend can produce.  Index
#: 0 is reserved for "no operation" so that feature vectors can use 0 as a
#: padding value.
OPERATOR_ENCODING: Dict[str, int] = {
    op: index + 1
    for index, op in enumerate(
        [
            "+", "-", "*", "/", "%", "**",
            "<<", ">>", "<<<", ">>>",
            "&", "|", "^", "~^", "^~",
            "<", ">", "<=", ">=", "==", "!=",
            "&&", "||", "===", "!==",
        ]
    )
}

#: Reverse mapping of :data:`OPERATOR_ENCODING`.
OPERATOR_DECODING: Dict[int, str] = {v: k for k, v in OPERATOR_ENCODING.items()}

#: Encoding value reserved for "no operation present".
NO_OPERATION = 0


def is_lockable(op: str) -> bool:
    """Return ``True`` if ``op`` is a candidate for operation obfuscation."""
    return op in LOCKABLE_OPERATORS


def encode_operator(op: str) -> int:
    """Return the stable integer code of ``op``.

    Raises:
        KeyError: for operators outside the supported set.
    """
    return OPERATOR_ENCODING[op]


def decode_operator(code: int) -> str:
    """Return the operator string for an integer code.

    Raises:
        KeyError: for codes that do not map to an operator.
    """
    if code == NO_OPERATION:
        raise KeyError("code 0 is the reserved 'no operation' value")
    return OPERATOR_DECODING[code]


def operator_class(op: str) -> str:
    """Return the coarse class name of ``op`` (``arithmetic``, ``shift``...).

    Raises:
        KeyError: if the operator does not belong to any class.
    """
    for name, members in OPERATOR_CLASSES.items():
        if op in members:
            return name
    raise KeyError(f"operator {op!r} has no class")


def normalize_operator(op: str) -> str:
    """Normalise operator aliases (``^~`` and ``~^`` denote the same XNOR)."""
    if op == "^~":
        return "~^"
    return op

