"""Locking-pair tables for operation obfuscation.

A *locking pair* ``(T, T')`` couples a real operation type ``T`` with the
dummy type ``T'`` that ASSURE inserts next to it.  Two tables are provided:

* :data:`ORIGINAL_ASSURE_TABLE` — the asymmetric pairing used by the original
  ASSURE implementation.  Section 3.2 of the paper shows it is *leaky*: ``*``
  is paired with ``+`` while ``+`` is paired with ``-``, so observing the pair
  ``(*, +)`` immediately reveals that ``*`` is the real operation (``(+, *)``
  never occurs).  Similar asymmetries exist for ``%``, ``^``, ``**`` and ``/``.
* :data:`SYMMETRIC_PAIR_TABLE` — the fixed table the paper mandates: every
  operation appears as real and as dummy with the *same* partner, e.g.
  ``(*, /)`` and ``(/, *)``.  All evaluations in the paper (and all locking
  algorithms in this repo by default) use this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from ..rtlir.operations import LOCKABLE_OPERATORS, normalize_operator


class PairingError(ValueError):
    """Raised when an operator has no locking pair in the selected table."""


@dataclass(frozen=True)
class PairTable:
    """A mapping from a real operation type to its dummy type.

    Attributes:
        name: Human-readable table name (appears in reports).
        mapping: ``real operator -> dummy operator``.
    """

    name: str
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        for real, dummy in self.mapping.items():
            if real not in LOCKABLE_OPERATORS:
                raise PairingError(f"real operator {real!r} is not lockable")
            if dummy not in LOCKABLE_OPERATORS:
                raise PairingError(f"dummy operator {dummy!r} is not lockable")
            if real == dummy:
                raise PairingError(f"operator {real!r} cannot pair with itself")
        # pair_of sits on the locking hot path (the ODT marks affected pairs
        # on every add_pair), so the op -> pair lookup is built once here.
        pairs = {frozenset(pair): pair for pair in self.unordered_pairs()}
        object.__setattr__(self, "_pair_by_op", {
            real: pairs[frozenset((real, dummy))]
            for real, dummy in self.mapping.items()})

    # ----------------------------------------------------------------- lookup

    def dummy_of(self, op: str) -> str:
        """Return the dummy operator paired with real operator ``op``.

        Raises:
            PairingError: when the operator has no pairing.
        """
        op = normalize_operator(op)
        try:
            return self.mapping[op]
        except KeyError as exc:
            raise PairingError(f"operator {op!r} has no locking pair in table "
                               f"{self.name!r}") from exc

    def has_pair(self, op: str) -> bool:
        """Return True if ``op`` has a pairing in this table."""
        return normalize_operator(op) in self.mapping

    def supported_operators(self) -> List[str]:
        """Operators that can act as the real operation in this table."""
        return list(self.mapping)

    # ------------------------------------------------------------- properties

    def unordered_pairs(self) -> List[Tuple[str, str]]:
        """Return the distinct unordered pairs ``{T, T'}`` of the table.

        For a symmetric table this is the set Θ of valid locking pairs used by
        ERA and HRA (Algorithm 3/4).  For an asymmetric table every ordered
        entry contributes its unordered pair once.
        """
        seen: Dict[frozenset, Tuple[str, str]] = {}
        for real, dummy in self.mapping.items():
            key = frozenset((real, dummy))
            if key not in seen:
                seen[key] = (real, dummy)
        return list(seen.values())

    def pair_of(self, op: str) -> Tuple[str, str]:
        """Return the unordered pair that ``op`` belongs to (as ordered tuple)."""
        op = normalize_operator(op)
        try:
            return self._pair_by_op[op]
        except KeyError as exc:
            raise PairingError(f"operator {op!r} has no locking pair in table "
                               f"{self.name!r}") from exc


def make_symmetric(pairs: Iterable[Tuple[str, str]], name: str) -> PairTable:
    """Build a symmetric :class:`PairTable` from unordered pairs.

    Raises:
        PairingError: if an operator appears in more than one pair.
    """
    mapping: Dict[str, str] = {}
    for first, second in pairs:
        for op in (first, second):
            if op in mapping:
                raise PairingError(f"operator {op!r} appears in more than one pair")
        mapping[first] = second
        mapping[second] = first
    return PairTable(name, mapping)


#: The original (leaky) ASSURE pairing.  Asymmetries reproduced from the
#: paper's Section 3.2: ``*`` pairs with ``+`` although ``+`` pairs with
#: ``-``; ``/``, ``%``, ``**`` and ``^`` have analogous one-way pairings.
ORIGINAL_ASSURE_TABLE = PairTable(
    "assure-original",
    {
        "+": "-",
        "-": "+",
        "*": "+",      # leak: (*, +) exists but (+, *) does not
        "/": "-",      # leak: (/, -) exists but (-, /) does not
        "%": "+",      # leak
        "**": "*",     # leak
        "^": "&",      # leak
        "~^": "|",     # leak
        "&": "|",
        "|": "&",
        "<<": ">>",
        ">>": "<<",
        "<<<": ">>>",
        ">>>": "<<<",
        "<": ">=",
        ">=": "<",
        ">": "<=",
        "<=": ">",
        "==": "!=",
        "!=": "==",
    },
)


#: The fixed, symmetric pairing mandated by Section 3.2.  Every operator
#: appears in exactly one unordered pair.
SYMMETRIC_PAIR_TABLE = make_symmetric(
    [
        ("+", "-"),
        ("*", "/"),
        ("%", "**"),
        ("<<", ">>"),
        ("<<<", ">>>"),
        ("&", "|"),
        ("^", "~^"),
        ("<", ">="),
        (">", "<="),
        ("==", "!="),
    ],
    name="symmetric-fixed",
)


def default_pair_table() -> PairTable:
    """Return the pair table used by default throughout the library."""
    return SYMMETRIC_PAIR_TABLE
