"""Unit tests for the locking-pair tables."""

import pytest

from repro.locking.pairs import (
    ORIGINAL_ASSURE_TABLE,
    SYMMETRIC_PAIR_TABLE,
    PairingError,
    PairTable,
    default_pair_table,
    make_symmetric,
)
from repro.rtlir.operations import LOCKABLE_OPERATORS


def asymmetric_entries(table):
    """The ``(real, dummy)`` entries whose dummy does not pair back.

    These are the leakage points of Section 3.2: when ``(T, T')`` is in the
    table but ``(T', T)`` is not, an attacker observing the pair ``{T, T'}``
    knows ``T`` must be the real operation.
    """
    return [(real, dummy) for real, dummy in table.mapping.items()
            if table.mapping.get(dummy) != real]


class TestSymmetricTable:
    def test_is_symmetric(self):
        assert asymmetric_entries(SYMMETRIC_PAIR_TABLE) == []

    def test_every_lockable_operator_has_a_pair(self):
        for op in LOCKABLE_OPERATORS:
            if op == "^~":  # normalised alias of ~^
                continue
            assert SYMMETRIC_PAIR_TABLE.has_pair(op), op

    def test_pairings_from_the_paper(self):
        # Section 3.2: "(*, /) and (/, *)"; operation example of Fig. 3: (+, -).
        assert SYMMETRIC_PAIR_TABLE.dummy_of("*") == "/"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("/") == "*"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("+") == "-"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("-") == "+"

    def test_unordered_pairs_are_disjoint(self):
        seen = set()
        for first, second in SYMMETRIC_PAIR_TABLE.unordered_pairs():
            assert first not in seen and second not in seen
            seen.update({first, second})

    def test_pair_of(self):
        pair = SYMMETRIC_PAIR_TABLE.pair_of("-")
        assert set(pair) == {"+", "-"}

    def test_alias_normalisation(self):
        assert SYMMETRIC_PAIR_TABLE.dummy_of("^~") == SYMMETRIC_PAIR_TABLE.dummy_of("~^")

    def test_default_table_is_symmetric(self):
        assert default_pair_table() is SYMMETRIC_PAIR_TABLE


class TestOriginalTable:
    def test_is_asymmetric(self):
        assert asymmetric_entries(ORIGINAL_ASSURE_TABLE)

    def test_leakage_points_from_the_paper(self):
        # "* is paired with a +, but + is also paired with -" (Section 3.2).
        assert ORIGINAL_ASSURE_TABLE.dummy_of("*") == "+"
        assert ORIGINAL_ASSURE_TABLE.dummy_of("+") == "-"
        leaks = dict(asymmetric_entries(ORIGINAL_ASSURE_TABLE))
        assert "*" in leaks
        # Leakage also exists for modulo, power, division and xor.
        for leaky_op in ("%", "**", "/", "^"):
            assert leaky_op in leaks

    def test_symmetric_subset_not_reported_as_leaky(self):
        leaks = dict(asymmetric_entries(ORIGINAL_ASSURE_TABLE))
        assert "<<" not in leaks
        assert "==" not in leaks


class TestTableConstruction:
    def test_unknown_operator_rejected(self):
        with pytest.raises(PairingError):
            PairTable("bad", {"+": "noop"})

    def test_self_pairing_rejected(self):
        with pytest.raises(PairingError):
            PairTable("bad", {"+": "+"})

    def test_duplicate_membership_rejected(self):
        with pytest.raises(PairingError):
            make_symmetric([("+", "-"), ("+", "*")], name="bad")

    def test_missing_pair_lookup_raises(self):
        table = make_symmetric([("+", "-")], name="tiny")
        with pytest.raises(PairingError):
            table.dummy_of("*")
        with pytest.raises(PairingError):
            table.pair_of("*")

    def test_supported_operators(self):
        table = make_symmetric([("+", "-"), ("<<", ">>")], name="tiny")
        assert set(table.supported_operators()) == {"+", "-", "<<", ">>"}
        assert len(table.unordered_pairs()) == 2


def _scanned_pair_of(table, op):
    """``pair_of`` by scanning ``unordered_pairs`` (the precomputed map's reference)."""
    dummy = table.dummy_of(op)
    for first, second in table.unordered_pairs():
        if {first, second} == {op, dummy}:
            return (first, second)
    return (op, dummy)


@pytest.mark.parametrize("table", [SYMMETRIC_PAIR_TABLE, ORIGINAL_ASSURE_TABLE],
                         ids=lambda table: table.name)
def test_pair_of_matches_a_scan_of_unordered_pairs(table):
    for op in table.supported_operators():
        assert table.pair_of(op) == _scanned_pair_of(table, op)
    assert table.pair_of("^~") == table.pair_of("~^")
