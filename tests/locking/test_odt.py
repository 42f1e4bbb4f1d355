"""Unit tests for the operation distribution table."""

import numpy as np

from repro.locking.odt import OperationDistributionTable, odt_from_design
from repro.locking.pairs import ORIGINAL_ASSURE_TABLE, make_symmetric


def make_odt(census):
    return OperationDistributionTable(census)


class TestValues:
    def test_paper_example(self):
        # "a design with 7 '+' and 5 '-' has ODT[+] = +2 and ODT[-] = -2"
        odt = make_odt({"+": 7, "-": 5})
        assert odt["+"] == 2
        assert odt["-"] == -2

    def test_value_antisymmetry(self):
        odt = make_odt({"*": 3, "/": 9, "<<": 2})
        assert odt["*"] == -odt["/"]
        assert odt["<<"] == -odt[">>"]

    def test_missing_operators_default_to_zero(self):
        odt = make_odt({})
        assert odt["%"] == 0
        assert odt.count("%") == 0

    def test_unpaired_operators_tracked_separately(self):
        odt = make_odt({"&&": 4, "+": 1})
        assert odt.count("&&") == 0  # not part of any pair
        assert "unpaired" in odt.to_text()

    def test_from_design(self, mixer_design):
        odt = odt_from_design(mixer_design)
        assert odt["+"] == 2   # 3 '+' vs 1 '-'
        assert odt["*"] == 1
        assert odt["^"] == 2


class TestMutation:
    def test_add_operation(self):
        odt = make_odt({"+": 3, "-": 1})
        odt.add_operation("-")
        assert odt["+"] == 1
        assert odt.count("-") == 2

    def test_affected_tracking(self):
        odt = make_odt({"+": 3, "-": 1, "*": 2})
        assert odt.affected_pairs() == []
        odt.add_operation("-")
        assert ("+", "-") in odt.affected_pairs() or ("-", "+") in odt.affected_pairs()
        assert odt.is_affected("+")
        assert not odt.is_affected("*")

    def test_add_marks_only_its_own_pair(self):
        odt = make_odt({"+": 1, "*": 1})
        odt.add_operation("/")
        assert odt.affected_pairs() in ([("*", "/")], [("/", "*")])
        assert not odt.is_affected("+")

    def test_add_unpaired_operation_marks_nothing(self):
        odt = make_odt({"+": 1, "&&": 1})
        odt.add_operation("&&")
        assert odt.affected_pairs() == []
        assert "&&:2" in odt.to_text()


class TestWithOperations:
    def test_copy_counts_the_added_operations(self):
        odt = make_odt({"+": 3, "-": 1, "*": 2, "&&": 1})
        trial = odt.with_operations(["-", "-", "/", "&&"])
        assert trial["+"] == 0
        assert trial["*"] == 1
        assert trial.count("&&") == 0
        assert "&&:2" in trial.to_text()
        assert trial.is_affected("+") and trial.is_affected("*")

    def test_table_is_left_unchanged(self):
        odt = make_odt({"+": 3, "-": 1, "*": 2, "&&": 1})
        odt.mark_affected("<<")
        text = odt.to_text()
        vector = list(odt.vector())
        trial = odt.with_operations(["-", "/", "&&"])
        trial.mark_affected("^")
        assert odt.to_text() == text
        assert list(odt.vector()) == vector
        assert odt.affected_pairs() == [odt.pair_table.pair_of("<<")]

    def test_copy_matches_adding_in_place(self):
        odt = make_odt({"+": 5, "*": 1, "<<": 2})
        added = ["-", "-", "*", ">>"]
        trial = odt.with_operations(added)
        for op in added:
            odt.add_operation(op)
        assert trial.to_text() == odt.to_text()
        assert list(trial.vector()) == list(odt.vector())


class TestBalanceQueries:
    def test_is_balanced(self):
        odt = make_odt({"+": 2, "-": 2, "*": 1})
        assert odt.is_balanced("+")
        assert not odt.is_balanced("*")

    def test_adding_the_partner_balances_an_affected_pair(self):
        odt = make_odt({"+": 2, "-": 2, "*": 1})
        odt.mark_affected("*")
        assert odt.is_affected("/") and not odt.is_affected("+")
        assert not odt.is_balanced("*")
        odt.add_operation("/")
        assert odt.is_balanced("*") and odt.is_balanced("/")


class TestVectors:
    def test_vector_absolute_values(self):
        odt = make_odt({"+": 7, "-": 5, "<<": 1, ">>": 4})
        order = [("+", "-"), ("<<", ">>")]
        assert np.allclose(odt.vector(order), [2.0, 3.0])

    def test_optimal_vector_global(self):
        odt = make_odt({"+": 7, "-": 5})
        optimal = odt.optimal_vector(restricted=False)
        assert np.allclose(optimal, np.zeros(len(odt.pairs())))

    def test_optimal_vector_restricted_uses_nan_markers(self):
        odt = make_odt({"+": 7, "-": 5, "*": 2})
        odt.mark_affected("+")
        optimal = odt.optimal_vector(restricted=True)
        pair_order = odt.pairs()
        for position, (first, _second) in enumerate(pair_order):
            if first in ("+", "-"):
                assert optimal[position] == 0.0
            else:
                assert np.isnan(optimal[position])


class TestAlternativeTables:
    def test_custom_table(self):
        table = make_symmetric([("+", "-")], name="tiny")
        odt = OperationDistributionTable({"+": 4, "-": 1, "*": 7}, table)
        assert odt["+"] == 3
        assert len(odt.pairs()) == 1

    def test_asymmetric_table_still_supported(self):
        odt = OperationDistributionTable({"*": 2, "+": 5, "-": 1},
                                         ORIGINAL_ASSURE_TABLE)
        # With the original table '*' pairs with '+'.
        assert odt["*"] == 2 - 5
