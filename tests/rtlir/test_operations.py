"""Unit tests for the operator taxonomy."""

import pytest

from repro.rtlir.operations import (
    LOCKABLE_OPERATORS,
    NO_OPERATION,
    OPERATOR_CLASSES,
    OPERATOR_ENCODING,
    decode_operator,
    encode_operator,
    is_lockable,
    normalize_operator,
    operator_class,
)


class TestLockability:
    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%", "**", "<<", ">>",
                                    "&", "|", "^", "<", ">", "==", "!="])
    def test_dataflow_operators_are_lockable(self, op):
        assert is_lockable(op)

    @pytest.mark.parametrize("op", ["&&", "||", "===", "!=="])
    def test_control_glue_is_not_lockable(self, op):
        assert not is_lockable(op)

    def test_every_lockable_operator_has_one_class(self):
        # Every lockable operator has exactly one class and a stable code.
        assert set().union(*OPERATOR_CLASSES.values()) == LOCKABLE_OPERATORS
        assert sum(len(members) for members in OPERATOR_CLASSES.values()) \
            == len(LOCKABLE_OPERATORS)
        assert LOCKABLE_OPERATORS <= set(OPERATOR_ENCODING)


class TestEncoding:
    def test_encoding_is_bijective(self):
        codes = list(OPERATOR_ENCODING.values())
        assert len(codes) == len(set(codes))
        for op, code in OPERATOR_ENCODING.items():
            assert decode_operator(code) == op

    def test_zero_is_reserved(self):
        assert NO_OPERATION == 0
        assert 0 not in OPERATOR_ENCODING.values()
        with pytest.raises(KeyError):
            decode_operator(0)

    def test_encode_unknown_raises(self):
        with pytest.raises(KeyError):
            encode_operator("noop")

    def test_encoding_is_stable(self):
        # The locality feature space relies on these exact values.
        assert encode_operator("+") == 1
        assert encode_operator("-") == 2
        assert encode_operator("*") == 3
        assert encode_operator("/") == 4


class TestClasses:
    @pytest.mark.parametrize("op,cls", [
        ("+", "arithmetic"), ("%", "arithmetic"),
        ("<<", "shift"), (">>>", "shift"),
        ("&", "bitwise"), ("~^", "bitwise"),
        ("<", "relational"), ("!=", "relational"),
    ])
    def test_operator_classes(self, op, cls):
        assert operator_class(op) == cls

    def test_unknown_class_raises(self):
        with pytest.raises(KeyError):
            operator_class("&&")


class TestNormalisation:
    def test_xnor_aliases_collapse(self):
        assert normalize_operator("^~") == "~^"
        assert normalize_operator("~^") == "~^"

    def test_other_operators_unchanged(self):
        assert normalize_operator("+") == "+"
