"""RTL intermediate representation: designs, operation sites, dataflow graphs.

This package sits between the raw Verilog AST (:mod:`repro.verilog`) and the
locking/attack logic.  It provides:

* :class:`~repro.rtlir.design.Design` — a design plus its locking state,
* operation-site collection and operator taxonomy,
* a dataflow :class:`~repro.rtlir.opgraph.OperationGraph`,
* design-level analyses (census, pair imbalance, statistics).
"""

from .analysis import DesignReport, PairImbalance, analyze_design, class_census, pair_imbalances
from .design import DEFAULT_KEY_PORT, Design, KeyBit
from .opgraph import OperationGraph, OperationNode, SignalNode, build_operation_graph
from .operations import (
    LOCKABLE_OPERATORS,
    NO_OPERATION,
    OPERATOR_CLASSES,
    OPERATOR_DECODING,
    OPERATOR_ENCODING,
    decode_operator,
    encode_operator,
    is_lockable,
    normalize_operator,
    operator_class,
)
from .sites import OperationSite, SiteCollection, collect_sites, operation_census

__all__ = [
    "DesignReport",
    "PairImbalance",
    "analyze_design",
    "class_census",
    "pair_imbalances",
    "DEFAULT_KEY_PORT",
    "Design",
    "KeyBit",
    "OperationGraph",
    "OperationNode",
    "SignalNode",
    "build_operation_graph",
    "LOCKABLE_OPERATORS",
    "NO_OPERATION",
    "OPERATOR_CLASSES",
    "OPERATOR_DECODING",
    "OPERATOR_ENCODING",
    "decode_operator",
    "encode_operator",
    "is_lockable",
    "normalize_operator",
    "operator_class",
    "OperationSite",
    "SiteCollection",
    "collect_sites",
    "operation_census",
]
