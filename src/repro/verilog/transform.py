"""Structural AST helpers used by the locking engine.

These helpers are deliberately free of any locking policy: they only clone
subtrees and pick signal names that do not collide with a module's
declarations.  The policy (which operation to lock, which key bit controls
it) lives in :mod:`repro.locking`.
"""

from __future__ import annotations

import copy
from typing import List

from . import ast_nodes as ast

#: Types of attribute values that are immutable and can be shared by a clone.
_ATOMS = frozenset((str, int, float, bool, type(None)))


def clone(node: ast.Node) -> ast.Node:
    """Return a deep copy of an AST subtree.

    The copy is structural: a node's attributes are copied in one call,
    then every child node and list is replaced by its copy, recursively,
    so the clone shares no node and no mutable attribute with ``node``.
    Nodes hold only strings, numbers, ``None``, child nodes and lists of
    those, which makes this several times cheaper than
    :func:`copy.deepcopy` and its memo; any other attribute value is
    still deep-copied.
    """
    copied = object.__new__(type(node))
    attributes = copied.__dict__ = node.__dict__.copy()
    for name, value in node.__dict__.items():
        if type(value) not in _ATOMS:
            attributes[name] = _clone_value(value)
    return copied


def _clone_value(value: object) -> object:
    if isinstance(value, ast.Node):
        return clone(value)
    if isinstance(value, list):
        return [item if type(item) in _ATOMS else _clone_value(item)
                for item in value]
    return copy.deepcopy(value)


def declared_names(module: ast.Module) -> List[str]:
    """Return every identifier declared in the module (ports, nets, params)."""
    names: List[str] = [port.name for port in module.ports]
    for item in module.items:
        if isinstance(item, ast.NetDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.PortDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.ParamDeclaration):
            names.append(item.name)
        elif isinstance(item, ast.GenvarDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.FunctionDeclaration):
            names.append(item.name)
    return names


def unique_name(module: ast.Module, stem: str) -> str:
    """Return a signal name derived from ``stem`` not yet used in ``module``."""
    existing = set(declared_names(module))
    if stem not in existing:
        return stem
    counter = 0
    while f"{stem}_{counter}" in existing:
        counter += 1
    return f"{stem}_{counter}"
