"""Exception types raised by the Verilog frontend.

The frontend is intentionally strict: anything outside the supported
synthesizable subset raises an explicit error instead of silently producing a
wrong AST, because the locking transformations downstream rely on the AST
being a faithful representation of the source.
"""

from __future__ import annotations


class VerilogError(Exception):
    """Base class for every error produced by the Verilog frontend."""


class LexerError(VerilogError):
    """Raised when the character stream cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(VerilogError):
    """Raised when the token stream does not form a valid (supported) design."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CodegenError(VerilogError):
    """Raised when an AST node cannot be rendered back to Verilog source."""
