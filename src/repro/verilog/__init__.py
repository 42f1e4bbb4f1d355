"""Verilog frontend: lexer, parser, AST, code generator and transforms.

This package replaces the Pyverilog dependency of the original paper with a
self-contained frontend for the synthesizable Verilog subset that RTL locking
operates on.

Typical usage::

    from repro.verilog import parse, generate

    source = parse(open("design.v").read())
    top = source.top
    print(generate(top))
"""

from . import ast_nodes as ast
from .codegen import CodeGenerator, generate
from .errors import CodegenError, LexerError, ParseError, VerilogError
from .lexer import Lexer, tokenize
from .parser import Parser, parse, parse_expression, parse_module
from .preprocess import Preprocessor, PreprocessorError, preprocess

__all__ = [
    "ast",
    "CodeGenerator",
    "generate",
    "CodegenError",
    "LexerError",
    "ParseError",
    "VerilogError",
    "Lexer",
    "tokenize",
    "Parser",
    "parse",
    "parse_expression",
    "parse_module",
    "Preprocessor",
    "PreprocessorError",
    "preprocess",
]
