"""A minimal Verilog preprocessor.

Real-world RTL (the open-source cores the ASSURE evaluation uses) relies on a
small set of compiler directives.  This module expands the common ones before
lexing so the strict lexer/parser only ever see plain Verilog:

* ```define NAME value`` / ```undef NAME`` — object-like macros (no arguments),
* ```ifdef`` / ```ifndef`` / ```else`` / ```endif`` — conditional compilation,
* ```include "file"`` — resolved against an include search path,
* every other directive (```timescale``, ```default_nettype``, ...) is dropped.

Macro expansion is textual and repeated until a fixed point (with a recursion
guard), matching how simple cores use ```define`` for named constants.  A use
of a macro that is not defined raises :class:`PreprocessorError`.  Comments
are dropped first, so a directive or a macro use inside one is ignored.

Every line the preprocessor drops (a directive, or a line of an inactive
conditional branch) becomes an empty line, and a comment leaves its line
breaks, so line numbers in parse errors still match the file; only an
```include`` adds lines.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .errors import VerilogError

_MACRO_USE = re.compile(r"`([A-Za-z_][A-Za-z0-9_$]*)")
#: A string literal (kept as it is) or a comment (dropped).
_STRING_OR_COMMENT = re.compile(
    r'"(?:\\.|[^"\\\n])*"|//[^\n]*|/\*.*?\*/', re.S)
_DIRECTIVE = re.compile(r"`[A-Za-z_0-9$]*")
_MAX_EXPANSION_ROUNDS = 32


class PreprocessorError(VerilogError):
    """Raised for malformed directives, unresolvable includes or undefined
    macros."""


class Preprocessor:
    """Expand a limited set of compiler directives.

    Args:
        include_dirs: Directories searched (in order) for ```include`` files.
        defines: Pre-defined macros, e.g. ``{"SYNTHESIS": ""}``.
    """

    def __init__(self, include_dirs: Optional[Sequence[Path]] = None,
                 defines: Optional[Dict[str, str]] = None) -> None:
        self._include_dirs = [Path(d) for d in (include_dirs or [])]
        self._defines: Dict[str, str] = dict(defines or {})

    @property
    def defines(self) -> Dict[str, str]:
        """The currently defined macros (name -> replacement text)."""
        return dict(self._defines)

    def process(self, text: str, source_dir: Optional[Path] = None) -> str:
        """Return ``text`` with directives handled and macros expanded."""
        lines = self._process_lines(_strip_comments(text).splitlines(),
                                    source_dir)
        return "\n".join(lines) + ("\n" if text.endswith("\n") or lines else "")

    def process_file(self, path: Path) -> str:
        """Read ``path`` and preprocess its contents."""
        path = Path(path)
        return self.process(path.read_text(), source_dir=path.parent)

    # ------------------------------------------------------------- internals

    def _process_lines(self, lines: Sequence[str],
                       source_dir: Optional[Path]) -> List[str]:
        output: List[str] = []
        # Stack of booleans: is the current conditional branch active?
        condition_stack: List[bool] = []

        for raw_line in lines:
            stripped = raw_line.strip()
            active = all(condition_stack)
            if not stripped.startswith("`"):
                output.append(self._expand_macros(raw_line) if active else "")
                continue
            # A directive line: what it leaves in the output is one empty
            # line, or the lines of an included file.
            directive = _DIRECTIVE.match(stripped).group(0)
            if directive in ("`ifdef", "`ifndef"):
                parts = stripped.split()
                if len(parts) < 2:
                    raise PreprocessorError(f"malformed directive: {stripped!r}")
                defined = parts[1] in self._defines
                condition_stack.append(defined if directive == "`ifdef"
                                       else not defined)
            elif directive == "`else":
                if not condition_stack:
                    raise PreprocessorError("`else without matching `ifdef")
                condition_stack[-1] = not condition_stack[-1]
            elif directive == "`endif":
                if not condition_stack:
                    raise PreprocessorError("`endif without matching `ifdef")
                condition_stack.pop()
            elif not active:
                pass
            elif directive == "`define":
                self._handle_define(stripped)
            elif directive == "`undef":
                parts = stripped.split()
                if len(parts) >= 2:
                    self._defines.pop(parts[1], None)
            elif directive == "`include":
                output.extend(self._handle_include(stripped, source_dir))
                continue
            elif directive[1:] in self._defines:
                # A line that opens with a macro use is text, not a directive.
                output.append(self._expand_macros(raw_line))
                continue
            # Any other directive (`timescale, `default_nettype, ...) is
            # dropped as well.
            output.append("")

        if condition_stack:
            raise PreprocessorError("unterminated `ifdef block")
        return output

    def _handle_define(self, line: str) -> None:
        body = line[len("`define"):].strip()
        if not body:
            raise PreprocessorError("`define without a macro name")
        parts = body.split(None, 1)
        name = parts[0]
        if "(" in name:
            raise PreprocessorError(
                f"function-like macro {name!r} is not supported by this subset")
        self._defines[name] = parts[1].rstrip() if len(parts) > 1 else ""

    def _handle_include(self, line: str, source_dir: Optional[Path]) -> List[str]:
        match = re.search(r'`include\s+"([^"]+)"', line)
        if match is None:
            raise PreprocessorError(f"malformed `include directive: {line!r}")
        filename = match.group(1)
        search_dirs = list(self._include_dirs)
        if source_dir is not None:
            search_dirs.insert(0, Path(source_dir))
        for directory in search_dirs:
            candidate = directory / filename
            if candidate.exists():
                nested = _strip_comments(candidate.read_text()).splitlines()
                return self._process_lines(nested, candidate.parent)
        raise PreprocessorError(f"cannot resolve `include \"{filename}\"")

    def _expand_macros(self, line: str) -> str:
        if "`" not in line:
            return line
        for _ in range(_MAX_EXPANSION_ROUNDS):
            replaced = _MACRO_USE.sub(self._substitute, line)
            if replaced == line:
                return replaced
            line = replaced
        raise PreprocessorError("macro expansion did not converge "
                                "(possible recursive `define)")

    def _substitute(self, match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in self._defines:
            raise PreprocessorError(f"undefined macro `{name}")
        return self._defines[name]


def _strip_comments(text: str) -> str:
    """Drop the comments of ``text``, keeping their line breaks."""
    return _STRING_OR_COMMENT.sub(
        lambda match: (match.group(0) if match.group(0).startswith('"')
                       else "\n" * match.group(0).count("\n")), text)


def preprocess(text: str, include_dirs: Optional[Sequence[Path]] = None,
               defines: Optional[Dict[str, str]] = None) -> str:
    """Functional wrapper around :class:`Preprocessor`."""
    return Preprocessor(include_dirs=include_dirs, defines=defines).process(text)
