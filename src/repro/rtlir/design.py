"""Design wrapper: a parsed RTL design plus its locking state.

:class:`Design` is the object the locking algorithms and attacks exchange.  It
bundles

* the Verilog AST (:class:`~repro.verilog.ast_nodes.Source`),
* the name of the top module under protection,
* the key input port and the per-bit key records (:class:`KeyBit`),

and offers parsing/serialisation round trips, structural copies, and
convenience accessors for operation sites.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.codegen import generate
from ..verilog.parser import parse
from ..verilog.preprocess import Preprocessor, preprocess
from ..verilog.transform import clone
from .sites import SiteCollection, collect_sites

#: Default name of the key input port added by the locking engine.
DEFAULT_KEY_PORT = "lock_key"


@dataclass
class KeyBit:
    """Record of a single key bit introduced by locking.

    Attributes:
        index: Bit position within the key port.
        kind: ``operation``, ``branch`` or ``constant``.
        correct_value: The key-bit value that restores original functionality.
        real_op: For operation locking, the operator of the real operation.
        dummy_op: For operation locking, the operator of the dummy operation.

    The lockers write only ``operation`` bits; the other two kinds are
    accepted because key files are outside input.
    """

    index: int
    kind: str
    correct_value: int
    real_op: Optional[str] = None
    dummy_op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("operation", "branch", "constant"):
            raise ValueError(f"invalid key bit kind {self.kind!r}")
        if self.correct_value not in (0, 1):
            raise ValueError("correct_value must be 0 or 1")


class Design:
    """A (possibly locked) RTL design under a single top module.

    Args:
        source: Parsed source tree.
        top_name: Name of the module under protection; defaults to the first
            module in the source.
        key_port: Name of the key input port; ``None`` for an unlocked design.
        key_bits: Existing key records (used when re-wrapping a locked design).
    """

    def __init__(self, source: ast.Source, top_name: Optional[str] = None,
                 key_port: Optional[str] = None,
                 key_bits: Optional[Sequence[KeyBit]] = None,
                 name: Optional[str] = None) -> None:
        if not source.modules:
            raise ValueError("design source contains no modules")
        self.source = source
        self.top_name = top_name or source.modules[0].name
        if source.find_module(self.top_name) is None:
            raise ValueError(f"top module {self.top_name!r} not found in source")
        self.key_port = key_port
        self.key_bits: List[KeyBit] = list(key_bits or [])
        self.name = name or self.top_name
        self._fingerprint: Optional[Tuple[tuple, str]] = None

    # ------------------------------------------------------------ construction

    @classmethod
    def from_verilog(cls, text: str, top_name: Optional[str] = None,
                     name: Optional[str] = None) -> "Design":
        """Preprocess and parse Verilog source text into an (unlocked) design.

        Raises:
            repro.verilog.PreprocessorError: for a malformed directive, an
                unresolvable ```include`` or an undefined macro.
        """
        return cls(parse(preprocess(text)), top_name=top_name, name=name)

    @classmethod
    def from_file(cls, path: Path, top_name: Optional[str] = None) -> "Design":
        """Read, preprocess and parse a Verilog file.

        ```include`` files are searched for in the file's directory.
        """
        path = Path(path)
        return cls(parse(Preprocessor().process_file(path)),
                   top_name=top_name, name=path.stem)

    # -------------------------------------------------------------- accessors

    @property
    def top(self) -> ast.Module:
        """The module under protection."""
        module = self.source.find_module(self.top_name)
        assert module is not None  # validated in __init__
        return module

    @property
    def is_locked(self) -> bool:
        """True once at least one key bit has been introduced."""
        return bool(self.key_bits)

    @property
    def key_width(self) -> int:
        """Number of key bits currently used."""
        return len(self.key_bits)

    @property
    def correct_key(self) -> List[int]:
        """The correct key as a list of bits indexed by key-bit position."""
        key = [0] * self.key_width
        for bit in self.key_bits:
            key[bit.index] = bit.correct_value
        return key

    def correct_key_string(self) -> str:
        """The correct key as a bit string, MSB (highest index) first."""
        return "".join(str(b) for b in reversed(self.correct_key))

    def key_names(self) -> Set[str]:
        """Names of key signals present in the design (empty when unlocked)."""
        return {self.key_port} if self.key_port else set()

    # --------------------------------------------------------------- analysis

    def sites(self, module: Optional[ast.Module] = None) -> SiteCollection:
        """Collect lockable operation sites of the top (or a given) module."""
        return collect_sites(module or self.top, self.key_names())

    def operation_census(self) -> Dict[str, int]:
        """Return ``{operator: count}`` over the top module's lockable sites."""
        return self.sites().count_by_operator()

    def num_operations(self) -> int:
        """Total number of lockable operation sites in the top module."""
        return len(self.sites())

    def fingerprint(self) -> str:
        """Content fingerprint of the simulated netlist (plan-cache key).

        The fingerprint covers everything combinational simulation depends
        on — the rendered source of all modules, the top-module name and the
        key port — but *not* the key-bit records: the correct key steers
        which values are bound, never how the netlist evaluates, so designs
        differing only in key metadata share one compiled plan.

        The value is memoized per instance behind a cheap mutation token
        (source object identity, key width, top-module item count).  The
        token alone is *not* a content guarantee — in-place AST surgery
        such as swapping an operator leaves it unchanged while the netlist
        differs — so
        :class:`~repro.locking.base.LockingSession` additionally calls
        :meth:`invalidate_fingerprint` on every mutation it performs.  Any
        other in-place AST surgery must do the same before the design is
        simulated again.
        """
        token = (id(self.source), self.key_port, self.key_width,
                 len(self.top.items))
        cached = self._fingerprint
        if cached is not None and cached[0] == token:
            return cached[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.top_name.encode())
        digest.update(b"\x00")
        digest.update((self.key_port or "").encode())
        digest.update(b"\x00")
        digest.update(self.to_verilog().encode())
        value = digest.hexdigest()
        self._fingerprint = (token, value)
        return value

    def invalidate_fingerprint(self) -> None:
        """Drop the memoized fingerprint after in-place AST mutation."""
        self._fingerprint = None

    # ------------------------------------------------------------- conversion

    def to_verilog(self) -> str:
        """Render the current AST back to Verilog source text."""
        return generate(self.source)

    def copy(self) -> "Design":
        """Return an independent copy (AST and key records).

        The source is copied structurally with
        :func:`~repro.verilog.transform.clone`, which keeps no memo: it is
        exact only while the AST is a tree, i.e. no node is reachable twice.
        The parser, the benchmark generators and every locker build trees;
        AST surgery that shares one node between two parents would leave
        the copy with two distinct nodes where the original has one.  Each
        key bit is copied, and the copy starts without a memoized
        fingerprint.
        """
        key_bits = [dataclasses.replace(bit) for bit in self.key_bits]
        return Design(clone(self.source), top_name=self.top_name,
                      key_port=self.key_port, key_bits=key_bits,
                      name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Design(name={self.name!r}, top={self.top_name!r}, "
                f"key_width={self.key_width})")
