"""Abstract syntax for the analyzed language, plus the pretty-printer.

Every node carries a source span that is excluded from equality, so the
parse/print round-trip can be checked with plain ==. The binary-operator
table and the name rule are stated here once; the parser and the printer
both read them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .basetypes import BaseType, FunctionType, PermUniverse, format_type

# The binary operators by precedence level, loosest first, each level with
# whether it chains: a chained level's operators associate to the left, and
# an unchained level takes one operator per expression (``a < b < c`` does
# not parse).
BINARY_LEVELS: tuple[tuple[frozenset[str], bool], ...] = (
    (frozenset({"==", "<"}), False),
    (frozenset({"+", "-"}), True),
    (frozenset({"*"}), True),
)
BINARY_LEVEL = {op: i for i, (ops, _) in enumerate(BINARY_LEVELS) for op in ops}

# A name (of a level, permission, app, function, variable or constant) is
# an ASCII identifier that is not a keyword.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
KEYWORDS = frozenset({
    "lattice", "levels", "order", "permissions", "app", "perms", "const",
    "fun", "infer", "init", "in", "return", "if", "then", "else", "while",
    "do", "test", "letvar", "call",
})
_NAME_RE = re.compile(NAME_PATTERN)


def is_name(text: str) -> bool:
    return _NAME_RE.fullmatch(text) is not None and text not in KEYWORDS


class Span:
    """A 1-based source position; ``Span()`` is "no position". A value:
    equal and hashed by ``(line, col)``, and never assigned to."""

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col

    def __eq__(self, other):
        if other.__class__ is not Span:
            return NotImplemented
        return self.line == other.line and self.col == other.col

    def __hash__(self):
        return hash((self.line, self.col))

    def __repr__(self):
        return f"Span(line={self.line}, col={self.col})"

    def __str__(self):
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(default=NO_SPAN, compare=False)


Expr = Union[IntLit, Var, BinOp]


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class CallAssign:
    name: str
    app: str
    fun: str
    args: tuple[Expr, ...]
    span: Span = field(default=NO_SPAN, compare=False)

    @property
    def target(self) -> str:
        return f"{self.app}.{self.fun}"


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Cmd"
    els: "Cmd"
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Cmd"
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class Block:
    """``c1; ...; cn`` run in order; the parser builds only flat blocks of
    two or more members (see :func:`block`)."""

    cmds: tuple["Cmd", ...]
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class LetVar:
    name: str
    init: Expr
    body: "Cmd"
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class Test:
    perm: str
    then: "Cmd"
    els: "Cmd"
    span: Span = field(default=NO_SPAN, compare=False)


Cmd = Union[Assign, CallAssign, If, While, Block, LetVar, Test]


def block(cmds: list[Cmd]) -> Cmd:
    """Sequence ``cmds`` into one flat block, splicing in nested blocks.

    A single command stands for itself. The block's span is its last
    member's.
    """
    flat: list[Cmd] = []
    for c in cmds:
        if isinstance(c, Block):
            flat.extend(c.cmds)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Block(tuple(flat), flat[-1].span)


def _children(c: Cmd) -> tuple[Cmd, ...]:
    if isinstance(c, Block):
        return c.cmds
    if isinstance(c, (If, Test)):
        return (c.then, c.els)
    if isinstance(c, (While, LetVar)):
        return (c.body,)
    return ()


def subcommands(c: Cmd | None) -> Iterator[Cmd]:
    """``c`` and every command nested in it, in source order.

    Iterative, so nesting depth costs no Python stack.
    """
    stack = [] if c is None else [c]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


@dataclass(frozen=True)
class FunDecl:
    app: str
    name: str
    params: tuple[str, ...]
    ret_var: str
    body: Cmd | None  # None: empty body, the function returns the init value
    annotation: FunctionType | None = None
    span: Span = field(default=NO_SPAN, compare=False)

    @property
    def qualified(self) -> str:
        return f"{self.app}.{self.name}"


@dataclass(frozen=True)
class ConstDecl:
    name: str
    value: int
    type: BaseType
    app: str = ""  # declaring app, for printing; constants are readable everywhere
    span: Span = field(default=NO_SPAN, compare=False)


def format_expr(e: Expr, parent_level: int = -1) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    level = BINARY_LEVEL[e.op]
    # parenthesize exactly so the printed form re-parses to the identical
    # tree: a left operand of the same level needs none where it chains
    chained = BINARY_LEVELS[level][1]
    left = format_expr(e.lhs, level - 1 if chained else level)
    right = format_expr(e.rhs, level)
    s = f"{left} {e.op} {right}"
    if level <= parent_level:
        return f"({s})"
    return s


def _braced(c: Cmd, indent: int) -> str:
    """A branch of a compound command, on its own lines within braces."""
    return f" {{\n{format_cmd(c, indent + 1)}\n{'  ' * indent}}}"


def format_cmd(c: Cmd, indent: int) -> str:
    pad = "  " * indent
    if isinstance(c, Assign):
        return f"{pad}{c.name} := {format_expr(c.expr)}"
    if isinstance(c, CallAssign):
        args = ", ".join(format_expr(a) for a in c.args)
        return f"{pad}{c.name} := call {c.app}.{c.fun}({args})"
    if isinstance(c, Block):
        return ";\n".join(format_cmd(m, indent) for m in c.cmds)
    if isinstance(c, If):
        return (
            f"{pad}if {format_expr(c.cond)} then{_braced(c.then, indent)}"
            f" else{_braced(c.els, indent)}"
        )
    if isinstance(c, While):
        return f"{pad}while {format_expr(c.cond)} do{_braced(c.body, indent)}"
    if isinstance(c, Test):
        return (
            f"{pad}test({c.perm}){_braced(c.then, indent)}"
            f" else{_braced(c.els, indent)}"
        )
    if isinstance(c, LetVar):
        return (
            f"{pad}letvar {c.name} = {format_expr(c.init)}"
            f" in{_braced(c.body, indent)}"
        )
    raise TypeError(f"not a command: {c!r}")


def format_fun(decl: FunDecl, universe: PermUniverse) -> str:
    """A function declaration, indented one level inside its ``app``."""
    if decl.annotation is not None:
        params = ", ".join(
            f"{p} : {format_type(t, universe)}"
            for p, t in zip(decl.params, decl.annotation.params)
        )
        ret = f" : {format_type(decl.annotation.ret, universe)}"
    else:
        params = ", ".join(decl.params)
        ret = ""
    lines = [f"  fun {decl.name}({params}){ret} {{"]
    lines.append(f"    init {decl.ret_var} = 0 in {{")
    if decl.body is not None:
        lines.append(format_cmd(decl.body, 3) + ";")
    lines.append(f"      return {decl.ret_var}")
    lines.append("    }")
    lines.append("  }")
    return "\n".join(lines)
