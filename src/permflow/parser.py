"""Tokenizer and recursive-descent parser for system files.

File layout: one ``lattice`` block, one ``permissions`` block, then app
blocks holding constants and functions. Statement separator is ``;``,
blocks use braces, and the command forms are::

    x := e                      x := call B.f(e1, e2)
    if e then c1 else c2        while e do c
    test(p) c1 else c2          letvar x = e in c

Expressions follow ``syntax.BINARY_LEVELS``, the operator table that the
printer reads too, and names follow ``syntax.NAME_PATTERN`` and
``syntax.KEYWORDS``. A base type annotation is either a bare level name (a
constant type) or a literal like ``{ {p,q}: H, {p}: l1, _: L }`` where
``_`` supplies the level for every unlisted permission set.

Nesting is bounded by ``MAX_DEPTH`` so that every recursive pass over the
tree stays far below Python's recursion limit; a deeper input is a
ParseError.
"""

from __future__ import annotations

import re
import string

from .basetypes import BaseType, FunctionType, PermTypeError, PermUniverse, embed
from .lattice import Lattice, load_lattice
from .syntax import (
    BINARY_LEVELS,
    KEYWORDS,
    NAME_PATTERN,
    Assign,
    BinOp,
    CallAssign,
    Cmd,
    ConstDecl,
    Expr,
    FunDecl,
    If,
    IntLit,
    LetVar,
    Span,
    Test,
    Var,
    While,
    block,
)
from .system import System

# Deepest nesting the parser accepts. Each command, each brace block that
# is not the branch of a compound command, each parenthesis pair and each
# binary operator counts one level; a command's own level covers the
# expressions directly in it.
MAX_DEPTH = 100

# One match per token: the layout and comments before it, then the token
# itself, which is empty at the end of the input and a single character
# where no token starts. Identifiers, the most common tokens, come first.
_TOKEN_RE = re.compile(
    r"""
    ([ \t\r\n]*(?:(?://|\#)[^\n]*[ \t\r\n]*)*)
    (%s|[{}(),;<.\+\-\*]|:=?|==?|[0-9]+|\Z|.)
    """ % NAME_PATTERN,
    re.VERBOSE | re.DOTALL,
)

# The words that start a command other than an assignment.
_COMPOUND_STARTS = frozenset({"{", "if", "while", "test", "letvar"})

# A token's kind by its first character; the end of input and a character
# that starts no token have none.
_KIND = {
    **dict.fromkeys(string.digits, "int"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    **dict.fromkeys("{}(),;:=<.+-*", "op"),
}


class ParseError(ValueError):
    def __init__(self, message: str, span: Span):
        self.span = span
        super().__init__(f"{span}: {message}")


def _int_literal(tok) -> int:
    """The value of an ``int`` token; a literal past Python's digit limit
    for ``int`` is a ParseError."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         tok.span) from None


class DuplicateName(ParseError):
    pass


class UnknownReference(ParseError):
    pass


class Token:
    """A lexeme with its kind and 1-based position. Its ``span`` is built
    when read, since most tokens never give one to a node or an error."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str) -> list[Token]:
    tokens = []
    append = tokens.append
    kind_of = _KIND.get
    line, col = 1, 1
    for layout, lexeme in _TOKEN_RE.findall(text):
        if layout:
            if "\n" in layout:
                line += layout.count("\n")
                col = len(layout) - layout.rfind("\n")
            else:
                col += len(layout)
        kind = kind_of(lexeme[:1])
        if kind is None:
            if lexeme:
                raise ParseError(f"unexpected character {lexeme!r}", Span(line, col))
            append(Token("eof", "", line, col))
            break
        append(Token(kind, lexeme, line, col))
        col += len(lexeme)
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0
        self.lattice: Lattice | None = None
        self.universe: PermUniverse | None = None

    # token plumbing. Only ``eof`` has empty text, so comparing texts
    # never takes the end of input for a word or an operator.

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.i].text == text

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.i]
        if tok.text == text:
            self.i += 1
            return tok
        return None

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.i]
        if tok.text == text:
            self.i += 1
            return tok
        got = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {text!r}, got {got!r}", tok.span)

    def descend(self, tok: Token) -> None:
        """Enter one nesting level; the caller restores ``depth`` on exit."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", tok.span)

    def ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise ParseError(f"expected {what}, got {tok.text!r}", tok.span)
        return self.next()

    def comma_list(self, item) -> list:
        """One or more ``item()`` results separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def distinct(self, names: list[Token], what: str) -> list[str]:
        """The texts of ``names``; a repeated one is a DuplicateName."""
        seen: set[str] = set()
        for t in names:
            if t.text in seen:
                raise DuplicateName(f"duplicate {what} {t.text!r}", t.span)
            seen.add(t.text)
        return [t.text for t in names]

    def perm_set(self) -> int:
        """A braced set of declared permissions, ``{p, q}``, as a bitmask."""
        self.expect("{")
        mask = 0
        if not self.at("}"):
            for t in self.comma_list(self.ident):
                if t.text not in self.universe.names:
                    raise UnknownReference(f"unknown permission {t.text!r}", t.span)
                bit = 1 << self.universe.index(t.text)
                if mask & bit:
                    raise DuplicateName(f"permission {t.text!r} listed twice", t.span)
                mask |= bit
        self.expect("}")
        return mask

    # top level

    def parse_system(self) -> System:
        if self.peek().kind == "eof":
            raise ParseError("empty input", self.peek().span)
        self._parse_lattice()
        self._parse_permissions()
        theta: dict[str, int] = {}
        fd: dict[str, FunDecl] = {}
        constants: dict[str, ConstDecl] = {}
        while not self.peek().kind == "eof":
            self._parse_app(theta, fd, constants)
        return System(self.lattice, self.universe, theta, fd, constants)

    def _parse_lattice(self) -> None:
        kw = self.expect("lattice")
        self.expect("{")
        self.expect("levels")
        names = self.comma_list(self.ident)
        self.expect(";")
        covers: list[tuple[str, str]] = []
        if self.accept("order"):
            covers = self.comma_list(self._parse_cover)
            self.expect(";")
        self.expect("}")
        names = self.distinct(names, "level")
        try:
            self.lattice = load_lattice(names, covers)
        except ValueError as e:
            raise ParseError(str(e), kw.span) from e

    def _parse_cover(self) -> tuple[str, str]:
        lo = self.ident("level name")
        self.expect("<")
        hi = self.ident("level name")
        return lo.text, hi.text

    def _parse_permissions(self) -> None:
        kw = self.expect("permissions")
        self.expect("{")
        names: list[Token] = []
        if not self.at("}"):
            names = self.comma_list(self.ident)
        self.expect("}")
        try:
            self.universe = PermUniverse(tuple(self.distinct(names, "permission")))
        except PermTypeError as e:
            raise ParseError(str(e), kw.span) from e

    def _parse_app(self, theta, fd, constants) -> None:
        self.expect("app")
        app = self.ident("app name")
        if app.text in theta:
            raise DuplicateName(f"duplicate app {app.text!r}", app.span)
        self.expect("perms")
        theta[app.text] = self.perm_set()
        self.expect("{")
        while not self.accept("}"):
            if self.at("const"):
                decl = self._parse_const(app.text)
                if decl.name in constants:
                    raise DuplicateName(f"duplicate constant {decl.name!r}", decl.span)
                constants[decl.name] = decl
            elif self.at("fun"):
                decl = self._parse_fun(app.text)
                if decl.qualified in fd:
                    raise DuplicateName(f"duplicate function {decl.qualified}", decl.span)
                fd[decl.qualified] = decl
            else:
                tok = self.peek()
                raise ParseError(f"expected 'const' or 'fun', got {tok.text!r}", tok.span)

    def _parse_const(self, app: str) -> ConstDecl:
        kw = self.expect("const")
        name = self.ident("constant name")
        self.expect(":")
        ctype = self._parse_basetype()
        self.expect("=")
        value = self._parse_int_value()
        self.expect(";")
        return ConstDecl(name.text, value, ctype, app, kw.span)

    def _parse_int_value(self) -> int:
        neg = self.accept("-") is not None
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(f"expected integer, got {tok.text!r}", tok.span)
        self.next()
        value = _int_literal(tok)
        return -value if neg else value

    def _parse_fun(self, app: str) -> FunDecl:
        kw = self.expect("fun")
        name = self.ident("function name")
        self.expect("(")
        params: list[str] = []
        # each parameter's type, None where it has none
        param_types: list[BaseType | None] = []

        def param() -> None:
            p = self.ident("parameter name")
            if p.text in params:
                raise DuplicateName(f"duplicate parameter {p.text!r}", p.span)
            params.append(p.text)
            annotated = self.accept(":") is not None
            if param_types and annotated != (param_types[0] is not None):
                raise ParseError("either annotate every parameter or none", p.span)
            param_types.append(self._parse_basetype() if annotated else None)

        if not self.at(")"):
            self.comma_list(param)
        self.expect(")")
        ret_type = None
        if self.accept(":"):
            ret_type = self._parse_basetype()
        if self.accept("infer") and ret_type is not None:
            raise ParseError("'infer' contradicts the type annotation", kw.span)
        annotated = bool(param_types) and param_types[0] is not None
        if annotated and ret_type is None:
            raise ParseError(
                "annotated parameters require a return annotation", kw.span
            )
        if ret_type is not None and param_types and not annotated:
            raise ParseError(
                "a return annotation requires annotated parameters", kw.span
            )
        annotation = None
        if ret_type is not None:
            annotation = FunctionType(tuple(param_types), ret_type)

        self.expect("{")
        self.expect("init")
        ret_var = self.ident("return variable")
        if ret_var.text in params:
            raise DuplicateName(f"return variable {ret_var.text!r} shadows a parameter", ret_var.span)
        self.expect("=")
        zero = self.peek()
        if zero.kind != "int" or _int_literal(zero) != 0:
            raise ParseError("the return variable must be initialized to 0", zero.span)
        self.next()
        self.expect("in")
        self.expect("{")
        body = self._parse_body_cmds(ret_var.text)
        self.expect("}")
        self.expect("}")
        return FunDecl(
            app, name.text, tuple(params), ret_var.text, body, annotation, kw.span
        )

    def _parse_body_cmds(self, ret_var: str) -> Cmd | None:
        cmds: list[Cmd] = []
        while not self.at("return"):
            cmds.append(self._parse_cmd())
            if not self.accept(";"):
                break
        ret = self.expect("return")
        got = self.ident("return variable")
        if got.text != ret_var:
            raise ParseError(
                f"function returns {got.text!r} but initializes {ret_var!r}", got.span
            )
        self.accept(";")
        return block(cmds) if cmds else None

    def _parse_cmd(self) -> Cmd:
        tok = self.peek()
        self.descend(tok)
        c = self._parse_cmd_form(tok)
        self.depth -= 1
        return c

    def _parse_cmd_form(self, tok: Token) -> Cmd:
        word = tok.text
        if word not in _COMPOUND_STARTS:
            return self._parse_assign(tok)
        self.i += 1
        if word == "{":
            return self._parse_cmd_seq()
        if word == "if":
            cond = self._parse_expr()
            self.expect("then")
            then = self._parse_branch()
            self.expect("else")
            els = self._parse_branch()
            return If(cond, then, els, tok.span)
        if word == "while":
            cond = self._parse_expr()
            self.expect("do")
            body = self._parse_branch()
            return While(cond, body, tok.span)
        if word == "test":
            self.expect("(")
            perm = self.ident("permission name")
            if perm.text not in self.universe.names:
                raise UnknownReference(f"unknown permission {perm.text!r}", perm.span)
            self.expect(")")
            then = self._parse_branch()
            self.expect("else")
            els = self._parse_branch()
            return Test(perm.text, then, els, tok.span)
        name = self.ident("variable name")  # letvar
        self.expect("=")
        init = self._parse_expr()
        self.expect("in")
        body = self._parse_branch()
        return LetVar(name.text, init, body, tok.span)

    def _parse_assign(self, tok: Token) -> Cmd:
        name = self.ident("variable name")
        self.expect(":=")
        if self.accept("call"):
            app = self.ident("app name")
            self.expect(".")
            fun = self.ident("function name")
            self.expect("(")
            args: list[Expr] = []
            if not self.at(")"):
                args = self.comma_list(self._parse_expr)
            self.expect(")")
            return CallAssign(name.text, app.text, fun.text, tuple(args), tok.span)
        return Assign(name.text, self._parse_expr(), tok.span)

    def _parse_branch(self) -> Cmd:
        """A branch of a compound command. Braces here, which the printer
        always writes, add no nesting level, so printing keeps the depth."""
        return self._parse_cmd_seq() if self.accept("{") else self._parse_cmd()

    def _parse_cmd_seq(self) -> Cmd:
        """The members of a brace block, up to and including the ``}``."""
        cmds = [self._parse_cmd()]
        while self.accept(";"):
            if self.at("}"):
                break
            cmds.append(self._parse_cmd())
        self.expect("}")
        return block(cmds)

    # expressions

    def _parse_expr(self, level: int = 0) -> Expr:
        """An expression whose operators are of ``level`` or tighter (see
        ``syntax.BINARY_LEVELS``). Each operator of a chain descends one
        nesting level, and the chain's end restores the depth."""
        if level == len(BINARY_LEVELS):
            return self._parse_atom()
        ops, chained = BINARY_LEVELS[level]
        outer = self.depth
        e = self._parse_expr(level + 1)
        while self.tokens[self.i].text in ops:
            op = self.next()
            self.descend(op)
            e = BinOp(op.text, e, self._parse_expr(level + 1), op.span)
            if not chained:
                break
        self.depth = outer
        return e

    def _parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(_int_literal(tok), tok.span)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text, tok.span)
        if self.accept("("):
            self.descend(tok)
            e = self._parse_expr()
            self.expect(")")
            self.depth -= 1
            return e
        raise ParseError(f"expected expression, got {tok.text!r}", tok.span)

    # base types

    def _parse_basetype(self) -> BaseType:
        tok = self.peek()
        n = self.universe.count
        if tok.kind == "ident":
            self.next()
            return embed(self._level(tok), self.lattice, n)
        self.expect("{")
        # permission set -> level; the key None holds the ``_`` default
        explicit: dict[int | None, int] = {}

        def entry() -> None:
            mask = None if self.accept("_") else self.perm_set()
            self.expect(":")
            lvl = self._level(self.ident("level name"))
            if mask in explicit:
                raise ParseError(
                    "duplicate default entry" if mask is None else
                    f"permission set {self.universe.format_set(mask)} listed twice",
                    tok.span,
                )
            explicit[mask] = lvl

        self.comma_list(entry)
        self.expect("}")
        default = explicit.pop(None, None)
        if default is None and len(explicit) != 1 << n:
            raise ParseError(
                "base type literal needs a '_' default or all permission sets",
                tok.span,
            )
        table = tuple(
            explicit.get(pset, default) for pset in range(1 << n)
        )
        return BaseType(self.lattice, n, table)

    def _level(self, tok: Token) -> int:
        if tok.text not in self.lattice.names:
            raise UnknownReference(f"unknown level {tok.text!r}", tok.span)
        return self.lattice.level(tok.text)


def parse_system(text: str) -> System:
    return Parser(text).parse_system()
