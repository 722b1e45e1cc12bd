"""AST-level mutation fuzz of the CLI over ``to_source`` of random systems.

Byte mutants of the corpus mostly stop at the parser. These mutants are
edits of a ``progen`` system's tree, printed with ``to_source``, so the text
always parses and the checker, the solver and the interpreter see them:

- swap a binary operator for another;
- swap a name for another one in scope at that point;
- change one level of one annotation;
- wrap a command in ``test(p) ... else ...``;
- drop one function's annotation.

Through ``cli.main``, ``check``, ``infer``, ``fmt`` and ``nitest`` exit 0-2
with no traceback, ``fmt`` output is a fixed point, and whenever ``infer``
exits 0 the file its ``--emit-annotated`` writes passes ``check``. What
``check`` accepts, ``nitest`` finds no leak in.
"""

import contextlib
import io
import random
from dataclasses import replace

from permflow.basetypes import BaseType, FunctionType
from permflow.cli import main
from permflow.inference import InferUnsat, infer_system
from permflow.syntax import (
    BINARY_LEVEL,
    Assign,
    BinOp,
    Block,
    CallAssign,
    If,
    LetVar,
    Test as PermTest,
    Var,
    While,
    subcommands,
)
from permflow.system import to_source

from .conftest import SEED
from .progen import annotate_some, random_checked_system

MUTANTS = 300
OPERATORS = sorted(BINARY_LEVEL)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def rewrite_expr(e, scope, on_expr):
    new = on_expr(e, scope)
    if new is not None:
        return new
    if isinstance(e, BinOp):
        return replace(e, lhs=rewrite_expr(e.lhs, scope, on_expr),
                       rhs=rewrite_expr(e.rhs, scope, on_expr))
    return e


def rewrite(c, scope, tested, on_cmd, on_expr):
    """``c`` with ``on_cmd``/``on_expr`` applied in pre-order; a callback
    that returns a node replaces the visited one. ``scope`` is the set of
    variables in scope, ``tested`` the permissions tested around ``c``."""
    new = on_cmd(c, scope, tested)
    if new is not None:
        return new

    def ex(e):
        return rewrite_expr(e, scope, on_expr)

    def sub(b, sc=scope, t=tested):
        return rewrite(b, sc, t, on_cmd, on_expr)

    if isinstance(c, Assign):
        return replace(c, expr=ex(c.expr))
    if isinstance(c, CallAssign):
        return replace(c, args=tuple(ex(a) for a in c.args))
    if isinstance(c, Block):
        return replace(c, cmds=tuple(sub(m) for m in c.cmds))
    if isinstance(c, If):
        return replace(c, cond=ex(c.cond), then=sub(c.then), els=sub(c.els))
    if isinstance(c, While):
        return replace(c, cond=ex(c.cond), body=sub(c.body))
    if isinstance(c, PermTest):
        inner = tested | {c.perm}
        return replace(c, then=sub(c.then, t=inner), els=sub(c.els, t=inner))
    return replace(c, init=ex(c.init), body=sub(c.body, sc=scope | {c.name}))


def edit_site(rnd, decl, cmd_edit, expr_edit):
    """``decl`` with one site of its body edited, chosen uniformly among the
    sites where ``cmd_edit``/``expr_edit`` apply (return an edit, not None);
    ``decl`` itself when there is none."""
    if decl.body is None:
        return decl
    count = [0]

    def counting(edit):
        def visit(node, *ctx):
            if edit(node, *ctx) is not None:
                count[0] += 1
        return visit

    scope = frozenset(decl.params) | {decl.ret_var}
    rewrite(decl.body, scope, frozenset(), counting(cmd_edit), counting(expr_edit))
    if not count[0]:
        return decl
    pick = [rnd.randrange(count[0])]

    def choosing(edit):
        def visit(node, *ctx):
            new = edit(node, *ctx)
            if new is None:
                return None
            pick[0] -= 1
            return new if pick[0] == -1 else None
        return visit

    body = rewrite(decl.body, scope, frozenset(), choosing(cmd_edit), choosing(expr_edit))
    return replace(decl, body=body)


def mutate(rnd, sys):
    """``sys`` with one random edit of the five kinds."""
    universe, consts = sys.universe, sorted(sys.constants)
    q = rnd.choice(list(sys.fd))
    decl = sys.fd[q]
    kind = rnd.randrange(5)
    never = lambda *_: None  # noqa: E731

    if kind == 0:  # swap a binary operator
        def op(e, scope):
            if isinstance(e, BinOp):
                return replace(e, op=rnd.choice([o for o in OPERATORS if o != e.op]))
        decl = edit_site(rnd, decl, never, op)
    elif kind == 1:  # swap a name for another in scope
        def read(e, scope):
            others = sorted((scope | set(consts)) - {getattr(e, "name", None)})
            if isinstance(e, Var) and others:
                return replace(e, name=rnd.choice(others))

        def write(c, scope, tested):
            others = sorted(scope - {getattr(c, "name", None)})
            if isinstance(c, (Assign, CallAssign)) and others:
                return replace(c, name=rnd.choice(others))
        decl = edit_site(rnd, decl, write, read)
    elif kind == 2:  # change one annotation level
        typed = [d for d in sys.fd.values() if d.annotation is not None]
        if typed:
            decl = rnd.choice(typed)
            types = list(decl.annotation.params) + [decl.annotation.ret]
            slot = rnd.randrange(len(types))
            table = list(types[slot].table)
            cell = rnd.randrange(len(table))
            table[cell] = rnd.choice([v for v in range(len(sys.lattice)) if v != table[cell]])
            types[slot] = BaseType(sys.lattice, universe.count, tuple(table))
            decl = replace(decl, annotation=FunctionType(tuple(types[:-1]), types[-1]))
    elif kind == 3:  # wrap a command in test(p) ... else ...
        def wrap(c, scope, tested):
            free = [p for p in universe.names if p not in tested] or list(universe.names)
            has_let = any(isinstance(m, LetVar) for m in subcommands(c))
            els = Assign(decl.ret_var, Var(decl.ret_var)) if has_let else c
            return PermTest(rnd.choice(free), c, els)
        decl = edit_site(rnd, decl, wrap, never)
    else:  # drop one function's annotation
        typed = [d for d in sys.fd.values() if d.annotation is not None]
        if typed:
            decl = replace(rnd.choice(typed), annotation=None)
    return replace(sys, fd={**sys.fd, decl.qualified: decl})


def base_system(rnd):
    """A progen system with about half of its functions annotated, with
    their inferred types where the system infers, else at random."""
    csys = random_checked_system(rnd)
    try:
        inferred = infer_system(csys).types()
    except InferUnsat:
        inferred = {}
    return annotate_some(rnd, csys, inferred)


def test_parseable_mutants_exit_cleanly(tmp_path):
    rnd = random.Random(SEED + 15)
    src, emitted = tmp_path / "mutant.pf", tmp_path / "annotated.pf"
    for i in range(MUTANTS):
        sys = base_system(rnd)
        for _ in range(rnd.randint(1, 3)):
            sys = mutate(rnd, sys)
        text = to_source(sys)
        src.write_text(text)
        codes = {}
        for argv in (["check"], ["fmt"], ["nitest", "--domain", "0..1", "--fuel", "1000"],
                     ["infer", "--emit-annotated", str(emitted)]):
            code, out, err = run([argv[0], str(src), *argv[1:]])
            codes[argv[0]] = code
            assert code in (0, 1, 2) and "Traceback" not in err, (i, argv, err, text)
            if argv[0] == "fmt" and code == 0:
                assert text == out, (i, text, out)
            if argv[0] == "infer" and code == 0:
                code, _, err = run(["check", str(emitted)])
                assert code == 0, (i, err, text, emitted.read_text())
        # what the checker accepts, the harness finds no leak in
        assert not (codes["check"] == 0 and codes["nitest"] == 1), (i, text)
