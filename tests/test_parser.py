import glob
import os
import string

import pytest

from permflow.parser import DuplicateName, ParseError, UnknownReference, parse_system
from permflow.syntax import Assign, BinOp, Block, CallAssign, IntLit, LetVar, Var
from permflow.syntax import Test as PermTest
from permflow.system import (
    ArityMismatch,
    OpenFunction,
    RecursiveCall,
    RepeatedPermissionTest,
    to_source,
    validate_system,
)

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str) -> str:
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_illustrative_shape():
    sys = parse_system(load("illustrative.pf"))
    decl = sys.fd["A.f"]
    assert isinstance(decl.body, Block) and len(decl.body.cmds) == 2
    first = decl.body.cmds[0]
    assert isinstance(first, PermTest)
    assert isinstance(first.then, Assign)
    assert first.perm == "p"
    assert sys.theta == {"A": 0}
    assert set(sys.constants) == {"info_p", "info_q"}


def test_empty_input():
    with pytest.raises(ParseError):
        parse_system("")


def test_four_function_system():
    sys = parse_system(load("laundering.pf"))
    assert set(sys.fd) == {"C.getsecret", "B.g", "A.f", "M.main"}
    p = 1 << sys.universe.index("p")
    assert sys.theta == {"A": 0, "B": 0, "C": p, "M": p}
    main = sys.fd["M.main"]
    assert isinstance(main.body, LetVar)
    assert isinstance(main.body.body, Block)
    assert isinstance(main.body.body.cmds[-1], CallAssign)


# A block nested on the right of another prints flat, so it must parse flat.
RIGHT_NESTED = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f() { init r = 0 in { r := 1; { r := 2; r := 3 }; return r } }
}
"""


def test_roundtrip_all_programs():
    sources = []
    for path in sorted(glob.glob(os.path.join(PROGRAMS, "*.pf"))):
        with open(path, "r", encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    sources.append(("right-nested block", RIGHT_NESTED))
    for path, text in sources:
        sys1 = parse_system(text)
        src = to_source(sys1)
        sys2 = parse_system(src)
        assert sys1.fd == sys2.fd, path
        assert sys1.theta == sys2.theta, path
        assert sys1.constants == sys2.constants, path
        assert sys1.universe == sys2.universe, path
        assert sys1.lattice.names == sys2.lattice.names, path
        assert sys1.lattice._leq == sys2.lattice._leq, path


def test_printer_precedence_roundtrip(rng):
    # random expression trees survive print-then-parse unchanged
    from permflow.parser import Parser, tokenize
    from permflow.syntax import BINARY_LEVELS, BinOp, IntLit, Var, format_expr

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([IntLit(rng.randrange(5)), Var("x"), Var("y")])
        op = rng.choice(["+", "-", "*", "==", "<"])
        return BinOp(op, gen(depth - 1), gen(depth - 1))

    def roundtrip(e):
        text = format_expr(e)
        parser = Parser("")
        parser.tokens = tokenize(text)
        parser.i = 0
        assert parser._parse_expr() == e, text
        assert parser.peek().kind == "eof", text

    for _ in range(300):
        roundtrip(gen(rng.randint(1, 4)))
    # chains long enough to run each level's loop many times, nested to
    # the left (printed bare where the level chains) and to the right
    # (parenthesized, two nesting levels an operator, so kept shorter)
    for ops, chained in BINARY_LEVELS:
        for length in (2, 3, 8, 40) if chained else (1,):
            left, right = gen(2), gen(2)
            for i in range(length):
                left = BinOp(rng.choice(sorted(ops)), left, gen(2))
                if i < 20:
                    right = BinOp(rng.choice(sorted(ops)), gen(2), right)
            roundtrip(left)
            roundtrip(right)
            roundtrip(BinOp("<", left, right))


HEADER = """
lattice { levels L, H; order L < H; }
permissions { p }
"""


def _sys(body: str):
    return parse_system(HEADER + body)


def test_duplicate_function():
    with pytest.raises(DuplicateName):
        _sys("""
app A perms {} {
  fun f() { init r = 0 in { return r } }
  fun f() { init r = 0 in { return r } }
}
""")


def test_unknown_call_target():
    from permflow.system import ValidationError

    sys = _sys("""
app A perms {} {
  fun f() { init r = 0 in { r := call B.g(); return r } }
}
""")
    with pytest.raises(ValidationError, match="call to unknown function B.g"):
        validate_system(sys)


def test_unknown_permission_in_test():
    with pytest.raises(UnknownReference):
        _sys("""
app A perms {} {
  fun f() { init r = 0 in { test(zz) r := 1 else r := 0; return r } }
}
""")


def test_partial_annotation_rejected():
    with pytest.raises(ParseError):
        _sys("""
app A perms {} {
  fun f(x : L, y) : L { init r = 0 in { return r } }
}
""")


def test_init_must_be_zero():
    with pytest.raises(ParseError):
        _sys("""
app A perms {} {
  fun f() { init r = 1 in { return r } }
}
""")


def test_integer_literals_are_ascii():
    # other Unicode decimal digits (here Arabic-Indic zero) are not literals
    with pytest.raises(ParseError, match="unexpected character '\u0660'"):
        _sys("""
app A perms {} {
  fun f() { init r = \u0660 in { return r } }
}
""")


def test_layout_is_ascii_whitespace():
    # tabs and CR LF line ends are layout; a no-break space is not
    sys = _sys("app A perms {} {\r\n\tfun f() {\tinit r = 0 in { return r } }\r\n}\r\n")
    assert list(sys.fd) == ["A.f"]
    with pytest.raises(ParseError, match="unexpected character '\\\\xa0'"):
        _sys("""
app A perms {} {
  fun f() {\u00a0init r = 0 in { return r } }
}
""")


def test_return_var_must_match():
    with pytest.raises(ParseError):
        _sys("""
app A perms {} {
  fun f() { init r = 0 in { return x } }
}
""")


def test_basetype_literal_needs_default():
    with pytest.raises(ParseError):
        _sys("""
app A perms {} {
  fun f(x : { {p}: H }) : L { init r = 0 in { return r } }
}
""")


def test_basetype_literal_full_listing_ok():
    sys = _sys("""
app A perms {} {
  fun f(x : { {}: L, {p}: H }) : L { init r = 0 in { r := 0; return r } }
}
""")
    t = sys.fd["A.f"].annotation.params[0]
    assert t.table == (sys.lattice.level("L"), sys.lattice.level("H"))


def test_overlapping_literal_entries():
    with pytest.raises(ParseError):
        _sys("""
app A perms {} {
  fun f(x : { {p}: H, {p}: L, _: L }) : L { init r = 0 in { return r } }
}
""")


PERM_SET_SITES = {
    "app": "app A perms {%s} {\n}\n",
    "type-literal": (
        "app A perms {} {\n"
        "  fun f(x : { {%s}: H, _: L }) : L { init r = 0 in { return r } }\n}\n"
    ),
}


@pytest.mark.parametrize("site", sorted(PERM_SET_SITES))
@pytest.mark.parametrize(
    "names, error, message",
    [
        ("p, p", DuplicateName, "permission 'p' listed twice"),
        ("p, zz", UnknownReference, "unknown permission 'zz'"),
    ],
    ids=["repeated", "unknown"],
)
def test_braced_permission_set(site, names, error, message):
    with pytest.raises(error, match=message):
        _sys(PERM_SET_SITES[site] % names)
    assert _sys(PERM_SET_SITES[site] % "p").theta == {"A": 0b1 if site == "app" else 0}


# validation


def test_self_recursion():
    sys = _sys("""
app A perms {} {
  fun f() { init r = 0 in { r := call A.f(); return r } }
}
""")
    with pytest.raises(RecursiveCall):
        validate_system(sys)


def test_mutual_recursion_lists_cycle():
    sys = _sys("""
app A perms {} {
  fun f() { init r = 0 in { r := call A.g(); return r } }
  fun g() { init s = 0 in { s := call A.f(); return s } }
}
""")
    with pytest.raises(RecursiveCall) as exc:
        validate_system(sys)
    assert "A.f" in str(exc.value) and "A.g" in str(exc.value)


def test_repeated_permission_test():
    sys = _sys("""
app A perms {} {
  fun f() {
    init r = 0 in {
      test(p) { test(p) r := 1 else r := 2 } else r := 0;
      return r
    }
  }
}
""")
    with pytest.raises(RepeatedPermissionTest):
        validate_system(sys)


def test_sequential_tests_allowed():
    sys = _sys("""
app A perms {} {
  fun f() {
    init r = 0 in {
      test(p) r := 1 else r := 0;
      test(p) r := r else r := 0;
      return r
    }
  }
}
""")
    validate_system(sys)


def test_open_function():
    sys = _sys("""
app A perms {} {
  fun f() { init r = 0 in { r := y; return r } }
}
""")
    with pytest.raises(OpenFunction):
        validate_system(sys)


def test_call_arity():
    sys = _sys("""
app A perms {} {
  fun g(x) { init r = 0 in { r := x; return r } }
  fun f() { init r = 0 in { r := call A.g(1, 2); return r } }
}
""")
    with pytest.raises(ArityMismatch):
        validate_system(sys)


def test_letvar_self_reference():
    from permflow.system import ValidationError

    sys = _sys("""
app A perms {} {
  fun f() { init r = 0 in { letvar x = x + 1 in r := x; return r } }
}
""")
    with pytest.raises(ValidationError):
        validate_system(sys)


def test_topo_order_of_call_chain():
    # main -> A.f -> B.g and main -> C.getsecret: callees come first.
    csys = validate_system(parse_system(load("laundering.pf")))
    assert sorted(csys.topo) == sorted(csys.fd)
    topo = list(csys.topo)
    assert topo.index("B.g") < topo.index("A.f") < topo.index("M.main")
    assert topo.index("C.getsecret") < topo.index("M.main")


def test_validation_deterministic():
    src = load("laundering.pf")
    a = validate_system(parse_system(src))
    b = validate_system(parse_system(src))
    assert a.topo == b.topo


def test_progen_systems_print_and_parse_back(rng):
    # every validated system prints as text that parses back to it, up to
    # nested blocks and declaration order, which the source cannot state
    from .progen import annotate_some, as_parsed, random_checked_system

    for _ in range(1200):
        csys = annotate_some(rng, random_checked_system(rng))
        text = to_source(csys)
        assert validate_system(parse_system(text)) == as_parsed(csys), text


@pytest.mark.parametrize("levels, bad", [(["0", "1"], "0"), (["L", "if"], "if")],
                         ids=["digits", "keyword"])
def test_level_names_must_be_parser_names(levels, bad):
    # to_source would print such a lattice as text the parser rejects
    from permflow.basetypes import PermUniverse
    from permflow.lattice import load_lattice
    from permflow.system import System, ValidationError

    lattice = load_lattice(levels, [tuple(levels)])
    with pytest.raises(ValidationError, match=f"level {bad!r} is not a name"):
        validate_system(System(lattice, PermUniverse(("p",)), {"A": 0}, {}, {}))


def test_operator_table_is_the_operator_set():
    # the syntax table, the tokenizer and the interpreter name one operator set
    from permflow.interp import _BINOPS
    from permflow.parser import tokenize
    from permflow.syntax import BINARY_LEVEL, BINARY_LEVELS

    table = [op for ops, _ in BINARY_LEVELS for op in ops]
    assert len(table) == len(set(table)) == len(BINARY_LEVEL)
    assert set(table) == set(_BINOPS)
    # and each compiles through its table entry, none as a special case
    assert all(callable(make) for make in _BINOPS.values())
    for op in table:
        assert [t.text for t in tokenize(f"x{op}y")] == ["x", op, "y", ""], op
    # every other operator token the tokenizer knows is punctuation
    punctuation = {"{", "}", "(", ")", ",", ";", ".", ":", ":=", "="}
    lexed = set()
    for a in string.punctuation:
        for b in string.punctuation + " ":
            try:
                lexed |= {t.text for t in tokenize(a + b) if t.kind == "op"}
            except ParseError:
                pass
    assert lexed == set(table) | punctuation


def test_declarations_need_a_declared_app():
    # to_source prints declarations inside their app's block, so one of an
    # undeclared app would not be printed at all
    from dataclasses import replace

    from permflow.system import ValidationError

    sys = _sys("app A perms {} {\n  const k : L = 1;\n"
               "  fun f() { init r = 0 in { return r } }\n}\n")
    f, k = sys.fd["A.f"], sys.constants["k"]
    with pytest.raises(ValidationError, match="function B.f of undeclared app"):
        validate_system(replace(sys, fd={"B.f": replace(f, app="B")}))
    with pytest.raises(ValidationError, match="constant 'k' of undeclared app 'B'"):
        validate_system(replace(sys, constants={"k": replace(k, app="B")}))


@pytest.mark.parametrize("expr, message", [
    (IntLit(-1), "negative literal -1"),
    (BinOp("/", Var("r"), IntLit(2)), "unknown operator '/'"),
], ids=["negative-literal", "unknown-operator"])
def test_expressions_need_a_source_spelling(expr, message):
    # the parser reads no such expression, so to_source could not print it
    from dataclasses import replace

    from permflow.system import ValidationError

    sys = _sys("app A perms {} {\n  fun f() { init r = 0 in { r := 1; return r } }\n}\n")
    f = sys.fd["A.f"]
    body = replace(f.body, expr=expr)
    with pytest.raises(ValidationError, match=message):
        validate_system(replace(sys, fd={"A.f": replace(f, body=body)}))


def test_open_variable_error_names_the_first_in_source_order():
    # the message is the same whatever the string hash seed
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    text = HEADER + "app A perms {} {\n  fun f() { init r = 0 in { r := yy + zz; return r } }\n}\n"
    code = ("import sys; from permflow.parser import parse_system; "
            "from permflow.system import validate_system\n"
            "try: validate_system(parse_system(sys.stdin.read()))\n"
            "except ValueError as e: print(e)")
    for seed in ("1", "4"):  # at the parent, these named 'zz' and 'yy'
        out = subprocess.run(
            [sys.executable, "-c", code], input=text, capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}, check=True,
        ).stdout
        assert out == "5:37: variable 'yy' is not in scope in A.f\n", (seed, out)
