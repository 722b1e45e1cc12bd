"""Long, wide and deeply nested programs through every CLI command.

A long block is a flat list, so its length costs no stack. A block's
effect term folds its members' distinct effects pairwise into a balanced
meet tree, so a block that writes n variables costs a term of depth
⌈log2 n⌉, not n. Nesting is bounded by ``MAX_DEPTH``: a program exactly
that deep works everywhere, and one level more is a clean parse error
(exit 2), never a traceback.
"""

import re

import pytest

from permflow.cli import main
from permflow.parser import MAX_DEPTH, parse_system

LONG = 2000


def _source(stmt: str, annotated: bool) -> str:
    sig = "x : L) : L" if annotated else "x)"
    return f"""lattice {{ levels L, H; order L < H; }}
permissions {{ p }}
app A perms {{p}} {{
  fun f({sig} {{
    init r = 0 in {{
      {stmt};
      return r
    }}
  }}
}}
"""


def _long_body() -> str:
    return ";\n      ".join(
        "r := r + x" if i % 2 == 0 else "x := x + 1" for i in range(LONG)
    )


def _if_nest(depth: int) -> str:
    # depth - 1 nested ifs around one assignment: one level per command
    return "if x then " * (depth - 1) + "r := x" + " else r := 0" * (depth - 1)


def _run_all(tmp_path, capsys, stmt: str) -> dict[str, tuple[int, str, str]]:
    plain = tmp_path / "plain.pf"
    annotated = tmp_path / "annotated.pf"
    plain.write_text(_source(stmt, False), encoding="utf-8")
    annotated.write_text(_source(stmt, True), encoding="utf-8")
    runs = {
        "check": ["check", str(annotated)],
        "infer": ["infer", "--json", str(plain)],
        "run": ["run", str(plain), "--entry", "A.f", "--args", "0"],
        "nitest": ["nitest", "--json", str(plain)],
        "fmt": ["fmt", str(plain)],
    }
    out = {}
    for name, argv in runs.items():
        code = main(argv)
        captured = capsys.readouterr()
        out[name] = (code, captured.out, captured.err)
    return out


@pytest.mark.parametrize(
    "stmt",
    [
        _long_body(),
        "while x < 1 do {\n" + _long_body() + "\n}",
        _if_nest(MAX_DEPTH),
        # the deepest expressions, one level under those of
        # test_one_level_too_deep_exits_two
        "r := x" + " + x" * (MAX_DEPTH - 1),
        "r := x" + " * x" * (MAX_DEPTH - 1),
        "r := x" + " - 1" * (MAX_DEPTH - 1),
        "r := " + "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
    ],
    ids=["long-body", "long-while-body", "if-nest-at-max-depth",
         "plus-chain-at-max-depth", "times-chain-at-max-depth",
         "minus-chain-at-max-depth", "parentheses-at-max-depth"],
)
def test_every_command_works(tmp_path, capsys, stmt):
    results = _run_all(tmp_path, capsys, stmt)
    for name, (code, _out, err) in results.items():
        assert code == 0, (name, err)
    printed = results["fmt"][1]
    assert parse_system(printed).fd == parse_system(_source(stmt, False)).fd


@pytest.mark.parametrize(
    "stmt",
    [
        _if_nest(MAX_DEPTH + 1),
        "r := " + "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "r := x" + " + x" * MAX_DEPTH,
    ],
    ids=["if-nest", "parentheses", "plus-chain"],
)
def test_one_level_too_deep_exits_two(tmp_path, capsys, stmt):
    for name, (code, out, err) in _run_all(tmp_path, capsys, stmt).items():
        assert code == 2, name
        assert out == ""
        assert re.fullmatch(
            rf"error: \d+:\d+: nesting deeper than {MAX_DEPTH} levels\n", err
        ), (name, err)


def test_block_writing_every_parameter_of_a_wide_function(tmp_path, capsys):
    params = ", ".join(f"x{i}" for i in range(LONG))
    writes = "; ".join(f"x{i} := 0" for i in range(LONG))
    path = tmp_path / "wide.pf"
    path.write_text(f"""lattice {{ levels L, H; order L < H; }}
permissions {{ p }}
app A perms {{p}} {{
  fun f({params}) {{
    init r = 0 in {{
      if x0 then {{ {writes} }} else r := 1;
      return r
    }}
  }}
}}
""", encoding="utf-8")
    for argv in (["infer", "--json"], ["nitest", "--json"], ["fmt"]):
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv


CHAIN = 1200


def _chain_source() -> str:
    # callers first: f1199 calls f1198 ... calls f0
    funs = [
        f"  fun f{i}(x : L) : L {{ init r = 0 in {{ r := call A.f{i - 1}(x); return r }} }}"
        for i in range(CHAIN - 1, 0, -1)
    ]
    funs.append("  fun f0(x : L) : L { init r = 0 in { r := x; return r } }")
    return (
        "lattice { levels L, H; order L < H; }\npermissions { p }\n"
        "app A perms {} {\n" + "\n".join(funs) + "\n}\n"
    )


def test_long_call_chain_declared_callers_first(tmp_path, capsys):
    path = tmp_path / "chain.pf"
    path.write_text(_chain_source(), encoding="utf-8")
    assert main(["fmt", str(path)]) == 0
    printed = capsys.readouterr().out
    assert parse_system(printed).fd == parse_system(_chain_source()).fd
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("well-typed\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--entry", "A.f1199", "--args", "3"],
        ["nitest", "--observer", "L", "--domain", "0..1"],
    ],
    ids=["run", "nitest"],
)
def test_call_chain_too_deep_to_interpret_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "chain.pf"
    path.write_text(_chain_source(), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: call chain too deep for the interpreter\n"
    # a shorter prefix of the same chain runs
    assert main(["run", str(path), "--entry", "A.f100", "--args", "3"]) == 0
    assert capsys.readouterr().out == "3\n"
