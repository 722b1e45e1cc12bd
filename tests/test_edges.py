"""Error paths and small API corners not covered by the main modules."""

import json
import os

import pytest

from permflow.basetypes import BaseType, PermTypeError, PermUniverse
from permflow.cli import main
from permflow.parser import DuplicateName, ParseError, parse_system
from permflow.system import validate_system

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def p(name):
    return os.path.join(PROGRAMS, name)


def test_duplicate_permission_name():
    with pytest.raises(PermTypeError):
        PermUniverse(("p", "p"))


def test_universe_mask_helpers():
    uni = PermUniverse(("p", "q", "r"))
    assert uni.mask_of(["p", "r"]) == 0b101
    assert uni.set_names(0b101) == ("p", "r")
    assert uni.format_set(0) == "{}"
    with pytest.raises(PermTypeError):
        uni.mask_of(["zz"])


def test_basetype_table_size(two_point):
    with pytest.raises(PermTypeError):
        BaseType(two_point, 2, (0, 1))


def test_parser_duplicate_blocks():
    header = "lattice { levels L, H; order L < H; }\npermissions { p }\n"
    with pytest.raises(DuplicateName):
        parse_system(header + "app A perms {} {}\napp A perms {} {}\n")
    with pytest.raises(DuplicateName):
        parse_system(header + """
app A perms {} {
  const k : L = 1;
  const k : L = 2;
}
""")
    with pytest.raises(ParseError):
        parse_system("lattice { levels L, L; order L < L; }\npermissions {}\n")


def test_parser_unexpected_character():
    with pytest.raises(ParseError):
        parse_system("lattice { levels L, H; order L < H; } $$")


def test_parenthesized_expressions():
    src = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, y : L) : L {
    init r = 0 in { r := (x + y) * (x - 1); return r }
  }
}
"""
    csys = validate_system(parse_system(src))
    from permflow.interp import call_function

    assert call_function(csys, "A.f", [3, 4], 0) == 14
    from permflow.system import to_source

    again = validate_system(parse_system(to_source(csys)))
    assert call_function(again, "A.f", [3, 4], 0) == 14


def test_negative_constant_value():
    src = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  const low : L = -5;
  fun f() : L { init r = 0 in { r := low; return r } }
}
"""
    csys = validate_system(parse_system(src))
    from permflow.interp import call_function

    assert call_function(csys, "A.f", [], 0) == -5


def test_cli_infer_unsat(capsys, tmp_path):
    src = open(p("laundering.pf")).read()
    src = src.replace("fun f(x : { {p}: H, _: L }) : L {", "fun f(x) {")
    src = src.replace("fun main() : L {", "fun main() {")
    path = tmp_path / "unsat.pf"
    path.write_text(src)
    code = main(["infer", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and "unsat" in doc


def test_cli_infer_ill_typed_annotation(capsys):
    # fully annotated but ill-typed: the annotated body's own constraints
    # are unsatisfiable, so infer reports an unsat blaming it
    code = main(["infer", p("leaky.pf"), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and "functions" not in doc
    assert doc["unsat"]["functions"] == ["A.bad"]
    assert [c["function"] for c in doc["unsat"]["core"]] == ["A.bad"]


def test_cli_bad_args_value(capsys):
    code = main(["run", p("identity.pf"), "--entry", "A.id", "--args", "x"])
    assert code == 2


def test_cli_bad_perm_name(capsys):
    code = main(["run", p("identity.pf"), "--entry", "A.id", "--args", "1",
                 "--caller-perms", "p, zz"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown permission 'zz'\n"


def test_cli_bad_domain(capsys):
    assert main(["nitest", p("identity.pf"), "--domain", "oops"]) == 2
    assert main(["nitest", p("identity.pf"), "--domain", "3..1"]) == 2


def test_cli_bad_observer(capsys):
    assert main(["nitest", p("identity.pf"), "--observer", "ZZ"]) == 2


def test_cli_fmt_json(capsys):
    code = main(["fmt", p("identity.pf"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert "fun id" in doc["source"]


def test_cli_check_human_witness_line(capsys):
    code = main(["check", p("laundering.pf")])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness permission set" in out


def test_nitest_requires_a_type():
    from permflow.nitest import nitest_system

    csys = validate_system(parse_system(open(p("getinfo.pf")).read()))
    with pytest.raises(ValueError, match="getInfo has no declared or inferred type"):
        nitest_system(csys, observers=(0,))


def test_nitest_single_config_grid():
    from permflow.nitest import nitest_system

    csys = validate_system(parse_system(open(p("identity.pf")).read()))
    report = nitest_system(csys, observers=(csys.lattice.level("H"),), domain=(0, 1))
    assert report.ok
    assert {c.observer for c in report.cells} == {csys.lattice.level("H")}
