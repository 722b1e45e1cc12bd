import json
import os
import subprocess
import sys

import pytest

from permflow import cli
from permflow.cli import main

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def p(name: str) -> str:
    return os.path.join(PROGRAMS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_well_typed(capsys):
    code, out, _ = run(capsys, "check", p("getsecret.pf"))
    assert code == 0
    assert "well-typed" in out


def test_check_laundering_exit_one(capsys):
    code, out, _ = run(capsys, "check", p("laundering.pf"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    errors = {f["name"]: f.get("error") for f in doc["functions"]}
    assert errors["A.f"]["kind"] == "CallArgViolation"
    assert errors["C.getsecret"] is None


def test_infer_getinfo_json(capsys):
    code, out, _ = run(capsys, "infer", p("getinfo.pf"), "--json")
    assert code == 0
    doc = json.loads(out)
    (fn,) = doc["functions"]
    assert fn["name"] == "Tracker.getInfo"
    assert fn["return"] == {"{}": "L", "{p}": "L", "{q}": "H", "{p,q}": "l1"}
    assert fn["inferred"] is True
    assert fn["constraints"] >= 4


def test_infer_json_function_entry_keys(capsys):
    # every function entry, inferred or echoed, carries exactly these keys
    code, out, _ = run(capsys, "infer", p("mixed_annot.pf"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert {fn["inferred"] for fn in doc["functions"]} == {True, False}
    for fn in doc["functions"]:
        assert set(fn) == {"name", "inferred", "params", "return", "signature",
                           "constraints"}


PLANTED_LEAK = """\
lattice { levels L, H; order L < H; }
permissions { p }
app S perms {p} {
  const SEC : H = 7;
  fun sink(y : L) : L { init r = 0 in { r := y; return r } }
}
app A perms {p} {
  fun f(x) {
    init r = 0 in {
      letvar v = 0 in {
        test(p) v := SEC else v := 0;
        v := call S.sink(v)
      };
      return r
    }
  }
  fun g(x) { init r = 0 in { r := call A.f(x); return r } }
}
"""


def test_infer_unsat_names_source_location(capsys, tmp_path):
    # the refuted constraint is the call-arg side condition of the sink call
    # (line 12, column 9), refuted where p is held and v carries SEC; the
    # core adds the assignment of SEC to v (line 11, column 17); only A.f
    # owns a core constraint, so its caller A.g is not blamed
    path = tmp_path / "leak.pf"
    path.write_text(PLANTED_LEAK)
    code, out, _ = run(capsys, "infer", str(path), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["unsat"] == {
        "functions": ["A.f"],
        "message": "call-arg constraint at 12:9 (argument 1 of call to S.sink) "
                   "is refuted at permission set {p}",
        "core": [
            {"rule": "assign", "line": 11, "col": 17, "function": "A.f",
             "what": "assignment to 'v'"},
            {"rule": "call-arg", "line": 12, "col": 9, "function": "A.f",
             "what": "argument 1 of call to S.sink"},
        ],
    }


def test_run_getsecret(capsys):
    code, out, _ = run(
        capsys, "run", p("getsecret.pf"),
        "--entry", "C.getsecret", "--caller-perms", "p",
    )
    assert code == 0 and out.strip() == "42"
    # names are stripped and empty names skipped
    code, out, _ = run(
        capsys, "run", p("getsecret.pf"),
        "--entry", "C.getsecret", "--caller-perms", " p , ,",
    )
    assert code == 0 and out.strip() == "42"
    code, out, _ = run(capsys, "run", p("getsecret.pf"), "--entry", "C.getsecret")
    assert code == 0 and out.strip() == "0"


def test_run_with_args(capsys):
    code, out, _ = run(
        capsys, "run", p("identity.pf"), "--entry", "A.id", "--args", "13",
    )
    assert code == 0 and out.strip() == "13"


def test_run_fuel_flag(capsys):
    code, out, _ = run(
        capsys, "run", p("while_loop.pf"), "--entry", "A.sum",
        "--args", "1000000", "--fuel", "100",
    )
    assert code == 1
    assert "fuel" in out


def test_nitest_leaky(capsys):
    code, out, _ = run(capsys, "nitest", p("leaky.pf"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    bad = [c for c in doc["cells"] if c["verdict"] == "violation"]
    assert bad and "witness" in bad[0]


def test_nitest_partly_annotated_needs_a_whole_typing(capsys, tmp_path):
    # leaky.pf runs without inference; one unannotated function makes
    # nitest infer the system, and A.bad's own body refutes its annotation
    src = open(p("leaky.pf"), encoding="utf-8").read().replace(
        "  fun bad(", "  fun id(y) { init r = 0 in { r := y; return r } }\n  fun bad(")
    path = tmp_path / "partly.pf"
    path.write_text(src)
    code, out, err = run(capsys, "nitest", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot infer types for noninterference test: "
                          "no type assignment satisfies A.bad: ")


def test_nitest_clean_system(capsys):
    code, out, _ = run(capsys, "nitest", p("getinfo.pf"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_nitest_observer_and_domain_flags(capsys):
    code, out, _ = run(
        capsys, "nitest", p("identity.pf"), "--json",
        "--observer", "H", "--domain", "0..1", "--pair-cap", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert {c["observer"] for c in doc["cells"]} == {"H"}


RETURNS_ITS_START = """\
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L) : H { init r = 0 in { return r } }
}
"""


def test_nitest_starts_the_return_variable_at_zero(capsys, tmp_path):
    # every call returns 0, so no L observer can tell two calls apart; a
    # harness that started r at other values would report r=0 vs r=1
    path = tmp_path / "start.pf"
    path.write_text(RETURNS_ITS_START)
    code, out, _ = run(capsys, "nitest", str(path), "--strict", "--observer", "L")
    assert code == 0 and "no violations" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run", p("arith.pf"), "--entry", "A.smaller", "--args=-1,2"], "-1"),
        (["nitest", p("identity.pf"), "--domain=-2..1"], "no violations"),
    ],
    ids=["args", "domain"],
)
def test_negative_flag_value_in_equals_form(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and expected in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", p("arith.pf"), "--entry", "A.smaller", "--args", "-1,2"],
        ["nitest", p("identity.pf"), "--domain", "-2..1"],
    ],
    ids=["args", "domain"],
)
def test_negative_flag_value_after_a_space_is_a_usage_error(capsys, argv):
    # argparse reads a value that starts with "-" as a flag, and exits 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "expected one argument" in out.err and "Traceback" not in out.err


def test_fmt_roundtrips(capsys, tmp_path):
    code, out, _ = run(capsys, "fmt", p("illustrative.pf"))
    assert code == 0
    path = tmp_path / "fmt.pf"
    path.write_text(out)
    code2, out2, _ = run(capsys, "fmt", str(path))
    assert code2 == 0 and out2 == out


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", p("nope.pf"))
    assert code == 2 and "error" in err


def test_parse_error_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.pf"
    path.write_text("lattice { levels }")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


def test_validation_error_exit_two(capsys, tmp_path):
    path = tmp_path / "rec.pf"
    path.write_text("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f() { init r = 0 in { r := call A.f(); return r } }
}
""")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and "recursive" in err


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "infer", p("getinfo.pf"), "--json")
    _, out2, _ = run(capsys, "infer", p("getinfo.pf"), "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "nitest", p("constfun.pf"), "--json")
    _, out4, _ = run(capsys, "nitest", p("constfun.pf"), "--json")
    assert out3 == out4


def test_timings_only_on_request(capsys):
    _, out, _ = run(capsys, "infer", p("getinfo.pf"), "--json")
    assert "timings" not in json.loads(out)
    _, out, _ = run(capsys, "infer", p("getinfo.pf"), "--json", "--timings")
    assert "timings" in json.loads(out)


def test_emit_annotated_then_check(capsys, tmp_path):
    annotated = tmp_path / "annotated.pf"
    code, _, _ = run(
        capsys, "infer", p("getinfo.pf"), "--emit-annotated", str(annotated),
    )
    assert code == 0
    code, out, _ = run(capsys, "check", str(annotated))
    assert code == 0, out


def test_unknown_entry_exit_two(capsys):
    code, _, err = run(capsys, "run", p("identity.pf"), "--entry", "A.nope")
    assert code == 2


NON_UTF8 = b"lattice { levels L; }\xff\n"
PROLOGUE = "lattice { levels L; }\npermissions { }\napp A perms {} {\n"
LONG_LITERAL = (PROLOGUE + "  fun f() { init r = 0 in { r := " + "9" * 5000
                + "; return r } }\n}\n").encode()
LONG_CONST = (PROLOGUE + "  const C : L = " + "9" * 5000 + ";\n}\n").encode()
NON_ASCII_DIGIT = (PROLOGUE + "  fun f() { init r = \u0660 in { return r } }\n}\n").encode()
NO_BREAK_SPACE = (PROLOGUE + "  fun f() {\u00a0init r = 0 in { return r } }\n}\n").encode()
THIRTEEN_PERMISSIONS = b"lattice { levels L; }\npermissions { a, b, c, d, e, f, g, h, i, j, k, l, m }\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nitest", p("leaky.pf"), "--domain", "0..0"], "--domain must offer at least two values"),
        (["run", p("while_loop.pf"), "--entry", "A.sum", "--args", "3", "--fuel", "-5"],
         "--fuel must be non-negative, got -5"),
        (["nitest", p("leaky.pf"), "--fuel", "-5"], "--fuel must be non-negative, got -5"),
        (["nitest", p("leaky.pf"), "--pair-cap", "-1"], "--pair-cap must be non-negative, got -1"),
        (["infer", p("getinfo.pf"), "--emit-annotated", "/nonexistent/x.pf"],
         "cannot write /nonexistent/x.pf"),
        (["nitest", p("identity.pf"), "--domain", f"0..{sys.maxsize}"],
         "--domain range too large"),
        # a bytes argument is the content of the input file, named INPUT
        (["check", NON_UTF8], "cannot read INPUT: 'utf-8' codec can't decode byte 0xff"),
        (["infer", NON_UTF8], "cannot read INPUT: 'utf-8' codec can't decode byte 0xff"),
        (["fmt", NON_UTF8], "cannot read INPUT: 'utf-8' codec can't decode byte 0xff"),
        (["nitest", NON_UTF8], "cannot read INPUT: 'utf-8' codec can't decode byte 0xff"),
        (["infer", LONG_LITERAL], "4:34: integer literal of 5000 digits is too long"),
        (["check", LONG_CONST], "4:17: integer literal of 5000 digits is too long"),
        (["fmt", NON_ASCII_DIGIT], "4:22: unexpected character '\u0660'"),
        (["fmt", NO_BREAK_SPACE], "4:12: unexpected character '\\xa0'"),
        (["check", THIRTEEN_PERMISSIONS], "2:1: too many permissions (13 > 12)"),
        # integer flags are spelled as in the source: ASCII digits only
        (["run", p("while_loop.pf"), "--entry", "A.sum", "--args", "\u0661_0"],
         "bad --args value '\u0661_0'"),
        (["run", p("while_loop.pf"), "--entry", "A.sum", "--args", " 3"],
         "bad --args value ' 3'"),
        (["run", p("while_loop.pf"), "--entry", "A.sum", "--args", "3", "--fuel", " 1_000"],
         "bad --fuel value ' 1_000'"),
        (["nitest", p("leaky.pf"), "--fuel", "1e3"], "bad --fuel value '1e3'"),
        (["nitest", p("leaky.pf"), "--pair-cap", "+5"], "bad --pair-cap value '+5'"),
        (["nitest", p("identity.pf"), "--domain", " \u0660..1_0 "],
         "bad --domain value ' \u0660..1_0 '; expected lo..hi"),
        # the interpreter would wrap 2^64 + 3 to 3
        (["run", p("while_loop.pf"), "--entry", "A.sum", "--args", str((1 << 64) + 3)],
         f"--args value {(1 << 64) + 3} is not a 64-bit integer"),
        (["run", p("while_loop.pf"), "--entry", "A.sum", f"--args={-(1 << 63) - 1}"],
         f"--args value {-(1 << 63) - 1} is not a 64-bit integer"),
    ],
    ids=["domain-one-value", "run-negative-fuel", "nitest-negative-fuel",
         "nitest-negative-pair-cap", "emit-annotated-unwritable", "domain-too-large",
         "check-non-utf8", "infer-non-utf8", "fmt-non-utf8", "nitest-non-utf8",
         "long-literal", "long-const", "non-ascii-digit", "no-break-space",
         "thirteen-permissions",
         "args-arabic-indic", "args-blank", "fuel-underscore", "fuel-exponent",
         "pair-cap-plus", "domain-arabic-indic", "args-past-2-64", "args-below-int64"],
)
def test_bad_arguments_exit_two(capsys, tmp_path, argv, message):
    argv = list(argv)
    if isinstance(argv[1], bytes):
        path = tmp_path / "input.pf"
        path.write_bytes(argv[1])
        argv[1] = str(path)
        message = message.replace("INPUT", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


WRAPS_AT_MIN = """\
lattice { levels L, H; order L < H; }
permissions { }
app A perms {} {
  fun f(y : H) : L {
    init r = 0 in { if y == 0 - 9223372036854775807 - 1 then { r := 1 } else { r := 0 }; return r }
  }
}
"""


def test_domain_past_64_bits_exits_two(capsys, tmp_path):
    # the interpreter would wrap 2^63 to -2^63, where f leaks, so neither
    # the harness nor run takes it
    path = tmp_path / "wrap.pf"
    path.write_text(WRAPS_AT_MIN)
    assert run(capsys, "check", str(path))[0] == 1
    assert run(capsys, "run", str(path), "--entry", "A.f",
               f"--args={-(1 << 63)}")[1].strip() == "1"
    assert run(capsys, "run", str(path), "--entry", "A.f",
               "--args", str(1 << 63))[0] == 2
    for spec in (f"{(1 << 63) - 2}..{1 << 63}", f"{-(1 << 63) - 1}..0"):
        code, out, err = run(capsys, "nitest", str(path), "--observer", "L",
                             f"--domain={spec}")
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: --domain bound ") and "64-bit" in err, err
    code, out, _ = run(capsys, "nitest", str(path), "--observer", "L",
                       "--domain", f"{(1 << 63) - 2}..{(1 << 63) - 1}")
    assert code == 0 and "no violations" in out


def test_huge_domain_is_not_materialised(capsys):
    # a trillion values put every cell over the default pair cap, so none runs
    code, out, err = run(capsys, "nitest", p("identity.pf"), "--json",
                         "--domain", "0..1000000000000")
    assert code == 0 and err == ""
    cells = json.loads(out)["cells"]
    assert cells and {c["verdict"] for c in cells} <= {"inconclusive", "skipped"}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_internal_error_exits_three(capsys, monkeypatch):
    # exit 1 is a negative verdict; a bug must not read as one
    monkeypatch.setattr(cli, "infer_system", _raise(ZeroDivisionError("division by zero")))
    code, out, err = run(capsys, "infer", p("getinfo.pf"), "--json")
    assert code == 3
    assert out == ""
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_interrupt_is_not_an_internal_error(monkeypatch):
    monkeypatch.setattr(cli, "infer_system", _raise(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["infer", p("getinfo.pf")])


@pytest.mark.parametrize("argv", [["infer", "arith.pf", "--json"], ["fmt", "arith.pf"]])
def test_closed_stdout_is_an_io_error(argv):
    # as in `permflow infer arith.pf --json | head -c 10`, but with the
    # reading end closed before the child writes anything
    proc = _child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, err
    assert len(err.splitlines()) <= 1 and err.startswith("error: "), err


def _child(argv, **streams) -> subprocess.Popen:
    """``python -m permflow.cli`` on ``argv``, corpus file names resolved."""
    argv = [p(a) if a.endswith(".pf") else a for a in argv]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "permflow.cli", *argv],
                            env=env, **streams)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


@needs_dev_full
def test_full_stdout_is_an_io_error():
    # as in `permflow infer getinfo.pf --json > /dev/full`
    with open("/dev/full", "w") as full:
        proc = _child(["infer", "getinfo.pf", "--json"], stdout=full,
                      stderr=subprocess.PIPE)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@needs_dev_full
@pytest.mark.parametrize("argv", [["--help"], ["infer", "-h"]])
def test_help_to_full_stdout_is_an_io_error(argv):
    # as in `permflow --help > /dev/full`: argparse drops the write error
    with open("/dev/full", "w") as full:
        proc = _child(argv, stdout=full, stderr=subprocess.PIPE)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: cannot write the output: "), err


@pytest.mark.parametrize("argv", [["--help"], ["infer", "-h"]])
def test_help_exits_zero(argv):
    proc = _child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.startswith(b"usage: permflow") and err == b""


@needs_dev_full
def test_full_stderr_keeps_the_exit_code():
    # as in `permflow check /nonexistent 2> /dev/full`: the error line is
    # lost, the exit code is not
    with open("/dev/full", "w") as full:
        proc = _child(["check", "/nonexistent"], stdout=subprocess.PIPE, stderr=full)
        out = proc.communicate(timeout=60)[0]
    assert proc.returncode == 2
    assert out == b""


def test_back_to_back_calls_answer_as_fresh_processes(capsys, monkeypatch):
    # in-process callers such as the benchmark call main back to back; each
    # call must give the exit code and bytes of a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    calls = [
        ["infer", p("getinfo.pf")],
        ["nitest", p("leaky.pf"), "--domain", "0..1"],
        ["check", p("getsecret.pf"), "--no-such-flag"],
        ["check", p("getsecret.pf")],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse exits on a usage error
            code = e.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "permflow.cli", *argv],
                               capture_output=True, env=env, timeout=60)
        assert (code, got.out.encode(), got.err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 1, 2, 0]
