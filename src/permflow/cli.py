"""Command-line front door.

Exit codes: 0 = success / well-typed / no violation; 1 = negative analysis
verdict (type error, unsatisfiable constraints, noninterference violation);
2 = usage, IO, parse, or validation error, including a stdout that the
reader closed early or that cannot take the output; 3 = internal error (an
unexpected exception, reported as one ``internal error: <Type>: <message>``
line on stderr). JSON mode emits one document on stdout with deterministic
key order and no timestamps, in the bytes of ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from .basetypes import format_function_type
from .inference import CheckReport, InferUnsat, annotate, check_system, infer_system
from .interp import DEFAULT_FUEL, FuelExhausted, call_function
from .nitest import DEFAULT_PAIR_CAP, NIReport, nitest_system
from .parser import ParseError, parse_system
from .system import CheckedSystem, ValidationError, to_source, validate_system


# The interpreter recurses once per call level, so a long enough call chain
# exhausts the Python stack.
TOO_DEEP = "call chain too deep for the interpreter"


class SystemExit2(Exception):
    """Raised for usage, IO, parse, and validation failures (exit code 2)."""


def _load(path: str) -> CheckedSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SystemExit2(f"cannot read {path}: {e}")
    try:
        sys_ = parse_system(text)
        return validate_system(sys_)
    except (ParseError, ValidationError) as e:
        raise SystemExit2(str(e))


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a document of
    dicts with string keys, lists, tuples, strings, ints, bools, None and
    floats. With ``indent`` set the stdlib encodes in pure Python; this
    writer leaves only the string escaping, done in C, per value."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    return "".join(out)


# what json.dumps writes for the floats that JSON has no number for
_FLOAT_WORDS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _write_json(o, nl: str, out: list[str]) -> None:
    """Append ``o`` to ``out``; ``nl`` is the newline and indent of the
    line ``o`` starts on."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, not {k.__class__.__name__}")
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit(doc, as_json: bool, human_lines) -> None:
    if as_json:
        print(json_text(doc))
    else:
        for line in human_lines:
            print(line)


def _type_table(t, csys) -> dict:
    name = csys.lattice.name
    return {label: name(v) for label, v in zip(csys.universe.set_labels, t.table)}


def _violation_doc(err, csys) -> dict:
    doc = {
        "kind": err.kind,
        "message": err.message,
        "span": {"line": err.span.line, "col": err.span.col},
        "trace": err.trace.format(csys.universe.names),
    }
    if err.lhs is not None:
        doc["lhs"] = _type_table(err.lhs, csys)
    if err.rhs is not None:
        doc["rhs"] = _type_table(err.rhs, csys)
    if err.witness is not None:
        doc["witness"] = csys.universe.format_set(err.witness)
    return doc


def cmd_check(args) -> int:
    csys = _load(args.file)
    report: CheckReport = check_system(csys)
    doc = {
        "command": "check",
        "file": args.file,
        "ok": report.ok,
        "functions": [
            {
                "name": v.function,
                "ok": v.ok,
                **({"error": _violation_doc(v.error, csys)} if v.error else {}),
            }
            for v in report.verdicts
        ],
    }
    lines = []
    for v in report.verdicts:
        if v.ok:
            lines.append(f"{v.function}: ok")
            continue
        err = v.error
        lines.append(f"{v.function}: FAIL {err.kind} at {err.span}: {err.message}")
        if err.witness is not None:
            under = (
                f" under trace {err.trace.format(csys.universe.names)}"
                if err.trace.support
                else ""
            )
            lines.append(
                f"  witness permission set {csys.universe.format_set(err.witness)}{under}"
            )
    lines.append("well-typed" if report.ok else "ill-typed")
    _emit(doc, args.json, lines)
    return 0 if report.ok else 1


def cmd_infer(args) -> int:
    csys = _load(args.file)
    try:
        result = infer_system(csys)
    except InferUnsat as e:
        doc = {
            "command": "infer",
            "file": args.file,
            "ok": False,
            "unsat": {
                "functions": e.functions,
                "message": e.reason,
                "core": [
                    {
                        "rule": c.provenance.rule,
                        "line": c.provenance.span.line,
                        "col": c.provenance.span.col,
                        "function": owner,
                        "what": c.provenance.describe(),
                    }
                    for owner, c in e.core
                ],
            },
        }
        _emit(doc, args.json, [f"unsatisfiable: {e}"])
        return 1

    funs = []
    lines = []
    for f in result.functions:
        entry = {
            "name": f.function,
            "inferred": f.inferred,
            "params": [_type_table(t, csys) for t in f.type.params],
            "return": _type_table(f.type.ret, csys),
            "signature": format_function_type(f.type, csys.universe),
            "constraints": f.constraint_count,
        }
        funs.append(entry)
        lines.append(f"{f.function} : {entry['signature']}")
    doc = {"command": "infer", "file": args.file, "ok": True, "functions": funs}
    if args.timings:
        doc["timings"] = result.stage_timings

    if args.emit_annotated:
        annotated_src = to_source(annotate(csys, result.types()))
        try:
            with open(args.emit_annotated, "w", encoding="utf-8") as fh:
                fh.write(annotated_src)
        except OSError as e:
            raise SystemExit2(f"cannot write {args.emit_annotated}: {e}")
        lines.append(f"annotated source written to {args.emit_annotated}")

    _emit(doc, args.json, lines)
    return 0


def cmd_run(args) -> int:
    fuel = _count("--fuel", args.fuel)
    csys = _load(args.file)
    if args.entry not in csys.fd:
        raise SystemExit2(f"unknown entry function {args.entry}")
    arg_values = []
    if args.args:
        try:
            arg_values = [_integer(a) for a in args.args.split(",")]
        except ValueError:
            raise SystemExit2(f"bad --args value {args.args!r}")
        for v in arg_values:
            _require_64_bit("--args value", v)
    perms = _parse_perms(args.caller_perms, csys)
    try:
        value = call_function(csys, args.entry, arg_values, perms, fuel)
    except FuelExhausted:
        _emit(
            {"command": "run", "file": args.file, "error": "fuel exhausted"},
            args.json,
            ["fuel exhausted"],
        )
        return 1
    except ValueError as e:
        raise SystemExit2(str(e))
    except RecursionError:
        raise SystemExit2(TOO_DEEP) from None
    _emit(
        {"command": "run", "file": args.file, "entry": args.entry, "result": value},
        args.json,
        [str(value)],
    )
    return 0


def cmd_nitest(args) -> int:
    fuel = _count("--fuel", args.fuel)
    pair_cap = _count("--pair-cap", args.pair_cap)
    csys = _load(args.file)
    lat = csys.lattice

    if any(d.annotation is None for d in csys.fd.values()):
        try:
            result = infer_system(csys)
        except InferUnsat as e:
            raise SystemExit2(f"cannot infer types for noninterference test: {e}")
        csys = annotate(csys, result.types())

    observers = None
    if args.observer is not None:
        try:
            observers = (lat.level(args.observer),)
        except ValueError as e:
            raise SystemExit2(str(e))
    domain = _parse_domain(args.domain)
    try:
        report: NIReport = nitest_system(
            csys,
            observers=observers,
            domain=domain,
            fuel=fuel,
            pair_cap=pair_cap,
            strict=args.strict,
        )
    except RecursionError:
        raise SystemExit2(TOO_DEEP) from None
    cells = []
    lines = []
    for c in report.cells:
        entry = {
            "function": c.function,
            "P": csys.universe.format_set(c.perms),
            "observer": lat.name(c.observer),
            "pairs_tested": c.pairs_tested,
            "verdict": c.verdict,
        }
        if c.note:
            entry["note"] = c.note
        if c.witness:
            entry["witness"] = {
                "env1": c.witness.env1,
                "env2": c.witness.env2,
                "out1": c.witness.out1,
                "out2": c.witness.out2,
            }
        cells.append(entry)
        if c.verdict != "ok":
            lines.append(
                f"{c.function} P={entry['P']} observer={entry['observer']}: "
                f"{c.verdict}"
                + (f" ({c.note})" if c.note else "")
            )
    ok = report.ok
    doc = {"command": "nitest", "file": args.file, "ok": ok, "cells": cells}
    lines.append("no violations" if ok else "VIOLATION found")
    _emit(doc, args.json, lines)
    return 0 if ok else 1


def cmd_fmt(args) -> int:
    csys = _load(args.file)
    src = to_source(csys)
    if args.json:
        print(json_text({"command": "fmt", "file": args.file, "source": src}))
    else:
        print(src, end="")
    return 0


def _parse_perms(spec: str | None, csys) -> int:
    names = (name.strip() for name in (spec or "").split(","))
    try:
        return csys.universe.mask_of(name for name in names if name)
    except ValueError as e:
        raise SystemExit2(str(e))


def _parse_domain(spec: str) -> range:
    try:
        lo, hi = spec.split("..")
        lo_i, hi_i = _integer(lo), _integer(hi)
    except ValueError:
        raise SystemExit2(f"bad --domain value {spec!r}; expected lo..hi")
    for bound in (lo_i, hi_i):
        _require_64_bit("--domain bound", bound)
    if hi_i < lo_i:
        raise SystemExit2("empty --domain range")
    if hi_i == lo_i:
        raise SystemExit2("--domain must offer at least two values")
    if hi_i - lo_i >= sys.maxsize:
        raise SystemExit2("--domain range too large")
    return range(lo_i, hi_i + 1)


# an integer as the source language writes one: ASCII digits, here with an
# optional minus sign
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The integer that ``text`` spells, or ValueError."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _count(flag: str, text: str) -> int:
    """The non-negative integer that ``flag``'s value ``text`` spells."""
    try:
        value = _integer(text)
    except ValueError:
        raise SystemExit2(f"bad {flag} value {text!r}") from None
    if value < 0:
        raise SystemExit2(f"{flag} must be non-negative, got {value}")
    return value


def _require_64_bit(what: str, value: int) -> None:
    # the interpreter wraps values to 64 bits, so a wider one would name an
    # input twice
    if not -(1 << 63) <= value < 1 << 63:
        raise SystemExit2(f"{what} {value} is not a 64-bit integer")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help text reaches stdout or fails.

    ``argparse`` drops an ``OSError`` from writing help; this one lets it
    out of ``parse_args``, so that ``main`` reports it like any output
    error. Its sub-parsers are of this class too.
    """

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="permflow",
        description="permission-dependent information-flow analysis",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system source file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="type-check a fully annotated system")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("infer", help="infer function types")
    common(p)
    p.add_argument("--emit-annotated", metavar="PATH",
                   help="write the source back with inferred annotations")
    p.add_argument("--timings", action="store_true",
                   help="include stage timings in the JSON report: generate "
                        "and solve")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("run", help="execute one function call")
    common(p)
    p.add_argument("--entry", required=True, metavar="A.f")
    p.add_argument("--args", default="", metavar="1,2")
    p.add_argument("--caller-perms", default="", metavar="p,q")
    p.add_argument("--fuel", default=str(DEFAULT_FUEL))
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("nitest", help="run the noninterference harness")
    common(p)
    p.add_argument("--observer", metavar="LEVEL",
                   help="observer level (default: every level)")
    p.add_argument("--domain", default="0..2", metavar="lo..hi")
    p.add_argument("--fuel", default=str(DEFAULT_FUEL))
    p.add_argument("--pair-cap", default=str(DEFAULT_PAIR_CAP))
    p.add_argument("--strict", action="store_true",
                   help="also test cells whose return type is unobservable")
    p.set_defaults(fn=cmd_nitest)

    p = sub.add_parser("fmt", help="pretty-print a system")
    common(p)
    p.set_defaults(fn=cmd_fmt)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)  # help and usage errors exit here
        code = args.fn(args)
        sys.stdout.flush()  # so that a failing stdout fails here, not at exit
        return code
    except SystemExit2 as e:
        _warn(f"error: {e}")
        return 2
    except OSError as e:
        # the commands report their own files' errors, so this is stdout's:
        # a reader that went away, as in ``permflow ... | head``, or a full
        # device
        _silence_stdout()
        _warn(f"error: cannot write the output: {e}")
        return 2
    except Exception as e:  # a bug, never a verdict; BaseException passes
        _warn(f"internal error: {type(e).__name__}: {e}")
        return 3


def _warn(line: str) -> None:
    """Print ``line`` on stderr if stderr takes it."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def _silence_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the flush
    at interpreter exit neither fails nor reports the failure again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
