"""Random flags on every subcommand keep the exit-code contract.

Each draw runs ``cli.main`` on a corpus file (now and then a missing file or
a directory) with a random subset of its subcommand's flags, each value
drawn from a fixed table of good and bad ones: negative, huge, empty,
past 64 bits, spelled with blanks, underscores or non-ASCII digits,
reversed or one-value ``--domain``, an unknown level, permission or entry,
and an ``--emit-annotated`` path that is a directory. Whatever the draw,
the exit code is 0 or 1 with nothing on stderr, or 2 with exactly one
``error:`` line, and never a traceback.
"""

import contextlib
import glob
import io
import os
import random

from permflow.cli import main
from permflow.parser import parse_system

from .conftest import SEED

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")
HUGE = "9" * 40
SMALL_FUEL = ("0", "1", "100")
# spellings that Python's int takes but the source language does not, and
# the first integers past 64 bits on either side
ODD = ("1_0", " 5", "\u0663")
PAST_64_BITS = ("18446744073709551619", "-9223372036854775809")

FUEL = ("0", "1", "100", "-1", "", "x", HUGE, *ODD)
FLAGS = {
    "check": {},
    "infer": {
        "--timings": None,
        "--emit-annotated": ("<file>", "<dir>", "<missing>/out.pf", ""),
    },
    "run": {
        "--entry": ("<entry>", "<entry>", "Z.nope", "", "A", "A."),
        "--args": ("", "0", "1", "2,1", "-1", "x", ",", "1,,2", " 1 ", HUGE, "-" + HUGE,
                   *ODD, *PAST_64_BITS),
        "--caller-perms": ("", "<perm>", "<perm>,<perm>", "zz", ",", " <perm> "),
        "--fuel": FUEL,
    },
    "nitest": {
        "--observer": ("<level>", "L", "H", "ZZ", ""),
        "--domain": ("0..2", "-3..3", "2..0", "1..1", "0..", "..", "", "a..b",
                     "0.." + HUGE, "0..1_0", " 0..5", "0..\u0663",
                     *(f"0..{b}" for b in PAST_64_BITS)),
        "--fuel": FUEL,
        "--pair-cap": ("0", "1", "100", "-1", "", HUGE, *ODD),
        "--strict": None,
    },
    "fmt": {},
}


def _value(rnd, token, csys, tmp_path):
    if csys is not None:
        token = token.replace("<entry>", rnd.choice(list(csys.fd)))
        token = token.replace("<perm>", rnd.choice(csys.universe.names))
        token = token.replace("<level>", csys.lattice.name(rnd.randrange(len(csys.lattice))))
    return (token.replace("<file>", str(tmp_path / "out.pf"))
                 .replace("<dir>", str(tmp_path))
                 .replace("<missing>", str(tmp_path / "missing")))


def _draw(rnd, files, tmp_path):
    command = rnd.choice(list(FLAGS))
    roll = rnd.random()
    path = (str(tmp_path) if roll < 0.03
            else str(tmp_path / "missing.pf") if roll < 0.06
            else rnd.choice(files))
    csys = None
    if path in files:
        with open(path, encoding="utf-8") as fh:
            csys = parse_system(fh.read())
    chosen = {}
    for flag, table in FLAGS[command].items():
        if rnd.random() < (0.9 if flag == "--entry" else 0.5):  # --entry is required
            chosen[flag] = None if table is None else _value(rnd, rnd.choice(table), csys, tmp_path)
    # Draws that are genuinely long computations, not faults: a loop over a
    # huge argument under the default million steps of fuel, and a huge
    # domain under a huge pair cap.
    if HUGE in chosen.get("--args", ""):
        chosen["--fuel"] = rnd.choice(SMALL_FUEL)
    if HUGE in chosen.get("--domain", "") and chosen.get("--pair-cap") == HUGE:
        del chosen["--pair-cap"]
    argv = [command, path]
    if rnd.random() < 0.5:
        argv.append("--json")
    for flag, value in chosen.items():
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


def test_random_flags_keep_the_exit_code_contract(tmp_path):
    rnd = random.Random(SEED + 13)
    files = sorted(glob.glob(os.path.join(PROGRAMS, "*.pf")))
    codes = set()
    for i in range(1000):
        argv = _draw(rnd, files, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the command line
                code = e.code
        err = err.getvalue()
        assert "Traceback" not in err, (i, argv, err)
        assert code in (0, 1, 2), (i, argv, code, err)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (i, argv, err)
        else:
            assert err == "", (i, argv, err)
        codes.add(code)
    assert codes == {0, 1, 2}
