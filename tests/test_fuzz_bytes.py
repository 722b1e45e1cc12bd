"""Byte-level mutation fuzz of the CLI over the corpus.

Flipped, inserted and deleted bytes and truncations of ``programs/*.pf``
must never make ``check``, ``infer``, ``fmt`` or ``nitest`` escape with an
exception or exit outside 0-2. Whatever ``fmt`` accepts, it prints as a
fixed point: the output re-parses and formats to the same text.
"""

import contextlib
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from permflow.cli import main
from permflow.parser import parse_system
from permflow.system import to_source, validate_system

PROGRAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "programs")
CORPUS = sorted(n for n in os.listdir(PROGRAMS) if n.endswith(".pf"))
COMMANDS = (
    ("check",),
    ("infer",),
    ("fmt",),
    ("nitest", "--fuel", "1000", "--pair-cap", "1000"),
)

# (operation, position, argument); positions wrap around the current length
EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.just(0)),
)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, arg in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), arg)
        elif not buf:
            continue
        elif op == "flip":
            buf[pos % len(buf)] ^= 1 << arg
        elif op == "delete":
            i = pos % len(buf)
            del buf[i:i + arg]
        else:
            del buf[pos % len(buf):]
    return bytes(buf)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(name=st.sampled_from(CORPUS), edits=st.lists(EDITS, min_size=1, max_size=4))
def test_mutated_corpus_files_exit_cleanly(tmp_path_factory, name, edits):
    with open(os.path.join(PROGRAMS, name), "rb") as fh:
        data = mutate(fh.read(), edits)
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(data)
    for cmd in COMMANDS:
        code, out = run([cmd[0], str(path), *cmd[1:]])
        assert code in (0, 1, 2), (cmd, data)
        if cmd[0] == "fmt" and code == 0:
            assert to_source(validate_system(parse_system(out))) == out, data
