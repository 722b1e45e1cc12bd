"""Byte-identity of the CLI on the corpus.

For every ``programs/*.pf`` and each of ``infer --json``, ``check --json``,
``fmt``, ``nitest --json`` and ``nitest --json --strict``, the stdout,
stderr and exit code of the in-process ``cli.main`` must equal the recorded
ones in ``golden_cli.json``; so must the exit code of ``infer
--emit-annotated`` and the text of the file it writes (``null`` when it
writes none). Regenerate the file only for an intended output change, with
``PYTHONPATH=src python -m tests.test_golden_cli``; it prints the keys
whose entries changed, were added or were removed.
"""

import contextlib
import io
import json
import os
import tempfile

from permflow.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
COMMANDS = (
    ("infer", "--json"),
    ("check", "--json"),
    ("fmt",),
    ("nitest", "--json"),
    ("nitest", "--json", "--strict"),
)


def _programs() -> list[str]:
    names = sorted(n for n in os.listdir(os.path.join(ROOT, "programs")) if n.endswith(".pf"))
    return [f"programs/{n}" for n in names]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _emit_annotated(path: str, tmp: str) -> dict:
    """The exit code of ``infer --emit-annotated`` and the text it writes;
    stdout is left out because it names the temporary file."""
    target = os.path.join(tmp, "annotated.pf")
    code, _, _ = _run(["infer", path, "--json", "--emit-annotated", target])
    if not os.path.exists(target):
        return {"exit": code, "annotated": None}
    with open(target, "r", encoding="utf-8") as fh:
        text = fh.read()
    os.remove(target)
    return {"exit": code, "annotated": text}


def _record() -> dict:
    """Run every command on every corpus file from the repository root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        doc = {}
        with tempfile.TemporaryDirectory() as tmp:
            for path in _programs():
                for cmd in COMMANDS:
                    code, out, err = _run([cmd[0], path, *cmd[1:]])
                    doc[" ".join((cmd[0], path, *cmd[1:]))] = {
                        "exit": code, "stdout": out, "stderr": err,
                    }
                doc[f"infer {path} --emit-annotated"] = _emit_annotated(path, tmp)
        return doc
    finally:
        os.chdir(cwd)


def test_corpus_cli_output_unchanged():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    got = _record()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def _changed_keys(old: dict, new: dict) -> list[str]:
    """The keys whose entries differ between two recordings, each marked
    ``+`` (added), ``-`` (removed) or ``~`` (changed), in sorted order."""
    out = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            out.append(f"+ {key}")
        elif key not in new:
            out.append(f"- {key}")
        elif old[key] != new[key]:
            out.append(f"~ {key}")
    return out


if __name__ == "__main__":
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            old = json.load(fh)
    new = _record()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = _changed_keys(old, new)
    for line in changed:
        print(line)
    print(f"{len(changed)} of {len(new)} entries changed")
