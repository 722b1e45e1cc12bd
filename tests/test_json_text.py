"""``cli.json_text`` writes the bytes of ``json.dumps(doc, indent=2)``.

Checked on derandomized random documents and on the document of every
corpus command, ``infer --timings`` included.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permflow.cli import json_text, main

from .test_fuzz_bytes import CORPUS, PROGRAMS

# characters that JSON escapes or that ASCII output must spell out
AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
                           "é", " ", "\U0001f600", "\ud800", "\udfff"])
STRINGS = st.lists(st.one_of(st.characters(), AWKWARD), max_size=8).map("".join)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=True, allow_infinity=True),
    STRINGS,
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=DOCS)
def test_random_documents(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -0.0, 1e300, 5e-324, True, False, None,
    {"": {}}, [[[]]], {"a": [True, 1, 1.0, None, False, 0]},
])
def test_small_documents(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_only_string_keys():
    with pytest.raises(TypeError):
        json_text({1: "x"})
    with pytest.raises(TypeError):
        json_text({"x": object()})


COMMANDS = (
    ("check", "--json"),
    ("infer", "--json", "--timings"),
    ("nitest", "--json"),
    ("fmt", "--json"),
)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_documents(name):
    path = os.path.join(PROGRAMS, name)
    for cmd in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main([cmd[0], path, *cmd[1:]])
        text = out.getvalue()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n", (cmd, name)
        assert json_text(doc) == text[:-1], (cmd, name)
