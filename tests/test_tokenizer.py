"""``parser.tokenize`` against the slow tokenizer it replaced.

On the corpus, on printed random systems, on hand-picked edge texts and on
byte mutants of the corpus, both must give the same ``(kind, text, span)``
list, or a ParseError with the same message and span.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permflow.parser import ParseError, tokenize
from permflow.syntax import NO_SPAN, Span
from permflow.system import to_source

from .conftest import SEED
from .progen import _Gen
from .slow_tokenizer import slow_tokenize
from .test_fuzz_bytes import CORPUS, EDITS, PROGRAMS, mutate


def _triples(text):
    return [(t.kind, t.text, t.span) for t in tokenize(text)]


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return ("error", str(e), e.span)


def assert_same_tokens(text):
    assert _outcome(_triples, text) == _outcome(slow_tokenize, text), repr(text)


def _corpus_text(name):
    with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_and_edited_ends_and_line_breaks(name):
    text = _corpus_text(name)
    for edited in (text, "$" + text, text + "$", text.rstrip("\n") + "$",
                   text + "// no newline", text + "#", "\r\n" + text,
                   text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                   text.replace("\n", "\n\r"), text.replace("  ", "\t")):
        assert_same_tokens(edited)


def test_printed_random_systems():
    rnd = random.Random(SEED)
    for _ in range(300):
        assert_same_tokens(to_source(_Gen(rnd).system()))


EDGE_TEXTS = [
    "",
    " ",
    "\n",
    "\r\n",
    "x",
    "$",
    "$lattice",
    "lattice $",
    "lattice$",
    "a\r\nb\rc\n\rd\n\ne",
    "a \t\r\n\t b",
    "\r\r\n\n\r x := 1",
    "x // comment at the end",
    "x # comment at the end",
    "x //",
    "x #",
    "// only a comment",
    "x // one\r\n# two\n  y",
    "x / y",
    "x /",
    "12ab 0 007",
    ":= == : = < . + - * { } ( ) , ;",
    ":==",
    "a\x0bb",
    "a\x0cb",
    "\u00e9",
    "x \u0663",
    "x\u00a0y",
    "x\ud800",
    "\ufeffx",
    "x\x00",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts(text):
    assert_same_tokens(text)


# bytes that change line and column counting, comments and bad characters
LAYOUT_INSERTS = st.tuples(st.just("insert"), st.integers(0, 1 << 16),
                           st.sampled_from(b"\r\n\t /#$\x00\xff"))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(name=st.sampled_from(CORPUS),
       edits=st.lists(st.one_of(EDITS, LAYOUT_INSERTS), min_size=1, max_size=6))
def test_mutated_corpus(name, edits):
    data = mutate(_corpus_text(name).encode("utf-8"), edits)
    assert_same_tokens(data.decode("utf-8", errors="replace"))


def test_span_is_a_value():
    assert Span() == NO_SPAN == Span(0, 0)
    assert Span(3, 5) == Span(3, 5) and hash(Span(3, 5)) == hash(Span(3, 5))
    assert Span(3, 5) != Span(5, 3)
    assert Span(3, 5) != (3, 5)
    assert str(Span(3, 5)) == "3:5"
    assert Span(col=2, line=1).line == 1
    assert len({Span(1, 1), Span(1, 1), Span(1, 2)}) == 2
