"""The one-match-per-lexeme tokenizer that ``parser.tokenize`` replaced.

It matches layout, each comment and each token on its own and builds every
token's span as it goes. ``parser.tokenize`` must give the same
``(kind, text, span)`` list, or raise a ParseError with the same message
and span; ``tests/test_tokenizer.py`` checks that.
"""

import re

from permflow.parser import ParseError
from permflow.syntax import Span

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|==|[{}(),;:=<.\+\-\*])
    """,
    re.VERBOSE,
)


def slow_tokenize(text: str) -> list[tuple[str, str, Span]]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", Span(line, col))
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, lexeme, Span(line, col)))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", Span(line, col)))
    return tokens
