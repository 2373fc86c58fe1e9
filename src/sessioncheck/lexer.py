"""Tokenizer shared by the `.ssn` and `.trace` grammars.

One compiled master regex scans the whole text in one ``findall``, with
one match per token and three groups per match: the gap (whitespace and
``--`` line comments) before the token, the token's text, and a string's
closing quote. A token's text is a word, an int, a string, punctuation,
one bad character, or empty at the end of the text. The gap and a string's
body are written as unrolled loops (see ``_MASTER``).

``tokenize`` turns the scan into parallel lists, one entry per token: a
token is a kind, a text and a start offset, with no object per token and
no value. The lists are built by C-level passes over the scan: the offsets
add up the gap and text lengths with ``itertools.accumulate``, and a
keyword's or punctuation token's kind is its text, looked up in ``_KIND``
through ``map``. One Python loop then visits only the tokens that lookup
missed; there, a token's kind follows from its first character
(``_FIRST``): a letter gives ``ident``, a digit ``int``, ``"`` ``string``,
the empty text ``eof``, and anything else is a bad character. That loop
finds every lex error. The parser makes an int's or a string's value from
the token's text, as the trace reader does.

No token carries a line or column. ``tokenize`` also returns the text's
``line_starts`` table, which every span and error of a parse shares: a
``Span`` is a start offset, a length and that table, and ``position``
(both beside ``Span`` in ``model``) finds its line and column with
``bisect`` only where they are read, not for each of the 6,382 spans made
for the 15,345 tokens of the ``deep_path`` benchmark's protocol. Only
``\n`` ends a line, so ``\r`` and a tab each take one column.

Strings are double-quoted with ``\"`` and ``\\`` escapes and end at a
newline; only a string that holds a backslash is searched for bad
escapes or decoded (``string_value``). Errors do not stop the scan; a
string with a bad escape or no closing quote and a bad character yield
no token. A lex error is a ``Diagnostic`` with the ``parse`` code, made
by ``parse_error`` as the parser's errors are, so the parser adds it to
its own list as it stands and the CLI reports it as it reports a checker
finding. The trace reader walks the same scan's tuples (see
``traces``) and decodes strings with ``string_value``, so a trace has no
token syntax of its own.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import accumulate, compress, count
from operator import add, not_, sub

from .diagnostics import ERROR, Diagnostic
from .model import IDENT, Span, line_starts

__all__ = ["KEYWORDS", "parse_error", "string_value", "tokenize"]

KEYWORDS = frozenset(
    [
        "roles",
        "type",
        "protocol",
        "entry",
        "msg",
        "dep",
        "send",
        "read",
        "rec",
        "call",
        "then",
        "end",
        "by",
        "where",
        "literal",
        "next",
        "and",
        "or",
        "true",
        "false",
        "Int",
        "Bool",
        "Str",
    ]
)

# Longest match first. `--` is not here: it starts a comment, which the
# prefix of each match takes before punctuation is tried.
_PUNCT = [
    "->", "=>", "==", "!=", "<=",
    "<", ">", "[", "]", "{", "}", "(", ")", ",", ";", ":", "|", "=", ".", "+", "-", "*", "!", "_",
]

# A keyword or punctuation token is its own kind.
_KIND = {text: text for text in (*KEYWORDS, *_PUNCT)}
# Any other token's kind follows from its first character; the end of the
# text is the one empty token, and any other character is `bad`.
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FIRST = {**dict.fromkeys(_LETTERS, "ident"), **dict.fromkeys("0123456789", "int"), '"': "string", "": "eof"}

# Three groups: the gap (whitespace and `--` line comments before a token),
# the token's text, and a string's closing quote, which is there only if
# the line has one. Identifiers and numbers are ASCII only: unicode letters
# and digits fall through to `bad` instead of being accepted the way \w or
# \d would. A string's body keeps a backslash not followed by `"` or `\`
# for the error. The gap and the string body are written unrolled,
# `plain*(?:special plain*)*`, rather than as a loop over alternatives: the
# engine then takes each run of plain characters (an indent, the text
# between two escapes) in one tight loop, with no choice point per
# character, and matches the same text, as only `special` can start another
# round. Punctuation is the multi-character operators, longest first, then
# one class of the single characters. Since the end of the text or a bad
# character matches wherever the gap ends, a match never backtracks into the
# gap. The end is the one alternative that takes no character.
_MASTER = re.compile(
    r"([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)(" + IDENT
    + r"|[0-9]+"
    r'|"[^"\\\n]*(?:\\["\\]?[^"\\\n]*)*(")?'
    r"|" + "|".join(re.escape(p) for p in _PUNCT if len(p) > 1)
    + "|[" + "".join(re.escape(p) for p in _PUNCT if len(p) == 1) + "]"
    r"|\Z|.)",
    re.DOTALL,
)

# Inside a string body: a backslash and the character it escapes, which is
# empty for a backslash not followed by `"` or `\`.
_ESCAPE = re.compile(r'\\(["\\]?)')


def parse_error(offset: int, starts: Sequence[int], message: str) -> Diagnostic:
    """The record of a lex or parse error at ``offset`` of the text with line table ``starts``."""
    return Diagnostic("parse", ERROR, Span(offset, 1, starts), message)


def string_value(body: str) -> str | None:
    """The value of a string literal with this body, or None if the body
    holds a bad escape. Only a body with a backslash runs the escape regex."""
    if "\\" not in body:
        return body
    if "" in _ESCAPE.findall(body):
        return None
    return _ESCAPE.sub(r"\1", body)


def tokenize(text: str) -> tuple[list[str], Sequence[str], list[int], list[Diagnostic], list[int]]:
    """The tokens of ``text`` as parallel lists, its lex errors and its
    ``line_starts`` table, which the errors' spans share.

    Token ``i`` is a kind ``kinds[i]`` (a keyword's or punctuation token's
    text, or ``ident``, ``int``, ``string`` or ``eof``), a text
    ``texts[i]`` and a start offset ``offsets[i]``. The last token is the
    one ``eof``. A string token is well formed; the parser reads an int's
    or a string's value from its text.
    """
    scan = _MASTER.findall(text)
    if len(scan) > 1 and not scan[-2][1]:
        # After a match that reaches the end, `\Z` matches once more, empty;
        # only the first empty match is the end.
        del scan[-1]
    gaps, texts, closes = zip(*scan)
    lengths = list(map(len, texts))
    offsets = list(map(sub, accumulate(map(add, map(len, gaps), lengths)), lengths))
    starts = line_starts(text)
    kinds: list = list(map(_KIND.get, texts))
    faults: list[tuple[int, str]] = []  # (index, message) of each lex error
    for i in compress(count(), map(not_, kinds)):  # the tokens `_KIND` missed
        tok = texts[i]
        kind = kinds[i] = _FIRST.get(tok[:1], "bad")
        if kind == "string":
            close = closes[i]
            if "\\" in tok:
                body = tok[1:-1] if close else tok[1:]
                faults.extend([(i, "invalid string escape")] * _ESCAPE.findall(body).count(""))
            if not close:
                faults.append((i, "unterminated string literal"))
        elif kind == "bad":
            faults.append((i, f"unexpected character {tok!r}"))
    if not faults:
        return kinds, texts, offsets, [], starts
    # A string or character that gave an error yields no token.
    errors = [parse_error(offsets[i], starts, message) for i, message in faults]
    keep = [True] * len(kinds)
    for i, _ in faults:
        keep[i] = False
    kinds, texts, offsets = (list(compress(tokens, keep)) for tokens in (kinds, texts, offsets))
    return kinds, texts, offsets, errors, starts
