"""Tokenizer shared by the `.ssn` and `.trace` grammars.

One compiled master regex scans the text with one match per token, as in
the "Writing a Tokenizer" recipe of the ``re`` docs. Each match starts with
the whitespace and ``--`` line comments before the token, then takes the
first named alternative that matches: a word, an int, a string, punctuation,
the end of the text (``eof``), or any one bad character. Only that prefix
can span a newline, so the line of a token is the count of newlines before
it and its column follows from the offset of the last one. Strings are
double-quoted with ``\\"`` and ``\\\\`` escapes and end at a newline; only a
string that holds a backslash is decoded. Errors do not stop the scan; a
string with a bad escape or no closing quote yields no token. A lex error
is a ``Diagnostic`` with the ``parse`` code, made by ``parse_error`` as the
parser's errors are, so the parser adds it to its own list as it stands
and the CLI reports it as it reports a checker finding. ``GAP``, ``STRING``
and ``string_value`` are shared with the parser's trace reader, so that it
reads a token as this scan does.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import ERROR, Diagnostic
from .model import IDENT, Span

__all__ = ["Token", "GAP", "KEYWORDS", "STRING", "parse_error", "string_value", "tokenize"]

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

# The whitespace and `--` line comments before a token. It takes
# whitespace in runs, so a long indent is one step of the regex engine, not
# one per character.
GAP = r"(?:[ \t\r\n]+|--[^\n]*)*"
# A string literal: its body, where a backslash not followed by `"` or `\`
# is kept for the error, and the closing quote if the line has one.
STRING = r'(?P<string>"(?P<body>(?:\\["\\]|\\|[^"\\\n])*)(?P<close>")?)'

# Identifiers and numbers are ASCII only: unicode letters and digits fall
# through to `bad` instead of being accepted the way \w or \d would. Since
# `eof` or `bad` matches wherever the gap ends, a match never backtracks
# into the gap.
_MASTER = re.compile(
    GAP + r"(?:(?P<word>" + IDENT + ")"
    r"|(?P<int>[0-9]+)"
    r"|" + STRING +
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)

# Inside a string body: a backslash and the character it escapes, which is
# empty for a backslash not followed by `"` or `\`.
_ESCAPE = re.compile(r'\\(["\\]?)')


class Token(NamedTuple):
    kind: str  # keyword text, punct text, or one of: ident, int, string, eof
    text: str
    # str for ident/string, int for int, None otherwise; also None for an
    # int literal longer than the interpreter converts (the parser reports it)
    value: object
    line: int
    col: int
    offset: int


def parse_error(line: int, col: int, message: str) -> Diagnostic:
    """The record of a lex or parse error at ``line``:``col``."""
    return Diagnostic("parse", ERROR, Span(line, col), message)


def string_value(body: str) -> str | None:
    """The value of a string literal with this body, or None if the body
    holds a bad escape. Only a body with a backslash runs the escape regex."""
    if "\\" not in body:
        return body
    if "" in _ESCAPE.findall(body):
        return None
    return _ESCAPE.sub(r"\1", body)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    errors: list[Diagnostic] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        gap = m.start()
        start = m.start(kind)
        if start != gap and (newlines := text.count("\n", gap, start)):
            line += newlines
            line_start = text.rindex("\n", gap, start) + 1
        col = start - line_start + 1
        lexeme = m[kind]
        if kind == "word" and lexeme not in KEYWORDS:
            append(new(Token, ("ident", lexeme, lexeme, line, col, start)))
        elif kind == "word" or kind == "punct":  # a keyword or punctuation token is its own kind
            append(new(Token, (lexeme, lexeme, None, line, col, start)))
        elif kind == "int":
            try:
                value = int(lexeme)
            except ValueError:  # past sys.get_int_max_str_digits()
                value = None
            append(new(Token, ("int", lexeme, value, line, col, start)))
        elif kind == "eof":
            # After a match that reaches the end, `\Z` matches once more,
            # empty; only the first of these makes the 'eof' token.
            append(new(Token, ("eof", "", None, line, col, start)))
            break
        elif kind == "bad":
            errors.append(parse_error(line, col, f"unexpected character {lexeme!r}"))
        else:  # string
            value = string_value(m["body"])
            if value is None:
                bad_escapes = _ESCAPE.findall(m["body"]).count("")
                errors.extend(parse_error(line, col, "invalid string escape") for _ in range(bad_escapes))
            if m["close"] is None:
                errors.append(parse_error(line, col, "unterminated string literal"))
            elif value is not None:
                append(new(Token, ("string", lexeme, value, line, col, start)))
    return tokens, errors
