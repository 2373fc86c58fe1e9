"""Tokenizer shared by the `.ssn` and `.trace` grammars.

One compiled master regex scans the whole text in one ``findall``, with
one match per token. Each match starts with the whitespace and ``--`` line
comments before the token (the gap), then takes the first alternative that
matches: a word, an int, a string, punctuation, the end of the text, or
any one bad character. ``findall`` gives each match as one tuple of its
groups' texts, so the loop reads a token's kind from the one group that is
not empty, and the end of the text from all of them being empty. It keeps
the offset by adding up the lengths, and the line by counting the newlines
in each gap: only a gap can span a newline, so a token's column follows
from the offset of the last one. The loop makes no match object and no
``lastgroup``, ``start`` or ``count`` call per token. On the 15,344 tokens
of the ``deep_path`` benchmark's protocol that cuts the Python work after
the regex by about a fifth, more than ``findall``'s eight group strings per
match add to the regex's own time, and ``tokenize`` takes ~5% less time
than a ``finditer`` loop did (Python 3.11, in-process, best of 41). Strings
are double-quoted with ``\\"`` and ``\\\\`` escapes and end at a newline;
only a string that holds a backslash is decoded. Errors do not stop the
scan; a string with a bad escape or no closing quote yields no token. A lex
error is a ``Diagnostic`` with the ``parse`` code, made by ``parse_error``
as the parser's errors are, so the parser adds it to its own list as it
stands and the CLI reports it as it reports a checker finding. ``GAP``,
``STRING`` and ``string_value`` are shared with the parser's trace reader,
so that it reads a token as this scan does.
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
# the end of the text or `bad` matches wherever the gap ends, a match never
# backtracks into the gap. The end is the one alternative with no group, so
# that every group of its match is empty.
_MASTER = re.compile(
    "(" + GAP + r")(?:(?P<word>" + IDENT + ")"
    r"|(?P<int>[0-9]+)"
    r"|" + STRING +
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"
    r"|\Z"
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
    offset = 0  # of the gap, then of the token after it
    for gap, word, digits, string, body, close, punct, bad in _MASTER.findall(text):
        if gap:
            if newlines := gap.count("\n"):
                line += newlines
                line_start = offset + gap.rindex("\n") + 1
            offset += len(gap)
        col = offset - line_start + 1
        if word:
            if word in KEYWORDS:  # a keyword token is its own kind
                append(new(Token, (word, word, None, line, col, offset)))
            else:
                append(new(Token, ("ident", word, word, line, col, offset)))
            offset += len(word)
        elif punct:  # so is a punctuation token
            append(new(Token, (punct, punct, None, line, col, offset)))
            offset += len(punct)
        elif digits:
            try:
                value = int(digits)
            except ValueError:  # past sys.get_int_max_str_digits()
                value = None
            append(new(Token, ("int", digits, value, line, col, offset)))
            offset += len(digits)
        elif string:
            value = string_value(body)
            if value is None:
                bad_escapes = _ESCAPE.findall(body).count("")
                errors.extend(parse_error(line, col, "invalid string escape") for _ in range(bad_escapes))
            if not close:
                errors.append(parse_error(line, col, "unterminated string literal"))
            elif value is not None:
                append(new(Token, ("string", string, value, line, col, offset)))
            offset += len(string)
        elif bad:
            errors.append(parse_error(line, col, f"unexpected character {bad!r}"))
            offset += 1
        else:
            # The end of the text. After a match that reaches it, `\Z`
            # matches once more, empty; only the first makes the 'eof' token.
            append(new(Token, ("eof", "", None, line, col, offset)))
            break
    return tokens, errors
