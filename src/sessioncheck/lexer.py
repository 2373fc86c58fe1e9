"""Tokenizer shared by the `.ssn` and `.trace` grammars.

One compiled master regex of named alternatives scans the text, as in the
"Writing a Tokenizer" recipe of the ``re`` docs: at each offset the first
alternative that matches wins. ``skip`` takes whitespace and ``--`` line
comments; it is the only token that can span a newline, so the column of
every other token follows from the offset of the last newline. Strings are
double-quoted with ``\\"`` and ``\\\\`` escapes and end at a newline. Errors
do not stop the scan; a string with a bad escape or no closing quote
yields no token. A lex error is a ``ParseError``, the one error record of
the front end, so the parser adds it to its own list as it stands.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .records import record

__all__ = ["Token", "ParseError", "IDENT", "KEYWORDS", "tokenize"]

# An identifier (role, variable, type, tag, protocol or label name); the
# model checks RoleId and VarId names against the same pattern.
IDENT = r"[A-Za-z][A-Za-z0-9_]*"

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

# Longest match first. `--` is not here: it starts a comment, which `skip`
# matches before punctuation is tried.
_PUNCT = [
    "->", "=>", "==", "!=", "<=",
    "<", ">", "[", "]", "{", "}", "(", ")", ",", ";", ":", "|", "=", ".", "+", "-", "*", "!", "_",
]

# Identifiers and numbers are ASCII only: unicode letters and digits fall
# through to `bad` instead of being accepted the way \w or \d would.
_MASTER = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|--[^\n]*)+)"
    r"|(?P<word>" + IDENT + ")"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"(?P<body>(?:\\["\\]|\\|[^"\\\n])*)(?P<close>")?)'
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"
    r"|(?P<bad>.)",
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

    @property
    def end_offset(self) -> int:
        return self.offset + len(self.text)


@record
class ParseError:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


def tokenize(text: str) -> tuple[list[Token], list[ParseError]]:
    tokens: list[Token] = []
    errors: list[ParseError] = []
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        start = m.start()
        lexeme = m.group()
        if kind == "skip":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = start + lexeme.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "word" and lexeme not in KEYWORDS:
            tokens.append(Token("ident", lexeme, lexeme, line, col, start))
        elif kind in ("word", "punct"):  # a keyword or punctuation token is its own kind
            tokens.append(Token(lexeme, lexeme, None, line, col, start))
        elif kind == "int":
            try:
                value = int(lexeme)
            except ValueError:  # past sys.get_int_max_str_digits()
                value = None
            tokens.append(Token("int", lexeme, value, line, col, start))
        elif kind == "bad":
            errors.append(ParseError(line, col, f"unexpected character {lexeme!r}"))
        else:  # string
            escapes = _ESCAPE.findall(m.group("body"))
            bad_escapes = escapes.count("")
            errors.extend(ParseError(line, col, "invalid string escape") for _ in range(bad_escapes))
            if m.group("close") is None:
                errors.append(ParseError(line, col, "unterminated string literal"))
            elif not bad_escapes:
                tokens.append(Token("string", lexeme, _ESCAPE.sub(r"\1", m.group("body")), line, col, start))
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1, len(text)))
    return tokens, errors
