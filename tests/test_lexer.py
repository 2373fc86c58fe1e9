"""Exact tokens, errors and positions from the tokenizer."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessioncheck import lexer
from sessioncheck.lexer import tokenize
from sessioncheck.model import IDENT

LONG = "9" * (sys.get_int_max_str_digits() + 1)  # too long to convert: the parser reports it
ESCAPE = (1, 1, "invalid string escape")
UNTERMINATED = (1, 1, "unterminated string literal")

# input -> (tokens as (kind, text, value, line, col, offset), errors as (line, col, message))
CASES = {
    '"\\a\\b"': ([("eof", "", None, 1, 7, 6)], [ESCAPE, ESCAPE]),
    '"abc\\': ([("eof", "", None, 1, 6, 5)], [ESCAPE, UNTERMINATED]),
    '"x\\"\n': ([("eof", "", None, 2, 1, 5)], [UNTERMINATED]),
    "a -- hi": ([("ident", "a", "a", 1, 1, 0), ("eof", "", None, 1, 8, 7)], []),
    "a\n-- hi": ([("ident", "a", "a", 1, 1, 0), ("eof", "", None, 2, 6, 7)], []),
    "--": ([("eof", "", None, 1, 3, 2)], []),
    "a\rb": ([("ident", "a", "a", 1, 1, 0), ("ident", "b", "b", 1, 3, 2), ("eof", "", None, 1, 4, 3)], []),
    "\r": ([("eof", "", None, 1, 2, 1)], []),
    "a \n\t ": ([("ident", "a", "a", 1, 1, 0), ("eof", "", None, 2, 3, 5)], []),
    "\n\n": ([("eof", "", None, 3, 1, 2)], []),
    "": ([("eof", "", None, 1, 1, 0)], []),
    "a\r\nb": ([("ident", "a", "a", 1, 1, 0), ("ident", "b", "b", 2, 1, 3), ("eof", "", None, 2, 2, 4)], []),
    "\ta\tb": ([("ident", "a", "a", 1, 2, 1), ("ident", "b", "b", 1, 4, 3), ("eof", "", None, 1, 5, 4)], []),
    "12abc": ([("int", "12", 12, 1, 1, 0), ("ident", "abc", "abc", 1, 3, 2), ("eof", "", None, 1, 6, 5)], []),
    "_x": ([("_", "_", None, 1, 1, 0), ("ident", "x", "x", 1, 2, 1), ("eof", "", None, 1, 3, 2)], []),
    "-->": ([("eof", "", None, 1, 4, 3)], []),
    "é": ([("eof", "", None, 1, 2, 1)], [(1, 1, "unexpected character 'é'")]),
    "\x00": ([("eof", "", None, 1, 2, 1)], [(1, 1, "unexpected character '\\x00'")]),
    "ab@": ([("ident", "ab", "ab", 1, 1, 0), ("eof", "", None, 1, 4, 3)], [(1, 3, "unexpected character '@'")]),
    "a\n\x00": ([("ident", "a", "a", 1, 1, 0), ("eof", "", None, 2, 2, 3)], [(2, 1, "unexpected character '\\x00'")]),
    LONG + " 1": ([("int", LONG, None, 1, 1, 0), ("int", "1", 1, 1, len(LONG) + 2, len(LONG) + 1),
                   ("eof", "", None, 1, len(LONG) + 3, len(LONG) + 2)], []),
    'm1 <= "a\\"b\\\\"\n  end->!=': (
        [
            ("ident", "m1", "m1", 1, 1, 0),
            ("<=", "<=", None, 1, 4, 3),
            ("string", '"a\\"b\\\\"', 'a"b\\', 1, 7, 6),
            ("end", "end", None, 2, 3, 17),
            ("->", "->", None, 2, 6, 20),
            ("!=", "!=", None, 2, 8, 22),
            ("eof", "", None, 2, 10, 24),
        ],
        [],
    ),
}


@pytest.mark.parametrize("src", list(CASES), ids=[repr(s)[:60] for s in CASES])
def test_exact_tokens_and_errors(src):
    tokens, errors = tokenize(src)
    assert [(t.kind, t.text, t.value, t.line, t.col, t.offset) for t in tokens] == CASES[src][0]
    assert [(e.span.line, e.span.col, e.message) for e in errors] == CASES[src][1]


# Whitespace and comments; a string that gave an error (bad escape or no
# closing quote), which can hold any character but a newline.
_SKIP = re.compile(r"(?:[ \t\r\n]|--[^\n]*)*")
_BAD_STRING = re.compile(r'"(?:\\["\\]|[^"\n])*"?')


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(list('"\\-\t\r\n\x0b\x00é aZ_19(=<>!.') + ["--", "roles", "\r\n"])).map("".join))
def test_token_text_and_position_match_its_offset(src):
    tokens, errors = tokenize(src)
    assert tokens[-1].kind == "eof" and tokens[-1].offset == len(src)
    assert [t.kind for t in tokens].count("eof") == 1
    for t in tokens:
        assert t.text == src[t.offset : t.offset + len(t.text)]
        assert t.line == src.count("\n", 0, t.offset) + 1
        assert t.col == t.offset - (src.rfind("\n", 0, t.offset) + 1) + 1
    # Between tokens, and before 'eof', there is only whitespace, comments
    # and text that gave a lex error: nothing is skipped silently.
    error_at = {(e.span.line, e.span.col) for e in errors}
    end = 0
    for t in tokens:
        pos = end
        while pos < t.offset:
            pos = _SKIP.match(src, pos, t.offset).end()
            if pos == t.offset:
                break
            line = src.count("\n", 0, pos) + 1
            assert (line, pos - src.rfind("\n", 0, pos)) in error_at, (src, pos)
            pos = _BAD_STRING.match(src, pos, t.offset).end() if src[pos] == '"' else pos + 1
        end = t.offset + len(t.text)


# The scan before its gap and string body were unrolled and its single
# punctuation characters put in one class, kept verbatim as the reference
# the unrolled pattern must agree with match for match.
_REFERENCE_MASTER = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*)*)(?:(?P<word>" + IDENT + ")"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"(?P<body>(?:\\["\\]|\\|[^"\\\n])*)(?P<close>")?)'
    r"|(?P<punct>" + "|".join(map(re.escape, lexer._PUNCT)) + ")"
    r"|\Z"
    r"|(?P<bad>.))",
    re.DOTALL,
)

SCAN_PIECES = ['"', "\\", "--", "\n", "\r\n", "-", "<", ">", "=", "!", "_", "é", "a", "Z", "q", "0", "7", " "]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SCAN_PIECES), max_size=30).map("".join))
@example('"a\\"b"')
@example('"a\\\\"')
@example('"a\\q"')
@example('"abc')
@example('"a\\')
@example("a--b")
@example("<=<->=>")
def test_the_scan_matches_the_reference_pattern(src):
    assert lexer._MASTER.findall(src) == _REFERENCE_MASTER.findall(src)
