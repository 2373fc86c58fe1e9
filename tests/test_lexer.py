"""Exact tokens, errors and positions from the tokenizer."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessioncheck import lexer, parse, parse_trace
from sessioncheck.model import IDENT
from sessioncheck.syntax import IntV, StrV
from sessioncheck.traces import _parse_trace_tokens

from conftest import lexed

LONG = "9" * (sys.get_int_max_str_digits() + 1)  # too long to convert, but an int token (see test_parser)
ESCAPE = (1, 1, "invalid string escape")
UNTERMINATED = (1, 1, "unterminated string literal")

# input -> (tokens as (kind, text, line, col, offset), errors as (line, col, message))
CASES = {
    '"\\a\\b"': ([("eof", "", 1, 7, 6)], [ESCAPE, ESCAPE]),
    '"abc\\': ([("eof", "", 1, 6, 5)], [ESCAPE, UNTERMINATED]),
    '"x\\"\n': ([("eof", "", 2, 1, 5)], [UNTERMINATED]),
    "a -- hi": ([("ident", "a", 1, 1, 0), ("eof", "", 1, 8, 7)], []),
    "a\n-- hi": ([("ident", "a", 1, 1, 0), ("eof", "", 2, 6, 7)], []),
    "--": ([("eof", "", 1, 3, 2)], []),
    "a\rb": ([("ident", "a", 1, 1, 0), ("ident", "b", 1, 3, 2), ("eof", "", 1, 4, 3)], []),
    "\r": ([("eof", "", 1, 2, 1)], []),
    "a \n\t ": ([("ident", "a", 1, 1, 0), ("eof", "", 2, 3, 5)], []),
    "\n\n": ([("eof", "", 3, 1, 2)], []),
    "": ([("eof", "", 1, 1, 0)], []),
    "a\r\nb": ([("ident", "a", 1, 1, 0), ("ident", "b", 2, 1, 3), ("eof", "", 2, 2, 4)], []),
    "\ta\tb": ([("ident", "a", 1, 2, 1), ("ident", "b", 1, 4, 3), ("eof", "", 1, 5, 4)], []),
    "12abc": ([("int", "12", 1, 1, 0), ("ident", "abc", 1, 3, 2), ("eof", "", 1, 6, 5)], []),
    "_x": ([("_", "_", 1, 1, 0), ("ident", "x", 1, 2, 1), ("eof", "", 1, 3, 2)], []),
    "-->": ([("eof", "", 1, 4, 3)], []),
    "é": ([("eof", "", 1, 2, 1)], [(1, 1, "unexpected character 'é'")]),
    "\x00": ([("eof", "", 1, 2, 1)], [(1, 1, "unexpected character '\\x00'")]),
    "ab@": ([("ident", "ab", 1, 1, 0), ("eof", "", 1, 4, 3)], [(1, 3, "unexpected character '@'")]),
    "a\n\x00": ([("ident", "a", 1, 1, 0), ("eof", "", 2, 2, 3)], [(2, 1, "unexpected character '\\x00'")]),
    LONG + " 1": ([("int", LONG, 1, 1, 0), ("int", "1", 1, len(LONG) + 2, len(LONG) + 1),
                   ("eof", "", 1, len(LONG) + 3, len(LONG) + 2)], []),
    'm1 <= "a\\"b\\\\"\n  end->!=': (
        [
            ("ident", "m1", 1, 1, 0),
            ("<=", "<=", 1, 4, 3),
            ("string", '"a\\"b\\\\"', 1, 7, 6),
            ("end", "end", 2, 3, 17),
            ("->", "->", 2, 6, 20),
            ("!=", "!=", 2, 8, 22),
            ("eof", "", 2, 10, 24),
        ],
        [],
    ),
}


@pytest.mark.parametrize("src", list(CASES), ids=[repr(s)[:60] for s in CASES])
def test_exact_tokens_and_errors(src):
    tokens, errors = lexed(src)
    assert [(t.kind, t.text, t.line, t.col, t.offset) for t in tokens] == CASES[src][0]
    assert [(e.span.line, e.span.col, e.message) for e in errors] == CASES[src][1]


# A token carries no value: the parser makes an int's or a string's value
# from its text, in a read pattern as in a trace read from its tokens.
VALUES = {
    "12": IntV(12),
    "-12": IntV(-12),
    "007": IntV(7),
    '"a\\"b\\\\"': StrV('a"b\\'),
    '""': StrV(""),
    '"-- x"': StrV("-- x"),
}
READ = "roles A\nprotocol P [A] {\n  msg m : Int by A;\n  read m { %s => end; _ => end }\n}\n"


@pytest.mark.parametrize("text", list(VALUES))
def test_the_parser_makes_each_value_from_its_token_text(text):
    assert parse(READ % text).protocols[0].body[-1].arms[0].pattern.value == VALUES[text]
    assert _parse_trace_tokens(f"x = {text}\n").bindings[0].value == VALUES[text]
    assert parse_trace(f"x = {text}\n").bindings[0].value == VALUES[text]


# Whitespace and comments; a string that gave an error (bad escape or no
# closing quote), which can hold any character but a newline.
_SKIP = re.compile(r"(?:[ \t\r\n]|--[^\n]*)*")
_BAD_STRING = re.compile(r'"(?:\\["\\]|[^"\n])*"?')


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(list('"\\-\t\r\n\x0b\x00é aZ_19(=<>!.') + ["--", "roles", "\r\n"])).map("".join))
def test_token_text_and_position_match_its_offset(src):
    tokens, errors = lexed(src)
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


# The scan before its gap and string body were unrolled, its single
# punctuation characters put in one class and its token groups made one,
# kept verbatim as the reference the scan must agree with match for match.
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
    # The reference's groups: gap, word, int, string, string body, closing
    # quote, punct and bad character. At most one token group is not empty,
    # and its text is the scan's token text.
    reference = [(gap, word or digits or string or punct or bad, close)
                 for gap, word, digits, string, _, close, punct, bad in _REFERENCE_MASTER.findall(src)]
    assert lexer._MASTER.findall(src) == reference
