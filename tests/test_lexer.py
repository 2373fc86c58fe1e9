"""Exact tokens, errors and positions from the tokenizer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessioncheck.lexer import tokenize

ESCAPE = (1, 1, "invalid string escape")
UNTERMINATED = (1, 1, "unterminated string literal")

# input -> (tokens as (kind, text, value, line, col, offset), errors as (line, col, message))
CASES = {
    '"\\a\\b"': ([("eof", "", None, 1, 7, 6)], [ESCAPE, ESCAPE]),
    '"abc\\': ([("eof", "", None, 1, 6, 5)], [ESCAPE, UNTERMINATED]),
    '"x\\"\n': ([("eof", "", None, 2, 1, 5)], [UNTERMINATED]),
    "a -- hi": ([("ident", "a", "a", 1, 1, 0), ("eof", "", None, 1, 8, 7)], []),
    "a\r\nb": ([("ident", "a", "a", 1, 1, 0), ("ident", "b", "b", 2, 1, 3), ("eof", "", None, 2, 2, 4)], []),
    "\ta\tb": ([("ident", "a", "a", 1, 2, 1), ("ident", "b", "b", 1, 4, 3), ("eof", "", None, 1, 5, 4)], []),
    "12abc": ([("int", "12", 12, 1, 1, 0), ("ident", "abc", "abc", 1, 3, 2), ("eof", "", None, 1, 6, 5)], []),
    "_x": ([("_", "_", None, 1, 1, 0), ("ident", "x", "x", 1, 2, 1), ("eof", "", None, 1, 3, 2)], []),
    "-->": ([("eof", "", None, 1, 4, 3)], []),
    "é": ([("eof", "", None, 1, 2, 1)], [(1, 1, "unexpected character 'é'")]),
    "\x00": ([("eof", "", None, 1, 2, 1)], [(1, 1, "unexpected character '\\x00'")]),
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


@pytest.mark.parametrize("src", list(CASES), ids=[repr(s) for s in CASES])
def test_exact_tokens_and_errors(src):
    tokens, errors = tokenize(src)
    assert [(t.kind, t.text, t.value, t.line, t.col, t.offset) for t in tokens] == CASES[src][0]
    assert [(e.line, e.col, e.message) for e in errors] == CASES[src][1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list('"\\-\t\r\n\x0b\x00é aZ_19(=<>!.') + ["--", "roles", "\r\n"])).map("".join))
def test_token_text_and_position_match_its_offset(src):
    tokens, _ = tokenize(src)
    assert tokens[-1].kind == "eof" and tokens[-1].offset == len(src)
    for t in tokens:
        assert t.text == src[t.offset : t.offset + len(t.text)]
        assert t.line == src.count("\n", 0, t.offset) + 1
        assert t.col == t.offset - (src.rfind("\n", 0, t.offset) + 1) + 1
