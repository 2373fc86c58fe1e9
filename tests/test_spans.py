"""Source spans of parsed files.

A span is a ``quiet()`` field, so ``==`` on AST nodes ignores it, and a
shifted span would pass every test that compares trees. These tests walk
every record field of parsed files and check each ``Span`` they find: the
whole list for one corpus file, and for the other corpus files and for
generated ones, that each span starts at the first token of its construct,
at the line and column that token's offset gives, and ends at the end of a
token. The corpus files are also read with CRLF line ends and tab indents.
A property test holds every span of corpus and generated files, in each
layout, to the text: at least one character long, inside the text, at the
line and column ``position`` gives for its offset, and holding the parse's
one line table, which its lex and parse errors share too.
"""

from __future__ import annotations

import random
import re

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import gen_checkable_file, gen_printable_file
from sessioncheck.model import Span, VariantDecl, line_starts, position
from sessioncheck.parser import ParseFailure, parse
from sessioncheck.printer import format_source
from sessioncheck.syntax import Call, End, NewDepMsg, NewMsg, ProtocolDecl, ReadCase, Rec, Send

from conftest import CORPUS, lexed


def spans(node, path: str = "$") -> list[tuple[str, object, Span]]:
    """(path, owning node, span) for every span under ``node``, field by field."""
    if isinstance(node, tuple):
        return [s for i, item in enumerate(node) for s in spans(item, f"{path}[{i}]")]
    if not hasattr(type(node), "_shown") or isinstance(node, Span):  # not a record, or a leaf
        return []
    out = []
    for name in type(node).__annotations__:
        value = getattr(node, name)
        if isinstance(value, Span):
            out.append((f"{path}.{name}", node, value))
        else:
            out.extend(spans(value, f"{path}.{name}"))
    return out


TCP_SPANS = [
    ('$.roles[0].span', 1, 7, 5),
    ('$.roles[1].span', 1, 14, 3),
    ('$.variants[0].ctors[0].span', 3, 15, 3),
    ('$.variants[0].ctors[1].span', 3, 21, 6),
    ('$.variants[0].ctors[2].span', 3, 30, 3),
    ('$.variants[0].span', 3, 1, 32),
    ('$.protocols[0].body[0].type.elems[0].span', 6, 13, 6),
    ('$.protocols[0].body[0].type.elems[1].span', 6, 21, 3),
    ('$.protocols[0].body[0].type.span', 6, 12, 13),
    ('$.protocols[0].body[0].span', 6, 3, 31),
    ('$.protocols[0].body[1].span', 7, 3, 20),
    ('$.protocols[0].body[2].rtype.payload.elems[0].span', 8, 17, 6),
    ('$.protocols[0].body[2].rtype.payload.elems[1].span', 8, 29, 3),
    ('$.protocols[0].body[2].rtype.payload.elems[2].span', 8, 38, 3),
    ('$.protocols[0].body[2].rtype.predicate.lhs.base.span', 8, 49, 1),
    ('$.protocols[0].body[2].rtype.predicate.lhs.span', 8, 49, 1),
    ('$.protocols[0].body[2].rtype.predicate.rhs.lhs.base.span', 8, 54, 2),
    ('$.protocols[0].body[2].rtype.predicate.rhs.lhs.span', 8, 54, 4),
    ('$.protocols[0].body[2].rtype.predicate.rhs.rhs.span', 8, 61, 1),
    ('$.protocols[0].body[2].rtype.predicate.rhs.span', 8, 54, 8),
    ('$.protocols[0].body[2].rtype.predicate.span', 8, 49, 13),
    ('$.protocols[0].body[2].rtype.span', 8, 12, 50),
    ('$.protocols[0].body[2].span', 8, 3, 66),
    ('$.protocols[0].body[3].span', 9, 3, 20),
    ('$.protocols[0].body[4].rtype.payload.elems[0].span', 10, 17, 6),
    ('$.protocols[0].body[4].rtype.payload.elems[1].span', 10, 29, 3),
    ('$.protocols[0].body[4].rtype.payload.elems[2].span', 10, 38, 3),
    ('$.protocols[0].body[4].rtype.predicate.lhs.lhs.base.span', 10, 49, 1),
    ('$.protocols[0].body[4].rtype.predicate.lhs.lhs.span', 10, 49, 1),
    ('$.protocols[0].body[4].rtype.predicate.lhs.rhs.base.base.span', 10, 54, 2),
    ('$.protocols[0].body[4].rtype.predicate.lhs.rhs.base.span', 10, 54, 3),
    ('$.protocols[0].body[4].rtype.predicate.lhs.rhs.span', 10, 54, 5),
    ('$.protocols[0].body[4].rtype.predicate.lhs.span', 10, 49, 10),
    ('$.protocols[0].body[4].rtype.predicate.rhs.lhs.base.span', 10, 64, 1),
    ('$.protocols[0].body[4].rtype.predicate.rhs.lhs.span', 10, 64, 1),
    ('$.protocols[0].body[4].rtype.predicate.rhs.rhs.lhs.base.base.span', 10, 69, 2),
    ('$.protocols[0].body[4].rtype.predicate.rhs.rhs.lhs.base.span', 10, 69, 3),
    ('$.protocols[0].body[4].rtype.predicate.rhs.rhs.lhs.span', 10, 69, 5),
    ('$.protocols[0].body[4].rtype.predicate.rhs.rhs.rhs.span', 10, 77, 1),
    ('$.protocols[0].body[4].rtype.predicate.rhs.rhs.span', 10, 69, 9),
    ('$.protocols[0].body[4].rtype.predicate.rhs.span', 10, 64, 14),
    ('$.protocols[0].body[4].rtype.predicate.span', 10, 49, 29),
    ('$.protocols[0].body[4].rtype.span', 10, 12, 66),
    ('$.protocols[0].body[4].span', 10, 3, 84),
    ('$.protocols[0].body[5].span', 11, 3, 20),
    ('$.protocols[0].body[6].span', 12, 3, 3),
    ('$.protocols[0].span', 5, 1, 300),
]


def test_every_span_of_a_corpus_file():
    file = parse((CORPUS / "tcp.ssn").read_text())
    assert [(path, s.line, s.col, s.length) for path, _, s in spans(file)] == TCP_SPANS


# The token a construct's span starts at, where the construct has a keyword.
FIRST_TOKEN = {
    NewMsg: "msg", NewDepMsg: "dep", Send: "send", ReadCase: "read", Rec: "rec", Call: "call", End: "end",
    ProtocolDecl: "protocol", VariantDecl: "type",
}


# Other line endings and indents: '\r' and a tab are one column each.
LAYOUTS = {
    "": lambda text: text,
    "-crlf": lambda text: text.replace("\n", "\r\n"),
    "-tabs": lambda text: re.sub(r"(?m)^(?:  )+", lambda m: "\t" * (len(m[0]) // 2), text),
}


def _files():
    for path in sorted(CORPUS.glob("*.ssn")):
        for suffix, layout in LAYOUTS.items():
            yield f"{path.name}{suffix}", layout(path.read_text())
    for seed in range(40):
        yield f"printable-{seed}", format_source(gen_printable_file(random.Random(seed)))
        yield f"checkable-{seed}", format_source(gen_checkable_file(random.Random(seed)))


@pytest.mark.parametrize("text", [pytest.param(text, id=name) for name, text in _files()])
def test_each_span_starts_at_its_first_token_and_ends_at_a_token_end(text):
    tokens, _ = lexed(text)
    # Each token's line and column, counted from its offset: a span found
    # here has the position its first token's offset gives.
    starts = {(text.count("\n", 0, t.offset) + 1, t.offset - text.rfind("\n", 0, t.offset)): t for t in tokens[:-1]}
    ends = {t.offset + len(t.text) for t in tokens[:-1]}
    found = spans(parse(text))
    assert found
    for path, node, span in found:
        tok = starts.get((span.line, span.col))
        assert tok is not None, path
        assert tok.offset + span.length in ends, path
        if type(node) in FIRST_TOKEN:
            assert tok.kind == FIRST_TOKEN[type(node)], path


GENERATORS = {"printable": gen_printable_file, "checkable": gen_checkable_file}
TCP = (CORPUS / "tcp.ssn").read_text()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(CORPUS.glob("*.ssn"))).map(lambda path: path.read_text())
    | st.builds(lambda gen, seed: format_source(GENERATORS[gen](random.Random(seed))),
                st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32)),
    st.sampled_from(sorted(LAYOUTS)),
)
@example(TCP, "-crlf")
@example(TCP, "-tabs")
def test_every_span_lies_in_its_text_at_the_position_of_its_offset(text, layout):
    text = LAYOUTS[layout](text)
    starts = line_starts(text)
    found = spans(parse(text))
    assert found
    table = found[0][2].line_starts
    assert table == starts
    for path, _, span in found:
        assert span.length >= 1, path
        assert 0 <= span.offset < span.offset + span.length <= len(text), path
        assert (span.line, span.col) == span.line_col == position(starts, span.offset), path
        assert span.line_starts is table, path


def test_lex_and_parse_errors_share_one_line_table():
    text = "roles A\nprotocol P [A] {\n  msg m : Int by A @;\n  send m\n}\n"
    with pytest.raises(ParseFailure) as info:
        parse(text)
    lex, syntax = info.value.errors
    assert (lex.span.line, lex.span.col, lex.span.length, lex.message) == (3, 20, 1, "unexpected character '@'")
    assert (syntax.span.line, syntax.span.col, syntax.span.length) == (5, 1, 1)
    assert lex.span.line_starts is syntax.span.line_starts
    assert lex.span.line_starts == line_starts(text)
