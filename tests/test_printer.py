"""Canonical formatting and the parse/print round trip."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import gen_printable_file
from sessioncheck import format_source, parse
from sessioncheck.syntax import format_ref, format_type
from sessioncheck.model import (
    INT,
    Arith,
    BinderRef,
    BoolOp,
    Cmp,
    IntLit,
    Proj,
    RefinedType,
    TupleType,
    VarId,
    VarRef,
)


def test_corpus_files_are_fixed_points(corpus):
    for name in ("tcp.ssn", "server.ssn", "hoppy.ssn", "charlie.ssn"):
        text = (corpus / name).read_text()
        assert format_source(parse(text)) == text, name


def test_single_end_protocol_roundtrips_byte_identically():
    text = "roles Alice\n\nprotocol P [Alice] {\n  end\n}\n"
    assert format_source(parse(text)) == text


def test_parens_only_where_needed():
    e = BoolOp(
        "or",
        Cmp("==", Arith("+", IntLit(1), IntLit(2)), IntLit(3)),
        BoolOp("and", Cmp("<", IntLit(1), IntLit(2)), Cmp("<=", IntLit(2), IntLit(3))),
    )
    assert format_ref(e) == "1 + 2 == 3 or 1 < 2 and 2 <= 3"
    nested = Arith("*", Arith("+", IntLit(1), IntLit(2)), IntLit(3))
    assert format_ref(nested) == "(1 + 2) * 3"
    right = Arith("-", IntLit(1), Arith("-", IntLit(2), IntLit(3)))
    assert format_ref(right) == "1 - (2 - 3)"


def test_refined_type_renderings():
    scalar = RefinedType(INT, ("v",), Cmp("==", BinderRef(), IntLit(1)))
    assert format_type(scalar) == "(v : Int) where v == 1"
    pair = RefinedType(
        TupleType((INT, INT)),
        ("a", "b"),
        Cmp("==", Proj(BinderRef(), 2), Arith("+", Proj(VarRef(VarId("m")), 1), IntLit(1))),
    )
    assert format_type(pair) == "(a : Int, b : Int) where b == m.1 + 1"
    sugar = RefinedType(INT, (), Cmp("==", BinderRef(), Arith("+", VarRef(VarId("m")), IntLit(1)), "next"))
    assert format_type(sugar) == "Int where next(m)"


def test_a_regrouped_chain_roundtrips():
    # The printer drops the parentheses of a left-nested group, so these
    # 120 terms print as one chain; the operator budget, not the chain's
    # length, decides whether it parses.
    chain = "(" + " + ".join(["1"] * 60) + ") + " + " + ".join(["1"] * 60)
    ast = parse(f"roles A\n\nprotocol P [A] {{\n  dep n : (v : Int) where v == {chain} by A;\n  end\n}}\n")
    text = format_source(ast)
    assert "v == " + " + ".join(["1"] * 120) + " by A;" in text
    assert parse(text) == ast


def test_roundtrip_seeded_sample():
    rng = random.Random(424242)
    for _ in range(200):
        ast = gen_printable_file(rng)
        assert parse(format_source(ast)) == ast


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_hypothesis_seeds(seed):
    ast = gen_printable_file(random.Random(seed))
    assert parse(format_source(ast)) == ast


def test_format_is_idempotent_on_generated_sources():
    rng = random.Random(5150)
    for _ in range(50):
        text = format_source(gen_printable_file(rng))
        assert format_source(parse(text)) == text
