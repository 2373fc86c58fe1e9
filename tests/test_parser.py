"""Surface syntax: statements, refined types, sugar, errors, traces."""

from __future__ import annotations

import pytest

from conftest import OPERATOR, nth_operator_col
from differential import refinement

from sessioncheck.model import (
    INT,
    STR,
    Arith,
    BinderRef,
    BoolOp,
    Cmp,
    Span,
    IntLit,
    NamedType,
    Proj,
    RefinedType,
    RoleId,
    StrLit,
    TupleType,
    UnwrapDep,
    VarId,
    VarRef,
)
from sessioncheck.parser import ParseFailure, parse, parse_trace
from sessioncheck.syntax import (
    Arm,
    BoolV,
    Call,
    ConV,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    ReadCase,
    Rec,
    Send,
    StrV,
    TupleV,
    WildPat,
)


def test_tcp_corpus_shape(corpus):
    file = parse((corpus / "tcp.ssn").read_text())
    assert len(file.protocols) == 1
    assert [r.name for r in file.roles] == ["Alice", "Bob"]
    body = file.protocols[0].body
    creations = [s for s in body if isinstance(s, (NewMsg, NewDepMsg))]
    assert len(creations) == 3  # three message exchanges
    assert isinstance(body[-1], End)
    assert file.entry == "Tcp"


def test_minimal_valid_file():
    file = parse("roles Alice\nprotocol P [Alice] { end }")
    assert file.protocols[0].participants == (RoleId("Alice"),)
    assert file.protocols[0].body == (End(),)
    assert file.entry is None


def test_unterminated_refinement_error_position():
    src = "roles A\nprotocol P [A] {\n  msg m2 : (Int where\n}"
    with pytest.raises(ParseFailure) as exc:
        parse(src)
    assert any(e.span.line == 3 for e in exc.value.errors)


def test_recovers_and_reports_multiple_errors():
    src = """roles A, B
protocol P [A, B] {
  msg m1 : by A;
  send m1 A ->;
  end
}
"""
    with pytest.raises(ParseFailure) as exc:
        parse(src)
    assert len(exc.value.errors) >= 2


def test_comments_and_newlines_are_whitespace():
    src = "roles A -- parties\nprotocol P [A] { -- body\n  end\n}"
    file = parse(src)
    assert file.protocols[0].body == (End(),)


def test_statements_lower_to_expected_ast():
    src = """roles A, B
type CMD = Math | Echo(Int, Str) | Quit

protocol P [A, B] {
  msg m1 : (CMD, Int) by A;
  send m1 A -> B;
  dep m2 : (p : CMD, n : Int) where n == m1.2 + 1 by B;
  read m1 {
    Math => rec;
    7 => call Q then rec;
    _ => end
  }
}
"""
    file = parse(src)
    variant = file.variants[0]
    assert variant.ctors[0].payload is None
    assert variant.ctors[1].payload == TupleType((INT, STR))
    body = file.protocols[0].body
    assert body[0] == NewMsg(VarId("m1"), TupleType((NamedType("CMD"), INT)), RoleId("A"))
    assert body[1] == Send(VarId("m1"), RoleId("A"), RoleId("B"))
    dep = body[2]
    assert isinstance(dep, NewDepMsg)
    assert dep.rtype == RefinedType(
        TupleType((NamedType("CMD"), INT)),
        ("p", "n"),
        Cmp("==", Proj(BinderRef(), 2), Arith("+", Proj(VarRef(VarId("m1")), 2), IntLit(1))),
    )
    read = body[3]
    assert isinstance(read, ReadCase)
    assert read.arms[0].pattern == CtorPat("Math")
    assert read.arms[0].body == (Rec(),)
    assert read.arms[1].pattern == LitPat(IntV(7))
    assert read.arms[1].body == (Call("Q", (), True),)
    assert read.arms[2].pattern == WildPat()


def test_literal_and_next_sugar_lowering():
    src = """roles A
protocol P [A] {
  dep a : Str where literal("hi") by A;
  dep b : Int where next(a!) by A;
  dep c : (v : Int) where v == 1 by A;
  end
}
"""
    file = parse(src)
    a, b, c = file.protocols[0].body[:3]
    assert a.rtype.predicate == Cmp("==", BinderRef(), StrLit("hi"), "literal")
    assert b.rtype.predicate == Cmp(
        "==", BinderRef(), Arith("+", UnwrapDep(VarRef(VarId("a"))), IntLit(1)), "next"
    )
    assert c.rtype == RefinedType(INT, ("v",), Cmp("==", BinderRef(), IntLit(1)))


def test_label_shadows_message_variable():
    src = """roles A
protocol P [A] {
  msg v : Int by A;
  dep d : (v : Int) where v == 2 by A;
  end
}
"""
    dep = parse(src).protocols[0].body[1]
    # `v` resolves to the binder, not the earlier message variable
    assert dep.rtype.predicate == Cmp("==", BinderRef(), IntLit(2))


def test_duplicate_component_labels_rejected():
    src = "roles A\nprotocol P [A] { dep d : (x : Int, x : Int) where x == 1 by A; end }"
    with pytest.raises(ParseFailure):
        parse(src)


def test_missing_terminator_rejected():
    with pytest.raises(ParseFailure) as exc:
        parse("roles A\nprotocol P [A] { msg m : Int by A }")
    assert any("finish" in e.message for e in exc.value.errors)


@pytest.mark.parametrize(
    "fn, src, errors",
    [
        (parse, "roles A\nprotocol P [A] { msg x : (Int) by A; end }", ["2:26: tuple type needs at least two components"]),
        (parse, "roles A\nprotocol P [A] { }", ["2:18: expected a statement"]),
        (
            parse,
            "roles A\nprotocol P [A] { dep x : (v : (Int, Int)) where v.0 == 1 by A; end }",
            ["2:51: projection positions are 1-based"],
        ),
        (parse, "roles A, \nprotocol P [A] { end }", ["2:1: expected a role name, found 'protocol'"]),
        (parse, "roles A\nprotocol P<q : protocol[A], > [A] { end }", ["2:29: expected a parameter name, found '>'"]),
        (
            parse,
            "roles A\nprotocol P [A] { call Q(R,) }",
            ["2:27: expected a protocol name, found ')'", "2:27: expected '}', found ')'"],
        ),
        (
            parse,
            "roles A\nprotocol P [A] { dep x : (a : Int, ) where a == 1 by A; end }",
            ["2:36: expected a component label, found ')'", "2:36: expected '}', found ')'"],
        ),
        (parse_trace, "x = (1)", ["1:5: tuple value needs at least two components"]),
        (parse_trace, "x = C(1,)", ["1:9: expected a value"]),
        (parse_trace, "x = (1 2)", ["1:8: expected ',' or ')' in tuple value, found '2'"]),
    ],
)
def test_exact_parse_errors(fn, src, errors):
    with pytest.raises(ParseFailure) as exc:
        fn(src)
    assert [f"{e.span.line}:{e.span.col}: {e.message}" for e in exc.value.errors] == errors
    assert str(exc.value) == "; ".join(errors)


def test_non_tail_terminator_is_parsed_not_rejected():
    file = parse("roles A\nprotocol P [A] { end; end }")
    assert file.protocols[0].body == (End(), End())


def test_protocol_parameters():
    src = "roles A, B\nprotocol H<p : protocol[A, B], q : protocol[A]> [A, B] { call p }\nentry H"
    file = parse(src)
    proto = file.protocols[0]
    assert [q.name for q in proto.params] == ["p", "q"]
    assert proto.params[0].signature == (RoleId("A"), RoleId("B"))
    assert proto.body == (Call("p", (), False),)


def test_duplicate_entry_rejected():
    with pytest.raises(ParseFailure):
        parse("roles A\nprotocol P [A] { end }\nentry P\nentry P")


def test_spans_cover_statements():
    src = (corpus_text := "roles A, B\nprotocol P [A, B] {\n  msg m : Int by A;\n  send m A -> B;\n  end\n}")
    file = parse(src)
    msg = file.protocols[0].body[0]
    line = corpus_text.splitlines()[msg.span.line - 1]
    col = msg.span.col - 1
    assert line[col:].startswith("msg m : Int by A")
    assert msg.span.length == len("msg m : Int by A")


def test_operator_ladder_node_types_and_spans():
    # `==` on nodes ignores spans, so walk the tree: each node starts at the
    # first token of its precedence level and ends at its last token.
    src = "roles A\nprotocol P [A] {\n  dep x : Bool where a or b and c == d + e * f!.1 by A;\n  end\n}"
    pred = parse(src).protocols[0].body[0].rtype.predicate
    a = src.splitlines()[2].index("a or") + 1

    def walk(e):
        kids = [getattr(e, f) for f in ("lhs", "rhs", "base") if hasattr(e, f)]
        out = [(type(e).__name__, getattr(e, "op", None), e.span)]
        for k in kids:
            out += walk(k)
        return out

    assert walk(pred) == [
        ("BoolOp", "or", Span(3, a, 28)),
        ("VarRef", None, Span(3, a, 1)),
        ("BoolOp", "and", Span(3, a + 5, 23)),
        ("VarRef", None, Span(3, a + 5, 1)),
        ("Cmp", "==", Span(3, a + 11, 17)),
        ("VarRef", None, Span(3, a + 11, 1)),
        ("Arith", "+", Span(3, a + 16, 12)),
        ("VarRef", None, Span(3, a + 16, 1)),
        ("Arith", "*", Span(3, a + 20, 8)),
        ("VarRef", None, Span(3, a + 20, 1)),
        ("Proj", None, Span(3, a + 24, 4)),
        ("UnwrapDep", None, Span(3, a + 24, 2)),
        ("VarRef", None, Span(3, a + 24, 1)),
    ]
    assert pred == BoolOp(
        "or",
        VarRef(VarId("a")),
        BoolOp(
            "and",
            VarRef(VarId("b")),
            Cmp(
                "==",
                VarRef(VarId("c")),
                Arith("+", VarRef(VarId("d")), Arith("*", VarRef(VarId("e")), Proj(UnwrapDep(VarRef(VarId("f"))), 1))),
            ),
        ),
    )


def test_string_escapes():
    file = parse('roles A\nprotocol P [A] { dep s : Str where literal("a\\"b\\\\c") by A; end }')
    pred = file.protocols[0].body[0].rtype.predicate
    assert pred.rhs == StrLit('a"b\\c')


DEEP_EXPR = (
    "roles A\nprotocol P [A] { dep d : (x : Int) where x == "
    + "(" * 5000 + "1" + ")" * 5000 + " by A; end }"
)
DEEP_CHAIN = (
    "roles A\nprotocol P [A] { dep d : (x : Int) where x == "
    + " + ".join(["1"] * 5000) + " by A; end }"
)
DEEP_READS = (
    "roles A\nprotocol P [A] { msg m0 : Int by A; "
    + "read m0 { _ => " * 2000 + "end" + " }" * 2000 + " }"
)
# Two arms per read: statement-level recovery at the limit would resume at
# the wildcard arm and hit the limit a second time.
DEEP_ARMS = (
    "roles A\nprotocol P [A] { msg m : Int by A; "
    + "read m { -1 => end; _ => " * 120 + "end" + " }" * 120 + " }"
)


def test_pathological_nesting_is_a_parse_error_not_a_crash():
    for src in (DEEP_EXPR, DEEP_CHAIN, DEEP_READS):
        with pytest.raises(ParseFailure):
            parse(src)
    with pytest.raises(ParseFailure):
        parse_trace("m = " + "(1, " * 5000 + "1" + ")" * 5000)


@pytest.mark.parametrize(
    "src, message",
    [
        (DEEP_EXPR, "nesting deeper than 100 levels"),
        (DEEP_ARMS, "nesting deeper than 100 levels"),
        (DEEP_CHAIN, "refinement with more than 500 operators"),
        (DEEP_READS, "nesting deeper than 100 levels"),
    ],
    ids=["deep_expr", "deep_arms", "deep_chain", "deep_reads"],
)
def test_nesting_limit_gives_exactly_one_error(src, message):
    # the error unwinds to the top-level declaration instead of cascading
    # through every enclosing block and parenthesis
    with pytest.raises(ParseFailure) as info:
        parse(src)
    assert len(info.value.errors) == 1
    assert info.value.errors[0].message == message
    # and parsing resumes at the next top-level declaration
    with pytest.raises(ParseFailure) as info:
        parse(src + "\nprotocol Q [A] { msg }")
    assert [e.message for e in info.value.errors] == [message, "expected a message variable, found '}'"]



# Each group holds 100 terms; the budget bounds the whole tree. "deep" is
# 10 groups of 100 terms, which would build a tree ~1,000 levels deep.
@pytest.mark.parametrize(
    "operators, first, total",
    [
        (500, "1", 500), (501, "1", 501), (991, "1", 991), (498, "p!.1", 500), (499, "p!.1", 501),
        (499, "next(1)", 500), (500, "literal(1)", 501),
    ],
    ids=["at_budget", "past_budget", "deep", "postfix_at", "postfix_past", "next_at", "literal_past"],
)
def test_one_operator_budget_per_refinement(operators, first, total):
    text, _ = refinement(operators)
    text = text.replace("(1 + ", f"({first} + ", 1)
    assert len(OPERATOR.findall(text.splitlines()[3])) == total
    if total <= 500:
        parse(text)
        return
    with pytest.raises(ParseFailure) as info:
        parse(text + "protocol Q [A] { msg }\n")
    # one error, at the operator past the budget; parsing resumes at the next declaration
    assert [(e.span.line, e.span.col, e.message) for e in info.value.errors] == [
        (4, nth_operator_col(text, 501), "refinement with more than 500 operators"),
        (10, 22, "expected a message variable, found '}'"),
    ]


def test_each_refinement_has_its_own_operator_budget():
    text, _ = refinement(400)
    dep = text.splitlines()[3]
    parse(text.replace(dep, dep + "\n" + dep.replace("dep n", "dep m")))


CHAIN = "roles A\nprotocol P [A] {\n  msg m : Int by A;\n  dep d : (x : Int) where x == %s by A;\n  end\n}\n"


@pytest.mark.parametrize("terms", [102, 200, 500, 501, 5000])
@pytest.mark.parametrize("grouped", [False, True], ids=["flat", "parenthesised"])
def test_a_chain_is_bounded_by_the_operator_budget_alone(terms, grouped):
    # 500 terms take 499 '+' and the '==': the budget exactly
    chain = " + ".join(["m"] * terms)
    text = CHAIN % (f"({chain})" if grouped else chain)
    if terms <= 500:
        expr, depth = parse(text).protocols[0].body[1].rtype.predicate.rhs, 0
        while isinstance(expr, Arith):  # one left-nested chain
            expr, depth = expr.lhs, depth + 1
        assert depth == terms - 1
        return
    with pytest.raises(ParseFailure) as info:
        parse(text + "protocol Q [A] { msg }\n")
    # one error, at the operator past the budget; parsing resumes at the next declaration
    assert [(e.span.line, e.span.col, e.message) for e in info.value.errors] == [
        (4, nth_operator_col(text, 501), "refinement with more than 500 operators"),
        (7, 22, "expected a message variable, found '}'"),
    ]


BAD_ARM = "roles A, B\nprotocol P [A, B] {\n  msg m : Int by A;\n  send m A -> B;\n  read m { %s }\n}\n"


@pytest.mark.parametrize(
    "arms, errors",
    [
        ("1.5 => end; _ => end", [(5, 13, "expected '=>', found '.'")]),
        ("9" * 5000 + " => end; _ => end", [(5, 12, "integer literal longer than 4300 digits")]),
        ("1.5 => msg x : Int by A; send x A -> B; read x { _ => end }; 2 => end", [(5, 13, "expected '=>', found '.'")]),
        ("0 => end; 1.5 => end", [(5, 23, "expected '=>', found '.'")]),
        ("1.5 => end", [(5, 13, "expected '=>', found '.'")]),
        ("", [(5, 13, "expected a pattern (constructor tag, literal, or '_')")]),
        ("1.5 => end; 2.5 => end; _ => end", [(5, 13, "expected '=>', found '.'"), (5, 25, "expected '=>', found '.'")]),
    ],
    ids=["float", "long_literal", "long_arm", "last_arm", "only_arm", "no_arm", "two_bad_arms"],
)
def test_bad_read_arm_pattern_gives_one_error_per_arm(arms, errors):
    # recovery skips to the next arm inside the read; the read's '}' is not
    # taken for the protocol's, so nothing cascades to the top level
    with pytest.raises(ParseFailure) as info:
        parse(BAD_ARM % arms + "protocol Q [A] { msg }\n")
    got = [(e.span.line, e.span.col, e.message) for e in info.value.errors]
    assert got == errors + [(7, 22, "expected a message variable, found '}'")]


READ_HEAD = "roles A\nprotocol P [A] {\n  msg m : Int by A;\n  read m { "


def test_semicolon_after_the_last_read_arm():
    file = parse(READ_HEAD + "_ => end; }\n}\n")
    read = file.protocols[0].body[-1]
    assert read == ReadCase(VarId("m"), (Arm(WildPat(), (End(),)),))
    assert read.span == Span(4, 3, 20)


@pytest.mark.parametrize(
    "rest, errors",
    [
        # the arm body starts with the next arm's pattern: the empty body's
        # error stands for the missing ';', and the next arm parses
        ("1 => 2 => end }\n}\n", [(4, 17, "expected a statement")]),
        # a ';' missing after a whole arm: one error, and the read keeps its '}'
        ("1 => end 2 => end }\n}\n", [(4, 21, "expected '}', found '2'")]),
        # a bad arm head with no ';' or '}' before the next declaration:
        # arm recovery stays put and statement recovery takes over
        ("1 end\nprotocol Q [A] { end }\n", [(4, 14, "expected '=>', found 'end'"), (5, 1, "expected '}', found 'protocol'")]),
        # the same at the end of the input
        ("1 end", [(4, 14, "expected '=>', found 'end'"), (4, 17, "expected '}', found end of input")]),
    ],
    ids=["arm_in_arm", "arm_after_arm", "no_boundary_before_protocol", "no_boundary_before_eof"],
)
def test_read_arm_recovery_edges(rest, errors):
    with pytest.raises(ParseFailure) as info:
        parse(READ_HEAD + rest)
    assert [(e.span.line, e.span.col, e.message) for e in info.value.errors] == errors


def test_unicode_identifiers_rejected_as_parse_errors():
    # str.isalpha/isdigit accept these; the lexer must not
    for src in ("roles Alicé", "roles A\nprotocol P [A] { msg m : Int by A; send m¹ A -> B; end }"):
        with pytest.raises(ParseFailure):
            parse(src)


def test_parser_never_crashes_on_token_soup():
    import random

    from sessioncheck import check_file

    vocab = [
        "roles", "type", "protocol", "entry", "msg", "dep", "send", "read", "rec",
        "call", "then", "end", "by", "where", "literal", "next", "and", "or",
        "true", "false", "Int", "Bool", "Str", "A", "m1", "P", "{", "}", "(", ")",
        "[", "]", "<", ">", ",", ";", ":", "|", "=", "==", "=>", "->", ".", "+",
        "-", "*", "!", "_", "5", '"x"', "--c\n", "\n", "@", "é", "¹",
    ]
    rng = random.Random(31337)
    for _ in range(800):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
        try:
            check_file(parse(text))
        except ParseFailure:
            pass


# ---------------------------------------------------------------------------
# Traces


def test_trace_example():
    trace = parse_trace("m1 = (SYN, 100)")
    assert len(trace.bindings) == 1
    binding = trace.bindings[0]
    assert binding.var == VarId("m1")
    assert binding.value == TupleV((ConV("SYN"), IntV(100)))


def test_trace_empty_file():
    assert parse_trace("").bindings == ()
    assert parse_trace("-- nothing here\n").bindings == ()


def test_trace_malformed():
    with pytest.raises(ParseFailure):
        parse_trace("m1 = (SYN,")


def test_trace_value_forms():
    trace = parse_trace(
        """
m1 = -42
m2 = true
m3 = "hi there"
m4 = Add(2, 3)
m5 = Wrap((1, 2))
"""
    )
    values = [b.value for b in trace.bindings]
    assert values == [
        IntV(-42),
        BoolV(True),
        StrV("hi there"),
        ConV("Add", TupleV((IntV(2), IntV(3)))),
        ConV("Wrap", TupleV((IntV(1), IntV(2)))),
    ]
