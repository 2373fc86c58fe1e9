"""Checker transitions, diagnostics, recovery, and oracle agreement."""

from __future__ import annotations

import random

import pytest

from conftest import check_source
from gen import gen_checkable_file
from oracle import comparable_index, oracle_check
from sessioncheck import check_file, parse
from sessioncheck.diagnostics import ERROR, WARNING
from sessioncheck.model import knows
from sessioncheck.syntax import NewMsg, NewDepMsg


def codes(result, severity=ERROR):
    return [d.code for d in result.diagnostics if d.severity == severity]


def index_shape(index):
    return [(item.var.name, tuple(r.name for r in item.knowers)) for item in index]


# ---------------------------------------------------------------------------
# Corpus behaviour


def test_tcp_final_index(corpus):
    result = check_file(parse((corpus / "tcp.ssn").read_text()))
    assert result.ok and result.diagnostics == []
    assert len(result.final_indices) == 1
    label, index = result.final_indices[0]
    assert label == "Tcp"
    assert index_shape(index) == [
        ("m1", ("Alice", "Bob")),
        ("m2", ("Bob", "Alice")),
        ("m3", ("Alice", "Bob")),
    ]


def test_server_and_hoppy_clean(corpus):
    for name in ("server.ssn", "hoppy.ssn"):
        result = check_file(parse((corpus / name).read_text()))
        assert result.diagnostics == [], name
        assert result.final_indices, name


def test_server_paths_labelled_by_arm(corpus):
    result = check_file(parse((corpus / "server.ssn").read_text()))
    labels = [label for label, _ in result.final_indices]
    assert "Server/Quit" in labels
    assert any(label.startswith("Server/Math") for label in labels)
    assert any(label.startswith("Server/Echo") for label in labels)


def test_charlie_rejected_with_single_e004(corpus):
    text = (corpus / "charlie.ssn").read_text()
    result = check_file(parse(text))
    errors = result.errors
    assert [d.code for d in errors] == ["E004"]
    d = errors[0]
    line = text.splitlines()[d.span.line - 1]
    stmt = line[d.span.col - 1 : d.span.col - 1 + d.span.length]
    assert stmt.startswith("dep m3") and stmt.endswith("by Charlie")
    assert result.final_indices == []
    # the secondary span points at where the unknown dependency was created
    assert d.related is not None
    related_line = text.splitlines()[d.related.line - 1]
    assert related_line[d.related.col - 1 :].startswith("dep m2")


# ---------------------------------------------------------------------------
# Single-rule behaviour


def test_newmsg_creator_must_participate():
    result = check_source("roles A, B\nprotocol P [A] { msg m : Int by B; end }")
    assert codes(result) == ["E002"]


def test_send_requires_knowledge():
    src = """roles A, B, C
protocol P [A, B, C] {
  msg m : Int by A;
  send m A -> B;
  send m C -> B;
  end
}
"""
    assert codes(check_source(src)) == ["E003"]


def test_related_span_is_the_binding_on_this_path():
    # E003 and E009 point back at where the message was created; each arm
    # of a read binds its own 'x', and its diagnostics point at that arm's
    # binding, not the other's
    src = """roles A, B
protocol P [A, B] {
  msg c : Bool by A;
  send c A -> B;
  read c {
    true =>
      msg x : Int by A;
      send x B -> A;
      msg x : Int by B;
      end;
    _ =>
      msg x : Int by B;
      send x A -> B;
      msg x : Int by A;
      end
  }
}
"""
    result = check_source(src)
    found = [(d.code, d.span.line, d.related.line, d.related.col, d.related.length) for d in result.errors]
    assert found == [
        ("E003", 8, 7, 7, 16),
        ("E009", 9, 7, 7, 16),
        ("E003", 13, 12, 7, 16),
        ("E009", 14, 12, 7, 16),
    ]


DUPLICATE_TYPE = """roles A, B
type T = X | Y
type T = Z
protocol P [A, B] {
  msg m : T by A;
  send m A -> B;
  read m { X => end; Y => end }
}
"""

DUPLICATE_PROTOCOL = """roles A, B, C
protocol Sub [A, B] { end }
protocol Sub [B, C] { end }
protocol Main [A, B] { call Sub }
entry Main
"""


@pytest.mark.parametrize(
    "src, message",
    [(DUPLICATE_TYPE, "duplicate type 'T'"), (DUPLICATE_PROTOCOL, "duplicate protocol 'Sub'")],
    ids=["type", "protocol"],
)
def test_first_declaration_of_a_name_wins(src, message):
    # the duplicate is one E001, and every use of the name means the first
    # declaration: no E006/E001 from the second 'T', no E008 from the second 'Sub'
    result = check_source(src)
    assert [(d.code, d.span.line, d.message) for d in result.diagnostics] == [("E001", 3, message)]


def test_dep_requires_creator_knowledge():
    src = """roles A, B
protocol P [A, B] {
  msg m : Int by A;
  dep d : (x : Int) where x == m + 1 by B;
  end
}
"""
    assert codes(check_source(src)) == ["E004"]


def test_dep_with_no_dependencies_is_fine():
    src = 'roles A\nprotocol P [A] { dep d : Str where literal("x") by A; end }'
    assert check_source(src).ok


def test_read_requires_all_know():
    src = """roles A, B, C
protocol P [A, B, C] {
  msg m : Int by A;
  send m A -> B;
  read m { _ => end }
}
"""
    assert codes(check_source(src)) == ["E005"]


def test_read_coverage_missing_tag():
    src = """roles A, B
type CMD = Math | Echo | Quit
protocol P [A, B] {
  msg m : CMD by A;
  send m A -> B;
  read m {
    Math => end;
    Echo => end
  }
}
"""
    result = check_source(src)
    assert codes(result) == ["E006"]
    assert "Quit" in result.errors[0].message


def test_read_wildcard_covers():
    src = """roles A, B
type CMD = Math | Echo | Quit
protocol P [A, B] {
  msg m : CMD by A;
  send m A -> B;
  read m {
    Math => end;
    _ => end
  }
}
"""
    assert check_source(src).ok


def test_literal_read_needs_wildcard():
    src = """roles A
protocol P [A] {
  msg m : Int by A;
  read m { 1 => end; 2 => end }
}
"""
    assert codes(check_source(src)) == ["E006"]


def test_terminator_not_in_tail():
    result = check_source("roles A\nprotocol P [A] { end; end }")
    assert codes(result) == ["E007"]
    # recovery drops the stray terminator, so exactly one path is left
    assert result.final_indices == []  # errors suppress final indices


def test_read_not_in_tail():
    src = """roles A
protocol P [A] {
  msg m : Int by A;
  read m { _ => end };
  end
}
"""
    assert codes(check_source(src)) == ["E007"]


def test_call_overlapping():
    accepted = """roles A, B, C
protocol Sub [A, B, C] { end }
protocol P [A, B, C] { call Sub }
entry P
"""
    assert check_source(accepted).ok
    rejected = """roles A, B, C
protocol Sub [A, B, C] { end }
protocol P [A, B] { call Sub }
entry P
"""
    assert codes(check_source(rejected)) == ["E008"]


def test_call_overlapping_is_order_sensitive():
    src = """roles A, B
protocol Sub [B, A] { end }
protocol P [A, B] { call Sub }
entry P
"""
    assert codes(check_source(src)) == ["E008"]


def test_unbound_and_duplicate_vars():
    assert codes(check_source("roles A, B\nprotocol P [A, B] { send m A -> B; end }")) == ["E009"]
    src = "roles A, B\nprotocol P [A, B] { msg m : Int by A; msg m : Str by B; end }"
    assert codes(check_source(src)) == ["E009"]


def test_ill_kinded_refinement():
    src = "roles A\nprotocol P [A] { dep d : (x : Int) where x == true by A; end }"
    assert codes(check_source(src)) == ["E010"]


def test_self_send():
    src = "roles A\nprotocol P [A] { msg m : Int by A; send m A -> A; end }"
    assert codes(check_source(src)) == ["E011"]


def test_entry_must_be_ground():
    src = "roles A\nprotocol H<p : protocol[A]> [A] { call p }\nentry H"
    assert codes(check_source(src)) == ["E012"]


def test_unresolved_role_in_send():
    src = "roles A\nprotocol P [A] { msg m : Int by A; send m A -> Z; end }"
    assert codes(check_source(src)) == ["E001"]


def test_default_entry_rules():
    assert check_source("roles A\nprotocol P [A] { end }").ok
    two = "roles A\nprotocol P [A] { end }\nprotocol Q [A] { end }"
    assert "E001" in codes(check_source(two))
    assert check_source(two + "\nentry Q").ok


def test_unguarded_recursion_warns():
    result = check_source("roles A\nprotocol P [A] { rec }")
    assert codes(result, ERROR) == []
    assert codes(result, WARNING) == ["E007"]
    assert result.final_indices and result.final_indices[0][0] == "P (rec)"


def test_guarded_recursion_silent():
    src = "roles A, B\nprotocol P [A, B] { msg m : Int by A; send m A -> B; rec }"
    result = check_source(src)
    assert result.diagnostics == []


def test_multiple_independent_errors_all_reported():
    src = """roles A, B, C
protocol P [A, B] {
  msg m : Int by C;
  send m A -> A;
  read q { _ => end }
}
"""
    result = check_source(src)
    assert sorted(codes(result)) == ["E002", "E003", "E009", "E011"]


def test_recovery_keeps_downstream_clean():
    # after the duplicate binding, the second creator still counts as a knower
    src = """roles A, B
protocol P [A, B] {
  msg m : Int by A;
  msg m : Int by B;
  send m B -> A;
  end
}
"""
    assert codes(check_source(src)) == ["E009"]


# ---------------------------------------------------------------------------
# Parametric protocols


HOPPY = """roles A, B, C
protocol Auth [A, B] {
  msg s : Str by A;
  send s A -> B;
  end
}
protocol Wide [A, C] { end }
protocol H<body : protocol[A, B]> [A, B] {
  msg m : Str by A;
  send m A -> B;
  call body
}
protocol Main [A, B] { call H(Auth) }
entry Main
"""


def test_monomorphized_instantiation_accepted():
    assert check_source(HOPPY).ok


def test_argument_signature_mismatch():
    src = HOPPY.replace("call H(Auth)", "call H(Wide)")
    assert codes(check_source(src)) == ["E008"]


def test_arity_mismatch_is_e001():
    src = HOPPY.replace("call H(Auth)", "call H")
    assert codes(check_source(src)) == ["E001"]
    src = HOPPY.replace("call H(Auth)", "call H(Auth, Auth)")
    assert codes(check_source(src)) == ["E001"]


def test_uninstantiated_parametric_checked_against_signature():
    src = """roles A, B, C
protocol H<body : protocol[B, A]> [A, B] { call body }
protocol Main [A, B] { end }
entry Main
"""
    # signature [B, A] is not a subsequence of participants [A, B]
    assert codes(check_source(src)) == ["E008"]


def test_parametric_argument_must_be_ground():
    src = """roles A, B
protocol G<p : protocol[A]> [A] { call p }
protocol H<body : protocol[A, B]> [A, B] { call body }
protocol Main [A, B] { call H(G) }
entry Main
"""
    assert "E001" in codes(check_source(src))


# ---------------------------------------------------------------------------
# Frame and transparency properties on the step log


def test_call_transparency(corpus):
    result = check_file(parse((corpus / "server.ssn").read_text()), record_steps=True)
    call_steps = [rec for rec in result.step_log if rec.text.startswith("call ")]
    assert call_steps
    for rec in call_steps:
        # the caller's index at the call equals the last prefix snapshot
        same_path = [r for r in result.step_log if r.path == rec.path or rec.path.startswith(r.path + "/")]
        before = [r for r in same_path if r is not rec]
        if before:
            assert rec.index_after == before[-1].index_after


def test_creator_self_knowledge_everywhere(corpus):
    for name in ("tcp.ssn", "server.ssn", "hoppy.ssn"):
        file = parse((corpus / name).read_text())
        result = check_file(file, record_steps=True)
        creations = {
            stmt.span: stmt
            for proto in file.protocols
            for stmt in _walk_stmts(proto.body)
            if isinstance(stmt, (NewMsg, NewDepMsg))
        }
        checked = [rec for rec in result.step_log if rec.span in creations]
        assert checked
        for rec in checked:
            stmt = creations[rec.span]
            assert knows(rec.index_after, stmt.var, stmt.creator)


def _walk_stmts(block):
    for stmt in block:
        yield stmt
        if hasattr(stmt, "arms"):
            for arm in stmt.arms:
                yield from _walk_stmts(arm.body)


def test_determinism(corpus):
    text = (corpus / "server.ssn").read_text()
    a = check_file(parse(text))
    b = check_file(parse(text))
    assert a.diagnostics == b.diagnostics
    assert a.final_indices == b.final_indices


def test_record_steps_cannot_change_verdict():
    rng = random.Random(20260810)  # the generated files of acceptance criterion 04
    for _ in range(1000):
        file = gen_checkable_file(rng)
        plain = check_file(file)
        recorded = check_file(file, record_steps=True)
        assert plain.diagnostics == recorded.diagnostics
        assert plain.final_indices == recorded.final_indices
        assert plain.step_log == []
        assert recorded.step_log


def test_oracle_agreement_sample():
    rng = random.Random(987654)
    for _ in range(300):
        file = gen_checkable_file(rng)
        result = check_file(file)
        accepted, finals = oracle_check(file)
        assert result.ok == accepted
        if accepted:
            assert [(lbl, comparable_index(idx)) for lbl, idx in result.final_indices] == finals


# ---------------------------------------------------------------------------
# Exact diagnostics of the declaration, call and refinement rules

# source -> every diagnostic as (code, line, col, message)
EXACT = {
    "duplicate role": (
        "roles A, B, A\nprotocol P [A, B] { msg x : Int by A; send x A -> B; end }\n",
        [("E001", 1, 13, "duplicate role 'A'")],
    ),
    "duplicate constructor": (
        "roles A, B\ntype T = X | Y | X\nprotocol P [A, B] { msg x : T by A; send x A -> B; end }\n",
        [("E001", 2, 18, "duplicate constructor 'X' in type 'T'")],
    ),
    "duplicate parameter": (
        "roles A, B\nprotocol Q [A, B] { end }\n"
        "protocol P<q : protocol[A, B], q : protocol[A]> [A, B] { call q }\n"
        "protocol M [A, B] { call P(Q, Q) }\nentry M\n",
        [
            ("E001", 3, 32, "duplicate parameter 'q'"),
            ("E008", 4, 21, "'Q' has participants [A, B] but parameter 'q' declares [A]"),
        ],
    ),
    "parameter shadows a protocol": (
        "roles A, B\nprotocol Q [A, B] { end }\nprotocol P<Q : protocol[A, B]> [A, B] { call Q }\nentry Q\n",
        [("E001", 3, 12, "parameter 'Q' shadows a declared protocol")],
    ),
    "participant list": (
        "roles A, B\nprotocol P [A, C, A] { end }\n",
        [
            ("E001", 2, 1, "duplicate participant 'A' in protocol 'P'"),
            ("E001", 2, 1, "unknown role 'C' in protocol 'P'"),
        ],
    ),
    "parameter signature": (
        "roles A, B\nprotocol Q [A, B] { end }\nprotocol P<q : protocol[B, D, B]> [A, B] { call q }\nentry Q\n",
        [
            ("E001", 3, 12, "duplicate participant 'B' in parameter 'q'"),
            ("E001", 3, 12, "unknown role 'D' in parameter 'q'"),
            ("E008", 3, 44, "callee participants [B, D, B] do not appear in order within [A, B]"),
        ],
    ),
    "unknown type": (
        "roles A, B\ntype T = X(Nope) | Y\nprotocol P [A, B] { msg x : (Int, Missing) by A; send x A -> B; end }\n",
        [("E001", 2, 12, "unknown type 'Nope'"), ("E001", 3, 35, "unknown type 'Missing'")],
    ),
    "read over an unknown type": (
        "roles A, B\nprotocol P [A, B] { msg t : Nope by A; send t A -> B; read t { X => end } }\n",
        [("E001", 2, 29, "unknown type 'Nope'")],
    ),
    "undeclared entry": (
        "roles A, B\nprotocol P [A, B] { end }\nentry Nowhere\n",
        [("E001", 1, 1, "entry protocol 'Nowhere' is not declared")],
    ),
    "unknown callee": (
        "roles A, B\nprotocol P [A, B] { call Nowhere }\n",
        [("E001", 2, 21, "unknown protocol 'Nowhere'")],
    ),
    "unknown protocol argument": (
        "roles A, B\nprotocol Q<q : protocol[A, B]> [A, B] { call q }\nprotocol P [A, B] { call Q(Nowhere) }\nentry P\n",
        [("E001", 3, 21, "unknown protocol 'Nowhere'")],
    ),
    "parameter called with arguments": (
        "roles A, B\nprotocol R [A, B] { end }\nprotocol Q<q : protocol[A, B]> [A, B] { call q(R) }\n"
        "protocol P [A, B] { call Q(R) }\nentry P\n",
        [("E001", 3, 41, "protocol parameter 'q' takes no arguments [in Q<R>]")],
    ),
    "no such constructor": (
        "roles A, B\ntype T = X | Y\n"
        "protocol P [A, B] { msg t : T by A; send t A -> B; read t { X => end; Z => end; _ => end } }\n",
        [("E001", 3, 71, "'T' has no constructor 'Z'")],
    ),
    "predicate names an unbound variable": (
        "roles A, B\nprotocol P [A, B] { dep y : (v : Int) where v == ghost by A; send y A -> B; end }\n",
        [("E009", 2, 21, "predicate references 'ghost', which is not bound on this path")],
    ),
    "refinement not Bool": (
        "roles A, B\nprotocol P [A, B] { msg x : Int by A; dep y : (v : Int) where v + x by A; send y A -> B; end }\n",
        [("E010", 2, 39, "refinement must be Bool, found Int")],
    ),
    "inside an instantiation": (
        "roles Alice, Bob, Carol\n"
        "protocol Auth [Alice, Bob] { msg secret : Str by Alice; send secret Alice -> Bob; end }\n"
        "protocol Hoppy<body : protocol[Alice, Bob]> [Alice, Bob] {\n"
        "  msg creds : Str by Carol;\n  send creds Alice -> Bob;\n  call body\n}\n"
        "protocol Main [Alice, Bob] { call Hoppy(Auth) }\nentry Main\n",
        [
            ("E002", 4, 3, "creator 'Carol' is not a participant of protocol 'Hoppy' [in Hoppy<Auth>]"),
            ("E003", 5, 3, "sender 'Alice' does not know 'creds' [in Hoppy<Auth>]"),
        ],
    ),
}


@pytest.mark.parametrize("name", list(EXACT))
def test_exact_diagnostics(name):
    src, expected = EXACT[name]
    result = check_source(src)
    assert [(d.code, d.span.line, d.span.col, d.message) for d in result.diagnostics] == expected
    assert all(d.severity == ERROR for d in result.diagnostics)


REFINED_PAIR = """roles A, B
protocol P [A, B] {
  dep p : (lo : Int, hi : Int) where lo < hi by A;
  msg n : Int by A;
  dep q : (v : Int) where %s by A;
  send q A -> B;
  end
}
"""


# Each ill-kinded predicate gives one E010 at the operand or node it names.
# Arith and BoolOp check each side as soon as they kind it, so `true + p.1`
# stops at `true`; Cmp kinds both sides first, so `true < p.1` reports the
# projection.
KIND_ERRORS = [
    ("v == p!.2", None, None),
    ("p!.1 < v and v < p!.2", None, None),
    ("v == p.2", 32, "projection needs a tuple, found (lo : Int, hi : Int) where lo < hi"),
    ("v == p!.3", 32, "position 3 exceeds tuple arity 2"),
    ("v == n!", 32, "'!' unwraps refined values only, found Int"),
    ("v == p!", 32, "'==' compares Int/Bool/Str values, found (Int, Int)"),
    ("v == n.1", 32, "projection needs a tuple, found Int"),
    ("v == true + p.1", 32, "'+' needs Int operands, found Bool"),
    ("true < p.1", 34, "projection needs a tuple, found (lo : Int, hi : Int) where lo < hi"),
    ("p! == p.1", 33, "projection needs a tuple, found (lo : Int, hi : Int) where lo < hi"),
    ("1 and p.1", 27, "'and' needs Bool operands, found Int"),
    ("n or v == 1", 27, "'or' needs Bool operands, found Int"),
    ("v <= true", 32, "'<=' needs Int operands, found Bool"),
    ("v == p!.1 * true", 39, "'*' needs Int operands, found Bool"),
    ('v == "s"', 27, "'==' needs matching kinds, found Int vs Str"),
]


@pytest.mark.parametrize("predicate, col, message", KIND_ERRORS, ids=[f"{p}-{m}" for p, _, m in KIND_ERRORS])
def test_projection_and_unwrap_of_a_refined_tuple(predicate, col, message):
    result = check_source(REFINED_PAIR % predicate)
    expected = [] if message is None else [("E010", 5, col, f"ill-kinded refinement: {message}")]
    assert [(d.code, d.span.line, d.span.col, d.message) for d in result.diagnostics] == expected


def test_a_predicate_that_is_not_bool():
    result = check_source(REFINED_PAIR % "v + 1")
    assert [(d.code, d.span.line, d.span.col, d.message) for d in result.diagnostics] == [
        ("E010", 5, 3, "refinement must be Bool, found Int")
    ]


def test_a_repeated_parameter_name_calls_with_its_first_signature():
    # Both arguments fit their own parameter, so Hub<X, Y> is checked; inside
    # it `q` means the first `q`, whose participants [A, C] fit Hub's.
    src = (
        "roles A, B, C\nprotocol X [A, C] { end }\nprotocol Y [B, C] { end }\n"
        "protocol Hub<q : protocol[A, C], q : protocol[B, C]> [A, C] { call q }\n"
        "protocol M [A, B, C] { call Hub(X, Y) }\nentry M\n"
    )
    result = check_source(src)
    assert [(d.code, d.span.line, d.span.col, d.message) for d in result.diagnostics] == [
        ("E001", 4, 34, "duplicate parameter 'q'")
    ]
