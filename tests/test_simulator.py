"""Trace execution: refinement verdicts, branching, loops, failure modes."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from conftest import CORPUS
from sessioncheck import check_file, parse, parse_trace
from sessioncheck.jsonout import write_report
from sessioncheck.model import VarId
from sessioncheck.simulator import (
    CaseTaken,
    Completed,
    EvalError,
    MsgCreated,
    ProtocolEvent,
    RefinementChecked,
    RefinementViolated,
    Sent,
    TraceExhausted,
    TraceMismatch,
    eval_ref,
    run_trace,
)
from sessioncheck.syntax import BoolV, ConV, IntV, NewDepMsg, NewMsg, ProtocolDecl, ReadCase, Send, SourceFile, StrV, TupleV


# ---------------------------------------------------------------------------
# eval_ref


def test_eval_projection_increment():
    from sessioncheck.model import Arith, IntLit, Proj, VarRef

    expr = Arith("+", Proj(VarRef(VarId("m1")), 2), IntLit(1))
    value = eval_ref(expr, {"m1": TupleV((ConV("SYN"), IntV(100)))}, None)
    assert value == IntV(101)


def test_eval_literal_equality():
    from sessioncheck.model import BinderRef, Cmp, StrLit

    expr = Cmp("==", BinderRef(), StrLit("Hello"), "literal")
    assert eval_ref(expr, {}, StrV("Hello")).value is True
    assert eval_ref(expr, {}, StrV("Bye")).value is False


def test_eval_comparison():
    from sessioncheck.model import Cmp, IntLit

    assert eval_ref(Cmp("<", IntLit(1), IntLit(2)), {}, None).value is True


def test_eval_errors():
    from sessioncheck.model import Arith, IntLit, Proj, StrLit, VarRef

    with pytest.raises(EvalError):
        eval_ref(VarRef(VarId("missing")), {}, None)
    with pytest.raises(EvalError):
        eval_ref(Proj(IntLit(1), 1), {}, None)
    with pytest.raises(EvalError):
        eval_ref(Arith("+", StrLit("a"), IntLit(1)), {}, None)


# ---------------------------------------------------------------------------
# Corpus runs


def load(corpus, name):
    file = parse((corpus / name).read_text())
    assert check_file(file).ok
    return file


def trace_of(corpus, name):
    return parse_trace((corpus / name).read_text())


def test_tcp_good_trace_completes(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), trace_of(corpus, "tcp_good.trace"))
    assert isinstance(report.status, Completed)
    verdicts = [e for e in report.events if isinstance(e, RefinementChecked)]
    assert [e.var for e in verdicts] == ["m2", "m3"]
    assert all(e.verdict for e in verdicts)


def test_tcp_mutated_m2_names_m2(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), trace_of(corpus, "tcp_bad_m2.trace"))
    assert report.status == RefinementViolated("m2")


def test_tcp_mutated_m3_names_m3(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), trace_of(corpus, "tcp_bad_m3.trace"))
    assert report.status == RefinementViolated("m3")


def test_server_quit_completes_via_quit_arm(corpus):
    report = run_trace(load(corpus, "server.ssn"), trace_of(corpus, "server_quit.trace"))
    assert isinstance(report.status, Completed)
    assert CaseTaken("cmd", "Quit") in report.events


def test_server_echo_round(corpus):
    report = run_trace(load(corpus, "server.ssn"), trace_of(corpus, "server_echo.trace"))
    assert isinstance(report.status, Completed)
    assert ProtocolEvent("called", "DoEcho") in report.events
    assert ProtocolEvent("recursed", "Server") in report.events
    verdicts = [e for e in report.events if isinstance(e, RefinementChecked)]
    assert [e.var for e in verdicts] == ["welcome", "reply"]


def server_rounds(rounds: int) -> str:
    """A ``server.ssn`` trace of ``rounds`` Echo and Math rounds, then Quit."""
    lines = []
    for i in range(rounds):
        if i % 2:
            lines += ["cmd = Math", f"op = Add({i}, 1)", f"result = {i + 1}"]
        else:
            lines += ["cmd = Echo", 'welcome = "Welcome to Echo!"', f'request = "r{i}"', f'reply = "r{i}"']
    return "\n".join(lines + ["cmd = Quit"]) + "\n"


def statements(block, kind):
    """The statements of ``kind`` in ``block`` and in the bodies of its arms."""
    for stmt in block:
        if isinstance(stmt, kind):
            yield stmt
        elif isinstance(stmt, ReadCase):
            for arm in stmt.arms:
                yield from statements(arm.body, kind)


def test_a_loop_shares_its_events_across_rounds(corpus):
    file = load(corpus, "server.ssn")
    report = run_trace(file, parse_trace(server_rounds(200)))
    assert isinstance(report.status, Completed)
    sent = [e for e in report.events if isinstance(e, Sent)]
    assert len(sent) == 100 * (2 + 4) + 100 * (2 + 3) + 2  # Server's two sends of cmd and the callee's, and Quit's

    def count(kind) -> int:
        return sum(len(list(statements(p.body, kind))) for p in file.protocols)

    # distinct objects are bounded by the statements, not by the rounds
    assert count(Send) == 9
    assert len({id(e) for e in sent}) <= count(Send)
    assert len({id(e.index_after) for e in sent}) <= count(Send)
    # each msg/dep builds one item per run, and each send one grown item
    assert len({id(item) for e in sent for item in e.index_after.items}) <= count((NewMsg, NewDepMsg, Send)) == 15
    predicates = [e.predicate for e in report.events if isinstance(e, RefinementChecked)]
    assert len(predicates) == 200 and len({id(p) for p in predicates}) <= count(NewDepMsg) == 2
    assert len({id(e) for e in report.events if isinstance(e, CaseTaken)}) == 3
    # one object per protocol step: called and ended for each callee, recursed into and ended Server
    steps = [e for e in report.events if isinstance(e, ProtocolEvent)]
    assert len(steps) == 100 * 3 + 100 * 3 + 1 and len({id(e) for e in steps}) == len(set(steps)) == 6
    # a value event is shared when its node meets the same value object again
    created = [e for e in report.events if isinstance(e, MsgCreated)]
    assert len(created) == 100 * 3 + 100 * 4 + 1
    assert len({id(e) for e in created}) <= len({(e.var, e.creator, e.value) for e in created}) == 404
    assert len({id(e) for e in report.events if isinstance(e, MsgCreated) and e.var == "cmd"}) == 3
    checked = [e for e in report.events if isinstance(e, RefinementChecked)]
    assert len({id(e) for e in checked}) <= len({(e.var, e.witness) for e in checked}) == 101
    buf = io.StringIO()
    with redirect_stdout(buf):
        write_report(report)
    assert buf.getvalue() == json.dumps(report.to_json(), indent=2) + "\n"


def test_server_echo_wrong_reply_violates(corpus):
    trace = parse_trace('cmd = Echo\nwelcome = "Welcome to Echo!"\nrequest = "hi"\nreply = "ho"\ncmd = Quit')
    report = run_trace(load(corpus, "server.ssn"), trace)
    assert report.status == RefinementViolated("reply")


def test_a_shared_reply_is_checked_against_the_new_request(corpus):
    # The second `reply` is the very object the first round accepted, but
    # its `request` is another value now, so its verdict must be computed again.
    echo = 'cmd = Echo\nwelcome = "Welcome to Echo!"\nrequest = "{}"\nreply = "a"\n'
    trace = parse_trace(echo.format("a") + echo.format("b") + "cmd = Quit\n")
    assert trace.bindings[3] is trace.bindings[7]
    report = run_trace(load(corpus, "server.ssn"), trace)
    assert report.status == RefinementViolated("reply")
    verdicts = [(e.var, e.verdict) for e in report.events if isinstance(e, RefinementChecked)]
    assert verdicts == [("welcome", True), ("reply", True), ("welcome", True), ("reply", False)]


def test_server_math_round(corpus):
    report = run_trace(load(corpus, "server.ssn"), trace_of(corpus, "server_math.trace"))
    assert isinstance(report.status, Completed)
    assert ProtocolEvent("called", "DoMath") in report.events
    assert CaseTaken("cmd", "Math") in report.events


def test_hoppy_runs_parameter_body(corpus):
    report = run_trace(load(corpus, "hoppy.ssn"), trace_of(corpus, "hoppy_grant.trace"))
    assert isinstance(report.status, Completed)
    assert ProtocolEvent("called", "Auth") in report.events
    assert ProtocolEvent("ended", "Auth") in report.events
    deny = run_trace(load(corpus, "hoppy.ssn"), trace_of(corpus, "hoppy_deny.trace"))
    assert isinstance(deny.status, Completed)
    assert ProtocolEvent("called", "Auth") not in deny.events


# ---------------------------------------------------------------------------
# Failure modes


def test_trace_exhausted(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), parse_trace("m1 = (SYN, 100)"))
    assert report.status == TraceExhausted("m2", "trace has no binding left")


def test_trace_name_mismatch(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), parse_trace("wrong = (SYN, 100)"))
    assert isinstance(report.status, TraceMismatch)
    assert report.status.var == "m1"


def test_trace_type_mismatch(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), parse_trace('m1 = "nope"'))
    assert isinstance(report.status, TraceMismatch)
    assert report.status.got == StrV("nope")


def test_variant_payload_type_mismatch(corpus):
    trace = parse_trace('cmd = Math\nop = Add("x", 3)')
    report = run_trace(load(corpus, "server.ssn"), trace)
    assert isinstance(report.status, TraceMismatch)
    assert report.status.var == "op"


def test_step_limit():
    file = parse("roles A\nprotocol P [A] { rec }")
    assert not check_file(file).errors
    report = run_trace(file, parse_trace(""), max_steps=50)
    assert isinstance(report.status, TraceExhausted)
    assert "step limit" in report.status.note


def test_leftover_bindings_are_ignored(corpus):
    trace = parse_trace((corpus / "tcp_good.trace").read_text() + "\nextra = 1")
    report = run_trace(load(corpus, "tcp.ssn"), trace)
    assert isinstance(report.status, Completed)
    assert len([e for e in report.events if isinstance(e, MsgCreated)]) == 3


# ---------------------------------------------------------------------------
# Properties


def test_determinism(corpus):
    file = load(corpus, "server.ssn")
    trace = trace_of(corpus, "server_echo.trace")
    assert run_trace(file, trace) == run_trace(file, trace)


def test_trace_linearity(corpus):
    pairs = [
        ("tcp.ssn", "tcp_good.trace"),
        ("server.ssn", "server_echo.trace"),
        ("server.ssn", "server_math.trace"),
        ("hoppy.ssn", "hoppy_grant.trace"),
    ]
    for ssn, tr in pairs:
        trace = trace_of(corpus, tr)
        report = run_trace(load(corpus, ssn), trace)
        created = [e for e in report.events if isinstance(e, MsgCreated)]
        assert len(created) == len(trace.bindings), (ssn, tr)


def test_refinement_completeness(corpus):
    report = run_trace(load(corpus, "tcp.ssn"), trace_of(corpus, "tcp_good.trace"))
    deps = [e for e in report.events if isinstance(e, RefinementChecked)]
    assert len(deps) == 2  # one per executed dependent creation


def test_simulator_matches_checker_indices(corpus):
    pairs = [
        ("tcp.ssn", "tcp_good.trace"),
        ("server.ssn", "server_quit.trace"),
        ("server.ssn", "server_echo.trace"),
        ("server.ssn", "server_math.trace"),
        ("hoppy.ssn", "hoppy_grant.trace"),
        ("hoppy.ssn", "hoppy_deny.trace"),
    ]
    for ssn, tr in pairs:
        file = parse((corpus / ssn).read_text())
        result = check_file(file, record_steps=True)
        assert result.ok
        report = run_trace(file, trace_of(corpus, tr))
        sent_events = [e for e in report.events if isinstance(e, Sent)]
        assert sent_events
        for e in sent_events:
            at_send = [rec.index_after for rec in result.step_log if rec.span == e.span]
            assert e.index_after in at_send, (ssn, tr)


def _without_snapshots(events) -> list:
    return [(e.var, e.sender, e.receiver, e.span, e.knowers) if isinstance(e, Sent) else e for e in events]


def _text_report(report) -> str:
    from sessioncheck.cli import _print_report

    out = io.StringIO()
    with redirect_stdout(out):
        _print_report(report)
    return out.getvalue()


@pytest.mark.parametrize("trace_name", sorted(p.name for p in CORPUS.glob("*.trace")))
def test_a_run_without_snapshots_differs_only_in_them(trace_name):
    """What a text ``simulate`` runs: the same events and status, each
    send's knowers and the same text report, and no snapshot."""
    file = parse((CORPUS / f"{trace_name.split('_')[0]}.ssn").read_text())
    trace = trace_of(CORPUS, trace_name)
    full, bare = run_trace(file, trace), run_trace(file, trace, snapshots=False)
    assert bare.status == full.status
    assert _without_snapshots(bare.events) == _without_snapshots(full.events)
    sent = [e for e in full.events if isinstance(e, Sent)]
    assert sent and all(e.knowers == e.index_after.lookup(VarId(e.var)).knowers for e in sent)
    assert all(e.index_after is None for e in bare.events if isinstance(e, Sent))
    assert _text_report(bare) == _text_report(full)


# ---------------------------------------------------------------------------
# Evaluation, arm selection and trace typing, exactly


def test_eval_remaining_operators():
    from sessioncheck.model import Arith, BinderRef, BoolLit, Cmp, IntLit, StrLit, UnwrapDep

    assert eval_ref(Arith("-", IntLit(5), IntLit(7)), {}, None) == IntV(-2)
    assert eval_ref(Arith("*", IntLit(6), IntLit(7)), {}, None) == IntV(42)
    assert eval_ref(Cmp("!=", StrLit("a"), StrLit("b")), {}, None) == BoolV(True)
    assert eval_ref(Cmp("!=", IntLit(1), IntLit(1)), {}, None) == BoolV(False)
    assert eval_ref(Cmp("<=", IntLit(2), IntLit(2)), {}, None) == BoolV(True)
    assert eval_ref(BoolLit(True), {}, None) == BoolV(True)
    assert eval_ref(BoolLit(False), {}, None) == BoolV(False)
    assert eval_ref(UnwrapDep(BinderRef()), {}, IntV(3)) == IntV(3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda m: m.VarRef(VarId("missing")), "variable 'missing' has no value"),
        (lambda m: m.BinderRef(), "no refined value in scope"),
        (lambda m: m.Proj(m.VarRef(VarId("pair")), 3), "cannot take position 3 of (1, \"a\")"),
        (lambda m: m.Proj(m.IntLit(1), 1), "cannot take position 1 of 1"),
        (lambda m: m.Arith("+", m.BoolLit(True), m.IntLit(1)), "'+' needs integers"),
        (lambda m: m.Arith("-", m.StrLit("a"), m.IntLit(1)), "'-' needs integers"),
        (lambda m: m.Arith("*", m.IntLit(1), m.BoolLit(True)), "'*' needs integers"),
        (lambda m: m.Cmp("<", m.StrLit("a"), m.IntLit(1)), "'<' needs integers"),
        (lambda m: m.Cmp("<=", m.IntLit(1), m.StrLit("a")), "'<=' needs integers"),
        (lambda m: m.BoolOp("and", m.IntLit(1), m.BoolLit(True)), "'and' needs booleans"),
        (lambda m: m.BoolOp("or", m.BoolLit(True), m.StrLit("x")), "'or' needs booleans"),
    ],
)
def test_each_eval_error(build, message):
    from sessioncheck import model

    with pytest.raises(EvalError) as err:
        eval_ref(build(model), {"pair": TupleV((IntV(1), StrV("a")))}, None)
    assert str(err.value) == message


# A plain call inside a looping callee is a tail call: when Inner ends, the
# run goes straight back to the loop in Outer, with no event for Middle.
NESTED_CALLS = """roles A, B
protocol Inner [A, B] { msg i : Int by A; send i A -> B; end }
protocol Middle [A, B] { msg m : Int by A; send m A -> B; call Inner }
protocol Outer [A, B] {
  msg c : Bool by A;
  send c A -> B;
  read c { true => call Middle then rec; _ => end }
}
entry Outer
"""


def event_names(report):
    return [
        (e.kind.capitalize(), e.protocol) if isinstance(e, ProtocolEvent) else (type(e).__name__, e.var)
        for e in report.events
    ]


def test_plain_call_inside_a_looping_callee():
    file = parse(NESTED_CALLS)
    assert check_file(file).diagnostics == []
    report = run_trace(file, parse_trace("c = true\nm = 1\ni = 2\nc = true\nm = 3\ni = 4\nc = false"))
    round_ = [
        ("MsgCreated", "c"), ("Sent", "c"), ("CaseTaken", "c"),
        ("Called", "Middle"), ("MsgCreated", "m"), ("Sent", "m"),
        ("Called", "Inner"), ("MsgCreated", "i"), ("Sent", "i"),
        ("Ended", "Inner"), ("Recursed", "Outer"),
    ]
    last = [("MsgCreated", "c"), ("Sent", "c"), ("CaseTaken", "c"), ("Ended", "Outer")]
    assert event_names(report) == round_ + round_ + last
    assert [e.arm for e in report.events if isinstance(e, CaseTaken)] == ["true", "true", "_"]
    assert report.status == Completed()


LITERAL_ARMS = """roles A, B
protocol P [A, B] {
  msg n : Int by A;
  msg s : Str by A;
  send n A -> B;
  send s A -> B;
  read n {
    -2 => read s { "hi" => end; _ => end };
    7 => end;
    _ => end
  }
}
"""


@pytest.mark.parametrize(
    "trace, arms",
    [
        ('n = -2\ns = "hi"', ["-2", '"hi"']),
        ('n = -2\ns = "ho"', ["-2", "_"]),
        ('n = 7\ns = "hi"', ["7"]),
        ('n = 8\ns = "hi"', ["_"]),
    ],
)
def test_literal_and_wildcard_arms(trace, arms):
    file = parse(LITERAL_ARMS)
    assert check_file(file).diagnostics == []
    report = run_trace(file, parse_trace(trace))
    assert [e.arm for e in report.events if isinstance(e, CaseTaken)] == arms
    assert report.status == Completed()


def test_unchecked_reads_end_in_a_mismatch():
    no_arm = parse("roles A, B\nprotocol P [A, B] { msg n : Int by A; read n { 1 => end } }")
    report = run_trace(no_arm, parse_trace("n = 2"))
    assert report.status == TraceMismatch("n", "a matching arm", IntV(2), "no case arm matches the value")
    no_value = parse("roles A, B\nprotocol P [A, B] { read n { _ => end } }")
    report = run_trace(no_value, parse_trace(""))
    assert report.status == TraceMismatch("n", "bound message", None, "read of a variable with no value")
    assert report.events == []


TYPED = """roles A, B
type T = X | Y(Int) | Z(Int, Str)
protocol P [A, B] { msg v : %s by A; send v A -> B; end }
"""


@pytest.mark.parametrize(
    "type_, value, fits",
    [
        ("Int", "1", True),
        ("Int", '"1"', False),
        ("Bool", "1", False),
        ("Bool", "false", True),
        ("Str", "true", False),
        ("(Int, Str)", '(1, "a")', True),
        ("(Int, Str)", "(1, 2)", False),
        ("(Int, Str)", '(1, "a", 3)', False),
        ("(Int, Str)", "1", False),
        ("T", "X", True),
        ("T", "Y(4)", True),
        ("T", 'Z(4, "a")', True),
        ("T", "W", False),
        ("T", "X(1)", False),
        ("T", "Y", False),
        ("T", 'Y("a")', False),
        ("T", "Z(4)", False),
        ("T", "4", False),
    ],
)
def test_trace_value_against_its_declared_type(type_, value, fits):
    file = parse(TYPED % type_)
    assert check_file(file).diagnostics == []
    report = run_trace(file, parse_trace(f"v = {value}"))
    if fits:
        assert report.status == Completed()
    else:
        got = parse_trace(f"v = {value}").bindings[0].value
        assert report.status == TraceMismatch("v", type_, got, "value does not fit the declared type")
        assert report.events == []


# ---------------------------------------------------------------------------
# Control flow: the step limit, fall-offs, loop-backs and misuse


CHECKED = ("tcp.ssn", "server.ssn", "hoppy.ssn")
TRACES = sorted(p.name for p in CORPUS.glob("*.trace"))


@pytest.mark.parametrize("ssn", CHECKED)
@pytest.mark.parametrize("trace_name", TRACES)
def test_step_limit_cuts_the_unlimited_run(corpus, ssn, trace_name):
    file, trace = load(corpus, ssn), trace_of(corpus, trace_name)
    full = run_trace(file, trace)
    k = 0
    while run_trace(file, trace, max_steps=k) != full:
        k += 1
    for limit in range(k + 2):
        report = run_trace(file, trace, max_steps=limit)
        if limit >= k:
            assert report == full
        else:
            assert report.status == TraceExhausted(None, f"step limit of {limit} exceeded")
            assert report.events == full.events[: len(report.events)]


def without_last_statement(text: str, name: str) -> SourceFile:
    """A parsed file whose protocol ``name`` loses its final terminator, as
    only a hand-built AST can."""
    file = parse(text)
    protocols = tuple(
        ProtocolDecl(p.name, p.params, p.participants, p.body[:-1], p.span) if p.name == name else p
        for p in file.protocols
    )
    return SourceFile(file.roles, file.variants, protocols, file.entry)


def test_a_block_without_a_terminator_runs_as_end():
    file = without_last_statement("roles A, B\nprotocol P [A, B] { msg n : Int by A; send n A -> B; end }", "P")
    report = run_trace(file, parse_trace("n = 1"))
    assert event_names(report) == [("MsgCreated", "n"), ("Sent", "n"), ("Ended", "P")]
    assert report.status == Completed()
    # The implicit end is a step of its own.
    assert run_trace(file, parse_trace("n = 1"), max_steps=3) == report
    cut = run_trace(file, parse_trace("n = 1"), max_steps=2)
    assert cut.status == TraceExhausted(None, "step limit of 2 exceeded")
    assert len(cut.events) == 2


def test_a_callee_falling_off_its_block_loops_back():
    text = "roles A, B\nprotocol Q [A, B] { msg n : Int by A; end }\nprotocol P [A, B] { call Q then rec }\nentry P"
    file = without_last_statement(text, "Q")
    report = run_trace(file, parse_trace("n = 1\nn = 2"), max_steps=9)
    loop = [("Called", "Q"), ("MsgCreated", "n"), ("Ended", "Q"), ("Recursed", "P")]
    assert event_names(report) == loop + loop + [("Called", "Q")]
    assert report.status == TraceExhausted("n", "trace has no binding left")


def test_a_file_without_an_entry_is_refused():
    file = parse("roles A\nprotocol P [A] { end }\nprotocol Q [A] { end }")
    with pytest.raises(ValueError, match="no entry protocol"):
        run_trace(file, parse_trace(""))


def test_an_unresolved_call_is_refused():
    file = parse("roles A\nprotocol P [A] { call Q }")
    with pytest.raises(ValueError, match="call target 'Q' did not resolve"):
        run_trace(file, parse_trace(""))


def test_the_trace_runs_out_inside_a_looping_callee(corpus):
    report = run_trace(load(corpus, "server.ssn"), parse_trace("cmd = Math\nop = Add(2, 3)"))
    assert event_names(report) == [
        ("MsgCreated", "cmd"), ("Sent", "cmd"), ("Sent", "cmd"), ("CaseTaken", "cmd"),
        ("Called", "DoMath"), ("MsgCreated", "op"), ("Sent", "op"), ("Sent", "op"),
    ]
    assert report.status == TraceExhausted("result", "trace has no binding left")


def test_a_variable_mismatch_right_after_a_loop_back(corpus):
    trace = parse_trace("cmd = Math\nop = Add(2, 3)\nresult = 5\nop = Add(1, 1)")
    report = run_trace(load(corpus, "server.ssn"), trace)
    assert event_names(report)[-3:] == [("Sent", "result"), ("Ended", "DoMath"), ("Recursed", "Server")]
    assert report.status == TraceMismatch(
        "cmd", "CMD", trace.bindings[3].value, "trace binds 'op' where 'cmd' was expected"
    )
    # The loop-back starts a fresh index: the first send after it knows only cmd.
    report = run_trace(load(corpus, "server.ssn"), parse_trace("cmd = Math\nop = Add(2, 3)\nresult = 5\ncmd = Quit"))
    sent = [e for e in report.events if isinstance(e, Sent)]
    assert [item.var.name for item in sent[-1].index_after] == ["cmd"]
    assert report.status == Completed()
