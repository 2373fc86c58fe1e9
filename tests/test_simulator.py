"""Trace execution: refinement verdicts, branching, loops, failure modes."""

from __future__ import annotations

import pytest

from sessioncheck import check_file, parse, parse_trace
from sessioncheck.model import VarId
from sessioncheck.simulator import (
    CaseTaken,
    Completed,
    Called,
    Ended,
    EvalError,
    MsgCreated,
    Recursed,
    RefinementChecked,
    RefinementViolated,
    Sent,
    TraceExhausted,
    TraceMismatch,
    eval_ref,
    run_trace,
)
from sessioncheck.syntax import ConV, IntV, StrV, TupleV


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
    assert Called("DoEcho") in report.events
    assert Recursed("Server") in report.events
    verdicts = [e for e in report.events if isinstance(e, RefinementChecked)]
    assert [e.var for e in verdicts] == ["welcome", "reply"]


def test_server_echo_wrong_reply_violates(corpus):
    trace = parse_trace('cmd = Echo\nwelcome = "Welcome to Echo!"\nrequest = "hi"\nreply = "ho"\ncmd = Quit')
    report = run_trace(load(corpus, "server.ssn"), trace)
    assert report.status == RefinementViolated("reply")


def test_server_math_round(corpus):
    report = run_trace(load(corpus, "server.ssn"), trace_of(corpus, "server_math.trace"))
    assert isinstance(report.status, Completed)
    assert Called("DoMath") in report.events
    assert CaseTaken("cmd", "Math") in report.events


def test_hoppy_runs_parameter_body(corpus):
    report = run_trace(load(corpus, "hoppy.ssn"), trace_of(corpus, "hoppy_grant.trace"))
    assert isinstance(report.status, Completed)
    assert Called("Auth") in report.events
    assert Ended("Auth") in report.events
    deny = run_trace(load(corpus, "hoppy.ssn"), trace_of(corpus, "hoppy_deny.trace"))
    assert isinstance(deny.status, Completed)
    assert Called("Auth") not in deny.events


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
