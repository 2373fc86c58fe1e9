"""Code that parser output never reaches, run on hand-built ASTs.

The parser builds only well-formed trees, and the checker stops the
simulator from running what it rejects. So the record constructors'
rejections, each dispatcher's ``TypeError`` on a node it does not know, the
checker's refined ``msg`` type, a block that falls off its end, and an
evaluation error during a run are reached only by building the tree, or
running a file, by hand. Records are final (see ``sessioncheck.records``),
so an object of no record's class is the one unknown node: every walker of
a family must end in the same ``TypeError`` on it, and extending a record
raises one.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from sessioncheck import check_file, cli, jsonout, parse, parse_trace, printer, simulator, syntax
from sessioncheck.checker import kind_of_ref
from sessioncheck.diagnostics import Diagnostic
from sessioncheck.model import (
    INT,
    BinderRef,
    BoolLit,
    Cmp,
    NamedType,
    Proj,
    RefinedType,
    RoleId,
    Span,
    TupleType,
    VariantDecl,
    VarId,
    VarRef,
)
from sessioncheck.syntax import (
    Arm,
    Call,
    End,
    IntV,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ReadCase,
    RoleDecl,
    Send,
    SourceFile,
    TupleV,
    WildPat,
)

A = RoleId("A")


def protocol_file(*body) -> SourceFile:
    """Role ``A`` and one ground protocol ``P [A]`` with the given body."""
    return SourceFile((RoleDecl("A"),), (), (ProtocolDecl("P", (), (A,), body),))


def checked(file: SourceFile):
    result = check_file(file)
    return [d.message for d in result.diagnostics], [path for path, _ in result.final_indices]


# A projection past a tuple: the checker rejects it, so only a run of the
# unchecked file evaluates it.
PAST_A_TUPLE = """roles A
protocol P [A] {
  msg m : (Int, Int) by A;
  dep d : (x : Int) where x == m.3 by A;
  end
}
"""

NODE = object()  # no node of any kind


CASES = {
    # checker.check_type: a refined payload is checked as its payload
    "check_type_refined": (
        lambda: checked(protocol_file(NewMsg(VarId("m"), RefinedType(NamedType("Nope"), ("x",), BoolLit(True)), A))),
        (["unknown type 'Nope'"], []),
    ),
    # checker.check_block: a block with no terminator ends as if by `end`
    "check_block_falls_off": (lambda: checked(protocol_file(NewMsg(VarId("m"), INT, A))), ([], ["P"])),
    "run_trace_eval_error": (
        lambda: simulator.run_trace(parse(PAST_A_TUPLE), parse_trace("m = (1, 2)\nd = 3\n")).status,
        simulator.TraceMismatch("d", "(x : Int) where x == m.3", IntV(3), "cannot take position 3 of (1, 2)"),
    ),
    "refined_labels": (
        lambda: RefinedType(TupleType((INT, INT)), ("a", "b", "c"), BoolLit(True)),
        ValueError("component labels must match a tuple payload of the same arity"),
    ),
    "empty_variant": (lambda: VariantDecl("T", ()), ValueError("variant type needs at least one constructor")),
    "proj_index_0": (lambda: Proj(BinderRef(), 0), ValueError("projection index is 1-based")),
    "empty_read": (lambda: ReadCase(VarId("m"), ()), ValueError("read needs at least one arm")),
    "diagnostic_severity": (
        lambda: Diagnostic("E001", "fatal", Span(0, 1), "m"),
        ValueError("unknown severity fatal"),
    ),
    "kind_of_ref": (lambda: kind_of_ref(NODE, {}, None), TypeError(f"not a refinement expression: {NODE!r}")),
    "eval_ref": (lambda: simulator.eval_ref(NODE, {}, None), TypeError(f"not a refinement expression: {NODE!r}")),
    "run_trace_statement": (
        lambda: simulator.run_trace(protocol_file(NODE), parse_trace("")),
        TypeError(f"not a statement: {NODE!r}"),
    ),
    "check_block_statement": (lambda: checked(protocol_file(NODE, End())), TypeError(f"not a statement: {NODE!r}")),
    "print_report_event": (
        lambda: cli._print_report(simulator.RunReport([NODE], simulator.Completed())),
        TypeError(f"not an event: {NODE!r}"),
    ),
    "print_report_status": (lambda: cli._print_report(simulator.RunReport([], NODE)), TypeError(f"not a status: {NODE!r}")),
    "record_is_final": (
        lambda: type("MsgLike", (NewMsg,), {}),
        TypeError("a record class is final: MsgLike cannot extend NewMsg"),
    ),
    "value_to_json": (lambda: simulator.value_to_json(NODE), TypeError(f"not a value: {NODE!r}")),
    "event_json": (lambda: simulator.RunReport([NODE], simulator.Completed()).to_json(), TypeError(f"not an event: {NODE!r}")),
    "status_to_json": (lambda: simulator.status_to_json(NODE), TypeError(f"not a status: {NODE!r}")),
    "format_value": (lambda: syntax.format_value(NODE), TypeError(f"not a value: {NODE!r}")),
    "format_type": (lambda: syntax.format_type(NODE), TypeError(f"unprintable type: {NODE!r}")),
    "format_ref": (lambda: syntax.format_ref(NODE), TypeError(f"unprintable refinement: {NODE!r}")),
    "format_pattern": (lambda: syntax.format_pattern(NODE), TypeError(f"not a pattern: {NODE!r}")),
    "format_stmt": (lambda: printer.format_stmt(NODE), TypeError(f"not a statement: {NODE!r}")),
    "json_value": (lambda: jsonout._json_value(TupleV((NODE,)), ""), TypeError(f"not a value: {NODE!r}")),
    "json_event": (
        lambda: json_bytes(simulator.RunReport([NODE], simulator.Completed())),
        TypeError(f"not an event: {NODE!r}"),
    ),
    "json_record": (lambda: jsonout._json_record({"x": [NODE]}, ""), TypeError(f"not JSON data: {NODE!r}")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_built_input(name):
    build, expected = CASES[name]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            build()
        assert str(raised.value) == str(expected)
    else:
        assert build() == expected


# A run reuses what a node built the last time it ran (simulator._run). The
# parser never puts one node object at two places, but a hand-built AST may,
# and there the indices can differ. Each case is a file whose entry P calls
# Q, built twice: with one object for every repeated node, and with a fresh
# copy at each place.
X, Y = VarId("x"), VarId("y")
B, C = RoleId("B"), RoleId("C")
SHARING = {
    # the item before `send x A -> B` differs: in Q a send has taught x to C
    "item_before_differs": (
        lambda msg_x, msg_y, send_x, arm, dep_x: ((msg_x(), send_x(), Call("Q")), (msg_x(), Send(X, A, C), send_x(), End())),
        "x = 1\nx = 2\n",
    ),
    # the item before is the same, but Q's index also holds y
    "other_item_differs": (
        lambda msg_x, msg_y, send_x, arm, dep_x: ((msg_x(), send_x(), Call("Q")), (NewMsg(Y, INT, A), msg_x(), send_x(), End())),
        "x = 1\ny = 2\nx = 3\n",
    ),
    # one arm in reads of two variables
    "arm_of_two_reads": (
        lambda msg_x, msg_y, send_x, arm, dep_x: ((msg_x(), ReadCase(X, (arm(),))), (NewMsg(Y, INT, A), ReadCase(Y, (arm(),)))),
        "x = 1\ny = 2\n",
    ),
    # P and Q start with the same `msg x; msg y`, so only the protocol the
    # chain starts from tells P's read of x from Q's read of y
    "same_start_in_two_protocols": (
        lambda msg_x, msg_y, send_x, arm, dep_x: (
            (msg_x(), msg_y(), ReadCase(X, (arm(),))),
            (msg_x(), msg_y(), ReadCase(Y, (arm(),))),
        ),
        "x = 1\ny = 2\nx = 3\ny = 4\n",
    ),
    # one `dep x` after P's and after Q's own `msg y`; the reader gives both
    # bindings of x one value object, but y is another in Q, so Q must
    # evaluate the predicate again and fail it
    "dep_after_two_msgs": (
        lambda msg_x, msg_y, send_x, arm, dep_x: (
            (NewMsg(Y, INT, A), dep_x(), Call("Q")),
            (NewMsg(Y, INT, A), dep_x(), End()),
        ),
        "y = 1\nx = 1\ny = 2\nx = 1\n",
    ),
}


def sharing_file(case: str, share: bool) -> SourceFile:
    def node(build):
        """A maker of the node: one object at every place if ``share``."""
        if not share:
            return build
        one = build()
        return lambda: one

    nodes = (
        node(lambda: NewMsg(X, INT, A)),
        node(lambda: NewMsg(Y, INT, A)),
        node(lambda: Send(X, A, B)),
        node(lambda: Arm(WildPat(), (Call("Q"),))),
        node(lambda: NewDepMsg(X, RefinedType(INT, ("v",), Cmp("==", BinderRef(), VarRef(Y))), A)),
    )
    p_body, q_body = SHARING[case][0](*nodes)
    roles = tuple(RoleDecl(r.name) for r in (A, B, C))
    protocols = tuple(ProtocolDecl(name, (), (A, B, C), body) for name, body in (("P", p_body), ("Q", q_body)))
    return SourceFile(roles, (), protocols, "P")


def node_ids(file: SourceFile) -> set[int]:
    """The ids of the statement and arm objects at the top of each protocol body."""
    return {id(n) for p in file.protocols for s in p.body for n in (s, *getattr(s, "arms", ()))}


def json_bytes(report) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        jsonout.write_report(report)
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(SHARING))
def test_a_node_at_two_places_runs_as_two_copies(case):
    shared, copied = sharing_file(case, True), sharing_file(case, False)
    assert len(node_ids(shared)) < len(node_ids(copied))
    trace = parse_trace(SHARING[case][1])
    ran, expected = simulator.run_trace(shared, trace), simulator.run_trace(copied, trace)
    assert ran.events == expected.events
    assert ran.status == expected.status
    assert json_bytes(ran) == json_bytes(expected)


def test_a_dep_at_two_places_checks_a_value_object_again():
    trace = parse_trace(SHARING["dep_after_two_msgs"][1])
    first, second = (b.value for b in trace.bindings if b.var == X)
    assert first is second
    report = simulator.run_trace(sharing_file("dep_after_two_msgs", True), trace)
    checked = [e for e in report.events if isinstance(e, simulator.RefinementChecked)]
    assert [(c.verdict, c.witness) for c in checked] == [(True, (("v", IntV(1)), ("y", IntV(1)))),
                                                         (False, (("v", IntV(1)), ("y", IntV(2))))]
    assert report.status == simulator.RefinementViolated("x")
