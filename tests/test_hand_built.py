"""Code that parser output never reaches, run on hand-built ASTs.

The parser builds only well-formed trees, and the checker stops the
simulator from running what it rejects. So the record constructors'
rejections, each dispatcher's ``TypeError`` on a node it does not know, the
checker's refined ``msg`` type, a block that falls off its end, and an
evaluation error during a run are reached only by building the tree, or
running a file, by hand.
"""

from __future__ import annotations

import pytest

from sessioncheck import check_file, jsonout, parse, parse_trace, printer, simulator
from sessioncheck.checker import kind_of_ref
from sessioncheck.diagnostics import Diagnostic
from sessioncheck.model import INT, BinderRef, BoolLit, NamedType, Proj, RefinedType, RoleId, Span, TupleType, VariantDecl, VarId
from sessioncheck.syntax import IntV, NewMsg, ProtocolDecl, ReadCase, RoleDecl, SourceFile, TupleV

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
        lambda: Diagnostic("E001", "fatal", Span(1, 1), "m"),
        ValueError("unknown severity fatal"),
    ),
    "kind_of_ref": (lambda: kind_of_ref(NODE, {}, None), TypeError(f"not a refinement expression: {NODE!r}")),
    "eval_ref": (lambda: simulator.eval_ref(NODE, {}, None), TypeError(f"not a refinement expression: {NODE!r}")),
    "run_trace_statement": (
        lambda: simulator.run_trace(protocol_file(NODE), parse_trace("")),
        TypeError(f"not a statement: {NODE!r}"),
    ),
    "value_to_json": (lambda: simulator.value_to_json(NODE), TypeError(f"not a value: {NODE!r}")),
    "event_json": (lambda: simulator.RunReport([NODE], simulator.Completed()).to_json(), TypeError(f"not an event: {NODE!r}")),
    "status_to_json": (lambda: simulator.status_to_json(NODE), TypeError(f"not a status: {NODE!r}")),
    "format_value": (lambda: printer.format_value(NODE), TypeError(f"not a value: {NODE!r}")),
    "format_type": (lambda: printer.format_type(NODE), TypeError(f"unprintable type: {NODE!r}")),
    "format_ref": (lambda: printer.format_ref(NODE), TypeError(f"unprintable refinement: {NODE!r}")),
    "format_pattern": (lambda: printer.format_pattern(NODE), TypeError(f"not a pattern: {NODE!r}")),
    "format_stmt": (lambda: printer.format_stmt(NODE), TypeError(f"not a statement: {NODE!r}")),
    "json_value": (lambda: jsonout._json_value(TupleV((NODE,)), ""), TypeError(f"not a value: {NODE!r}")),
    "json_event": (lambda: jsonout._json_event(NODE, {}), TypeError(f"not an event: {NODE!r}")),
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
