"""Deterministic executor: runs a checked protocol against a concrete trace.

One trace drives all roles. Each protocol entered (the entry, a `rec`, a
`call`, or the loop back after `call ... then rec`) starts a fresh store and
index. Bindings are consumed in order, refinements evaluated on the real
values and case arms selected by first match; the index is logged after every
send so runs can be compared step for step against the checker.
"""

from __future__ import annotations

from collections.abc import Iterator

from .checker import resolve_entry
from .model import (
    Arith,
    BaseType,
    BinderRef,
    BoolLit,
    BoolOp,
    Cmp,
    IntLit,
    KnowledgeIndex,
    Proj,
    RefExpr,
    RefinedType,
    RoleId,
    StrLit,
    TupleType,
    TypeExpr,
    UnwrapDep,
    VarRef,
    WorkingIndex,
    add_item,
    add_knower,
    free_vars_ordered,
    freeze,
    Span,
)
from .printer import format_pattern, format_ref, format_type, format_value
from .records import quiet, record
from .syntax import (
    BoolV,
    Call,
    ConV,
    CtorPat,
    End,
    IntV,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ReadCase,
    Rec,
    Send,
    SourceFile,
    StrV,
    Trace,
    TraceBinding,
    TupleV,
    Value,
    WildPat,
    VALUE_KINDS,
)

__all__ = [
    "EvalError",
    "eval_ref",
    "value_matches_type",
    "MsgCreated",
    "RefinementChecked",
    "Sent",
    "CaseTaken",
    "Recursed",
    "Called",
    "Ended",
    "Completed",
    "RefinementViolated",
    "TraceExhausted",
    "TraceMismatch",
    "RunReport",
    "run_trace",
]


class EvalError(Exception):
    """A runtime value did not fit the operation (trace/type inconsistency)."""


def eval_ref(expr: RefExpr, bindings: dict[str, Value], binder_value: Value | None) -> Value:
    """Strictly evaluate a refinement against concrete message values."""
    if isinstance(expr, IntLit):
        return IntV(expr.value)
    if isinstance(expr, BoolLit):
        return BoolV(expr.value)
    if isinstance(expr, StrLit):
        return StrV(expr.value)
    if isinstance(expr, VarRef):
        try:
            return bindings[expr.var.name]
        except KeyError:
            raise EvalError(f"variable '{expr.var.name}' has no value") from None
    if isinstance(expr, BinderRef):
        if binder_value is None:
            raise EvalError("no refined value in scope")
        return binder_value
    if isinstance(expr, Proj):
        base = eval_ref(expr.base, bindings, binder_value)
        if not isinstance(base, TupleV) or expr.index > len(base.items):
            raise EvalError(f"cannot take position {expr.index} of {format_value(base)}")
        return base.items[expr.index - 1]
    if isinstance(expr, UnwrapDep):
        # Refined values are represented by their payload, so unwrap is identity.
        return eval_ref(expr.base, bindings, binder_value)
    if isinstance(expr, Arith):
        lhs = eval_ref(expr.lhs, bindings, binder_value)
        rhs = eval_ref(expr.rhs, bindings, binder_value)
        if not isinstance(lhs, IntV) or not isinstance(rhs, IntV):
            raise EvalError(f"'{expr.op}' needs integers")
        if expr.op == "+":
            return IntV(lhs.value + rhs.value)
        if expr.op == "-":
            return IntV(lhs.value - rhs.value)
        return IntV(lhs.value * rhs.value)
    if isinstance(expr, Cmp):
        lhs = eval_ref(expr.lhs, bindings, binder_value)
        rhs = eval_ref(expr.rhs, bindings, binder_value)
        if expr.op == "==":
            return BoolV(lhs == rhs)
        if expr.op == "!=":
            return BoolV(lhs != rhs)
        if not isinstance(lhs, IntV) or not isinstance(rhs, IntV):
            raise EvalError(f"'{expr.op}' needs integers")
        return BoolV(lhs.value < rhs.value if expr.op == "<" else lhs.value <= rhs.value)
    if isinstance(expr, BoolOp):
        lhs = eval_ref(expr.lhs, bindings, binder_value)
        rhs = eval_ref(expr.rhs, bindings, binder_value)
        if not isinstance(lhs, BoolV) or not isinstance(rhs, BoolV):
            raise EvalError(f"'{expr.op}' needs booleans")
        return BoolV(lhs.value and rhs.value if expr.op == "and" else lhs.value or rhs.value)
    raise TypeError(f"not a refinement expression: {expr!r}")


def value_matches_type(value: Value, type_: TypeExpr, file: SourceFile) -> bool:
    """Structural typing of a trace value against a payload type."""
    if isinstance(type_, RefinedType):
        return value_matches_type(value, type_.payload, file)
    if isinstance(type_, BaseType):
        return VALUE_KINDS.get(type(value)) == type_.kind
    if isinstance(type_, TupleType):
        return (
            isinstance(value, TupleV)
            and len(value.items) == len(type_.elems)
            and all(value_matches_type(v, t, file) for v, t in zip(value.items, type_.elems))
        )
    decl = file.variant(type_.name)  # a NamedType
    if decl is None or not isinstance(value, ConV):
        return False
    ctor = decl.ctor(value.tag)
    if ctor is None:
        return False
    if ctor.payload is None:
        return value.arg is None
    return value.arg is not None and value_matches_type(value.arg, ctor.payload, file)


# ---------------------------------------------------------------------------
# Events and statuses


@record
class MsgCreated:
    var: str
    value: Value
    creator: str


@record
class RefinementChecked:
    var: str
    predicate: str
    verdict: bool
    witness: tuple[tuple[str, Value], ...]


@record
class Sent:
    var: str
    sender: str
    receiver: str
    index_after: KnowledgeIndex
    span: Span | None = quiet()
    # Knowers of ``var`` in ``index_after``, so text reports need no lookup.
    knowers: tuple[RoleId, ...] = quiet(())


@record
class CaseTaken:
    var: str
    arm: str


@record
class Recursed:
    protocol: str


@record
class Called:
    protocol: str


@record
class Ended:
    protocol: str


Event = MsgCreated | RefinementChecked | Sent | CaseTaken | Recursed | Called | Ended


@record
class Completed:
    pass


@record
class RefinementViolated:
    var: str
    span: Span | None = quiet()


@record
class TraceExhausted:
    var: str | None
    note: str = ""


@record
class TraceMismatch:
    var: str
    expected: str  # formatted type
    got: Value | None
    note: str = ""


Status = Completed | RefinementViolated | TraceExhausted | TraceMismatch


@record(frozen=False)
class RunReport:
    events: list[Event]
    status: Status

    @property
    def completed(self) -> bool:
        return isinstance(self.status, Completed)

    def to_json(self) -> dict:
        return {"status": status_to_json(self.status), "events": [_event_json(e) for e in self.events]}


def value_to_json(v: Value):
    if isinstance(v, IntV):
        return {"int": v.value}
    if isinstance(v, BoolV):
        return {"bool": v.value}
    if isinstance(v, StrV):
        return {"str": v.value}
    if isinstance(v, TupleV):
        return {"tuple": [value_to_json(x) for x in v.items]}
    if isinstance(v, ConV):
        return {"con": v.tag, "arg": None if v.arg is None else value_to_json(v.arg)}
    raise TypeError(f"not a value: {v!r}")


def index_to_json(index: KnowledgeIndex) -> list[dict]:
    return [
        {"var": item.var.name, "type": format_type(item.type), "knowers": [r.name for r in item.knowers]}
        for item in index
    ]


def _event_json(e: Event) -> dict:
    if isinstance(e, MsgCreated):
        return {"kind": "msg_created", "var": e.var, "value": value_to_json(e.value), "creator": e.creator}
    if isinstance(e, RefinementChecked):
        return {
            "kind": "refinement_checked",
            "var": e.var,
            "predicate": e.predicate,
            "verdict": e.verdict,
            "witness": {name: value_to_json(v) for name, v in e.witness},
        }
    if isinstance(e, Sent):
        return {
            "kind": "sent",
            "var": e.var,
            "sender": e.sender,
            "receiver": e.receiver,
            "index_after": index_to_json(e.index_after),
        }
    if isinstance(e, CaseTaken):
        return {"kind": "case_taken", "var": e.var, "arm": e.arm}
    if isinstance(e, Recursed):
        return {"kind": "recursed", "protocol": e.protocol}
    if isinstance(e, Called):
        return {"kind": "called", "protocol": e.protocol}
    if isinstance(e, Ended):
        return {"kind": "ended", "protocol": e.protocol}
    raise TypeError(f"not an event: {e!r}")


def status_to_json(s: Status) -> dict:
    if isinstance(s, Completed):
        return {"kind": "completed"}
    if isinstance(s, RefinementViolated):
        out = {"kind": "refinement_violated", "var": s.var}
        if s.span is not None:
            out["line"] = s.span.line
            out["col"] = s.span.col
        return out
    if isinstance(s, TraceExhausted):
        return {"kind": "trace_exhausted", "var": s.var, "note": s.note}
    if isinstance(s, TraceMismatch):
        return {
            "kind": "trace_mismatch",
            "var": s.var,
            "expected": s.expected,
            "got": None if s.got is None else value_to_json(s.got),
            "note": s.note,
        }
    raise TypeError(f"not a status: {s!r}")


# ---------------------------------------------------------------------------
# Execution


def _pattern_matches(pattern, value: Value) -> bool:
    if isinstance(pattern, WildPat):
        return True
    if isinstance(pattern, CtorPat):
        return isinstance(value, ConV) and value.tag == pattern.tag
    return pattern.value == value  # a LitPat


def run_trace(file: SourceFile, trace: Trace, *, max_steps: int = 10_000) -> RunReport:
    """Execute the entry protocol of a checked file against a trace."""
    entry = resolve_entry(file)
    if entry is None:
        raise ValueError("file has no entry protocol; run the checker first")
    events: list[Event] = []
    return RunReport(events, _run(file, entry, iter(trace.bindings), max_steps, events))


def _run(file: SourceFile, proto: ProtocolDecl, trace: Iterator[TraceBinding], max_steps: int, events: list[Event]) -> Status:
    """Run from ``proto``, appending to ``events``; return how the run ended."""
    # The callers to loop back into when a callee ends, one per `call ...
    # then rec` in progress; a plain `call` is a tail call and leaves none.
    loops: list[tuple[ProtocolDecl, dict[str, str]]] = []
    param_binding: dict[str, str] = {}
    steps = 0
    while True:  # one pass per protocol entered, each with a fresh store and index
        bindings: dict[str, Value] = {}
        index: WorkingIndex = {}
        block, pos = proto.body, 0
        while True:
            stmt = block[pos] if pos < len(block) else End(None)  # a hand-built AST may fall off its block
            pos += 1
            steps += 1
            if steps > max_steps:
                return TraceExhausted(None, f"step limit of {max_steps} exceeded")

            if isinstance(stmt, (NewMsg, NewDepMsg)):
                var = stmt.var.name
                declared: TypeExpr = stmt.type if isinstance(stmt, NewMsg) else stmt.rtype
                binding = next(trace, None)
                if binding is None:
                    return TraceExhausted(var, "trace has no binding left")
                value = binding.value
                if binding.var != stmt.var:
                    note = f"trace binds '{binding.var.name}' where '{var}' was expected"
                    return TraceMismatch(var, format_type(declared), value, note)
                if not value_matches_type(value, declared, file):
                    return TraceMismatch(var, format_type(declared), value, "value does not fit the declared type")
                bindings[var] = value
                add_item(index, stmt.var, declared, stmt.creator)
                events.append(MsgCreated(var, value, stmt.creator.name))
                if isinstance(stmt, NewDepMsg):
                    pred, labels = stmt.rtype.predicate, stmt.rtype.labels
                    try:
                        verdict = eval_ref(pred, bindings, value)
                    except EvalError as err:
                        return TraceMismatch(var, format_type(declared), value, str(err))
                    witness = ((format_ref(BinderRef(), labels), value),)  # the binder, named as the predicate names it
                    witness += tuple((v.name, bindings[v.name]) for v in free_vars_ordered(pred))
                    ok = isinstance(verdict, BoolV) and verdict.value
                    events.append(RefinementChecked(var, format_ref(pred, labels), ok, witness))
                    if not ok:
                        return RefinementViolated(var, stmt.span)
            elif isinstance(stmt, Send):
                add_knower(index, stmt.var, stmt.receiver)
                knowers = index[stmt.var].knowers
                events.append(Sent(stmt.var.name, stmt.sender.name, stmt.receiver.name, freeze(index), stmt.span, knowers))
            elif isinstance(stmt, ReadCase):
                value = bindings.get(stmt.var.name)
                if value is None:
                    return TraceMismatch(stmt.var.name, "bound message", None, "read of a variable with no value")
                arm = next((a for a in stmt.arms if _pattern_matches(a.pattern, value)), None)
                if arm is None:
                    return TraceMismatch(stmt.var.name, "a matching arm", value, "no case arm matches the value")
                events.append(CaseTaken(stmt.var.name, format_pattern(arm.pattern)))
                block, pos = arm.body, 0
            elif isinstance(stmt, Rec):
                events.append(Recursed(proto.name))
                break
            elif isinstance(stmt, Call):
                callee = file.protocol(param_binding.get(stmt.target, stmt.target))
                if callee is None:
                    raise ValueError(f"call target '{stmt.target}' did not resolve; run the checker first")
                if stmt.then_rec:
                    loops.append((proto, param_binding))
                events.append(Called(callee.name))
                proto, param_binding = callee, dict(zip((q.name for q in callee.params), stmt.args))
                break
            elif isinstance(stmt, End):
                events.append(Ended(proto.name))
                if not loops:
                    return Completed()
                proto, param_binding = loops.pop()
                events.append(Recursed(proto.name))
                break
            else:
                raise TypeError(f"not a statement: {stmt!r}")
