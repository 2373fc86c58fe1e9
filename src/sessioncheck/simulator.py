"""Deterministic executor: runs a checked protocol against a concrete trace.

One trace drives all roles. Creation statements consume bindings in order,
refinements are evaluated on the real values, case arms are selected by
first match, and the knowledge index is logged after every send so runs
can be compared step for step against the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    NamedType,
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
from .syntax import (
    BoolV,
    Call,
    ConV,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ReadCase,
    Rec,
    Send,
    SourceFile,
    StrV,
    Trace,
    TupleV,
    Value,
    WildPat,
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
        return isinstance(value, {"Int": IntV, "Bool": BoolV, "Str": StrV}[type_.kind])
    if isinstance(type_, TupleType):
        return (
            isinstance(value, TupleV)
            and len(value.items) == len(type_.elems)
            and all(value_matches_type(v, t, file) for v, t in zip(value.items, type_.elems))
        )
    if isinstance(type_, NamedType):
        decl = file.variant(type_.name)
        if decl is None or not isinstance(value, ConV):
            return False
        ctor = decl.ctor(value.tag)
        if ctor is None:
            return False
        if ctor.payload is None:
            return value.arg is None
        return value.arg is not None and value_matches_type(value.arg, ctor.payload, file)
    return False


# ---------------------------------------------------------------------------
# Events and statuses


@dataclass(frozen=True)
class MsgCreated:
    var: str
    value: Value
    creator: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RefinementChecked:
    var: str
    predicate: str
    verdict: bool
    witness: tuple[tuple[str, Value], ...]


@dataclass(frozen=True)
class Sent:
    var: str
    sender: str
    receiver: str
    index_after: KnowledgeIndex
    span: Span | None = field(default=None, compare=False, repr=False)
    # Knowers of ``var`` in ``index_after``, so text reports need no lookup.
    knowers: tuple[RoleId, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class CaseTaken:
    var: str
    arm: str


@dataclass(frozen=True)
class Recursed:
    protocol: str


@dataclass(frozen=True)
class Called:
    protocol: str


@dataclass(frozen=True)
class Ended:
    protocol: str


Event = MsgCreated | RefinementChecked | Sent | CaseTaken | Recursed | Called | Ended


@dataclass(frozen=True)
class Completed:
    pass


@dataclass(frozen=True)
class RefinementViolated:
    var: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TraceExhausted:
    var: str | None
    note: str = ""


@dataclass(frozen=True)
class TraceMismatch:
    var: str
    expected: str  # formatted type
    got: Value | None
    note: str = ""


Status = Completed | RefinementViolated | TraceExhausted | TraceMismatch


@dataclass
class RunReport:
    events: list[Event]
    status: Status

    @property
    def completed(self) -> bool:
        return isinstance(self.status, Completed)

    def to_json(self) -> dict:
        return {"status": _status_json(self.status), "events": [_event_json(e) for e in self.events]}


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


def _status_json(s: Status) -> dict:
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


@dataclass
class _Frame:
    """Continuation pushed by a call: where to go when the callee ends."""

    proto: ProtocolDecl
    binding: dict[str, str]
    loop: bool  # True for `call X then rec`


def _pattern_matches(pattern, value: Value) -> bool:
    if isinstance(pattern, WildPat):
        return True
    if isinstance(pattern, CtorPat):
        return isinstance(value, ConV) and value.tag == pattern.tag
    if isinstance(pattern, LitPat):
        return pattern.value == value
    return False


def run_trace(file: SourceFile, trace: Trace, *, max_steps: int = 10_000) -> RunReport:
    """Execute the entry protocol of a checked file against a trace."""
    entry = resolve_entry(file)
    if entry is None:
        raise ValueError("file has no entry protocol; run the checker first")

    events: list[Event] = []
    stack: list[_Frame] = []
    proto = entry
    param_binding: dict[str, str] = {}
    bindings: dict[str, Value] = {}
    index: WorkingIndex = {}
    block = proto.body
    pos = 0
    trace_pos = 0
    steps = 0

    def enter(p: ProtocolDecl, binding: dict[str, str]) -> None:
        nonlocal proto, param_binding, bindings, index, block, pos
        proto = p
        param_binding = binding
        bindings = {}
        index = {}
        block = p.body
        pos = 0

    while True:
        if pos >= len(block):
            # Hand-built ASTs may fall off a block; treat like `end`.
            stmt = End(None)
        else:
            stmt = block[pos]
        steps += 1
        if steps > max_steps:
            return RunReport(events, TraceExhausted(None, f"step limit of {max_steps} exceeded"))

        if isinstance(stmt, (NewMsg, NewDepMsg)):
            declared: TypeExpr = stmt.type if isinstance(stmt, NewMsg) else stmt.rtype
            if trace_pos >= len(trace.bindings):
                return RunReport(events, TraceExhausted(stmt.var.name, "trace has no binding left"))
            binding = trace.bindings[trace_pos]
            trace_pos += 1
            if binding.var != stmt.var:
                return RunReport(
                    events,
                    TraceMismatch(
                        stmt.var.name,
                        format_type(declared),
                        binding.value,
                        f"trace binds '{binding.var.name}' where '{stmt.var.name}' was expected",
                    ),
                )
            if not value_matches_type(binding.value, declared, file):
                return RunReport(
                    events,
                    TraceMismatch(stmt.var.name, format_type(declared), binding.value, "value does not fit the declared type"),
                )
            bindings[stmt.var.name] = binding.value
            add_item(index, stmt.var, declared, stmt.creator)
            events.append(MsgCreated(stmt.var.name, binding.value, stmt.creator.name, stmt.span))
            if isinstance(stmt, NewDepMsg):
                pred = stmt.rtype.predicate
                try:
                    verdict = eval_ref(pred, bindings, binding.value)
                except EvalError as err:
                    return RunReport(
                        events,
                        TraceMismatch(stmt.var.name, format_type(declared), binding.value, str(err)),
                    )
                witness = tuple(
                    (v.name, bindings[v.name]) for v in free_vars_ordered(pred) if v.name in bindings
                )
                binder_name = stmt.rtype.labels[0] if len(stmt.rtype.labels) == 1 else "_"
                witness = ((binder_name, binding.value),) + witness
                ok = isinstance(verdict, BoolV) and verdict.value
                events.append(
                    RefinementChecked(stmt.var.name, format_ref(pred, stmt.rtype.labels), ok, witness)
                )
                if not ok:
                    return RunReport(events, RefinementViolated(stmt.var.name, stmt.span))
            pos += 1
            continue

        if isinstance(stmt, Send):
            add_knower(index, stmt.var, stmt.receiver)
            knowers = index[stmt.var].knowers
            events.append(Sent(stmt.var.name, stmt.sender.name, stmt.receiver.name, freeze(index), stmt.span, knowers))
            pos += 1
            continue

        if isinstance(stmt, ReadCase):
            value = bindings.get(stmt.var.name)
            if value is None:
                return RunReport(
                    events, TraceMismatch(stmt.var.name, "bound message", None, "read of a variable with no value")
                )
            for arm in stmt.arms:
                if _pattern_matches(arm.pattern, value):
                    events.append(CaseTaken(stmt.var.name, format_pattern(arm.pattern)))
                    block = arm.body
                    pos = 0
                    break
            else:
                return RunReport(
                    events,
                    TraceMismatch(stmt.var.name, "a matching arm", value, "no case arm matches the value"),
                )
            continue

        if isinstance(stmt, Rec):
            events.append(Recursed(proto.name))
            enter(proto, param_binding)
            continue

        if isinstance(stmt, Call):
            target = param_binding.get(stmt.target, stmt.target)
            callee = file.protocol(target)
            if callee is None:
                raise ValueError(f"call target '{stmt.target}' did not resolve; run the checker first")
            stack.append(_Frame(proto, param_binding, stmt.then_rec))
            events.append(Called(callee.name))
            new_binding = dict(zip((q.name for q in callee.params), stmt.args))
            enter(callee, new_binding)
            continue

        if isinstance(stmt, End):
            events.append(Ended(proto.name))
            while stack:
                frame = stack.pop()
                if frame.loop:
                    events.append(Recursed(frame.proto.name))
                    enter(frame.proto, frame.binding)
                    break
            else:
                return RunReport(events, Completed())
            continue

        raise TypeError(f"not a statement: {stmt!r}")
