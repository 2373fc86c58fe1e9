"""Deterministic executor: runs a checked protocol against a concrete trace.

One trace drives all roles. Each protocol entered (the entry, a `rec`, a
`call`, or the loop back after `call ... then rec`) starts a fresh store and
index. Bindings are consumed in order, refinements evaluated on the real
values and case arms selected by first match. Each send logs who knows its
message; with ``snapshots`` (the default, and what the JSON report prints)
it also logs a snapshot of the index, so runs can be compared step for step
against the checker. The text report prints only the knowers, so a text
run takes no snapshot: one per send would copy the index each time. The run
picks each statement's branch once, by its exact type, as every walker
over a tree or a value does (records are final: see ``records``), and
a `msg` and a `dep` share one branch that tells them apart once.

Because every entry starts a fresh index, a statement in a loop meets the
same index each round. A run therefore keeps what each `msg`/`dep`, `send`
and taken `read` arm built, under the node's id, as an entry ``(last, what
it built)``: ``last`` is the entry of the node run just before it, or the
`ProtocolDecl` for the first node after an entry. A node reuses its entry
only if that ``last`` `is` the current one. Each entry points back to the
one before, so this one identity test proves that the same nodes have run
since the same protocol was entered, and so that the node meets the same
index; a hand-built AST that shares a node between places just misses.
A protocol step depends on nothing but its kind and protocol, so a run
builds each `ProtocolEvent` once and logs it at every such step.

Events that carry trace values follow a second rule, by value identity,
kept in the same entry. The trace reader keeps one object per repeated
flat value and binding (see `parser`), so a loop that binds the same
value again hands the run the same object. A `msg`/`dep` entry maps the
id of each value object the node met to the `MsgCreated` it logged for
it, which it logs again when a binding's value `is` that object, skipping
`value_matches_type`, as it accepted that very object before. A `dep`
keeps there, too, the `RefinementChecked` it logged last for the object,
and reuses it only if, in addition, the current binding of every free
variable `is` the object its witness records: the predicate reads
nothing else, so its verdict cannot differ. Otherwise the node evaluates
the predicate again. The test is `is`, not `==`: an equal value that is
another object is checked again. A rebuilt entry starts with none.
"""

from __future__ import annotations

import functools
import operator
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
from .printer import binder_name, format_pattern, format_ref, format_type, format_value
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
    "ProtocolEvent",
    "Completed",
    "RefinementViolated",
    "TraceExhausted",
    "TraceMismatch",
    "RunReport",
    "run_trace",
]


class EvalError(Exception):
    """A runtime value did not fit the operation (trace/type inconsistency)."""


# Every operator but '==' and '!=': the value both operands must be, the
# function applied to their payloads, and the value it makes.
_OPERATORS = {
    "+": (IntV, operator.add, IntV), "-": (IntV, operator.sub, IntV), "*": (IntV, operator.mul, IntV),
    "<": (IntV, operator.lt, BoolV), "<=": (IntV, operator.le, BoolV),
    "and": (BoolV, operator.and_, BoolV), "or": (BoolV, operator.or_, BoolV),
}


def eval_ref(expr: RefExpr, bindings: dict[str, Value], binder_value: Value | None) -> Value:
    """Strictly evaluate a refinement against concrete message values."""
    kind = type(expr)
    if kind is VarRef:
        try:
            return bindings[expr.var.name]
        except KeyError:
            raise EvalError(f"variable '{expr.var.name}' has no value") from None
    if kind is IntLit:
        return IntV(expr.value)
    if kind is BinderRef:
        if binder_value is None:
            raise EvalError("no refined value in scope")
        return binder_value
    if kind is Cmp or kind is Arith or kind is BoolOp:
        lhs = eval_ref(expr.lhs, bindings, binder_value)
        rhs = eval_ref(expr.rhs, bindings, binder_value)
        if expr.op == "==":
            return BoolV(lhs == rhs)
        if expr.op == "!=":
            return BoolV(lhs != rhs)
        operand, apply, result = _OPERATORS[expr.op]
        if not isinstance(lhs, operand) or not isinstance(rhs, operand):
            raise EvalError(f"'{expr.op}' needs {'integers' if operand is IntV else 'booleans'}")
        return result(apply(lhs.value, rhs.value))
    if kind is UnwrapDep:
        # Refined values are represented by their payload, so unwrap is identity.
        return eval_ref(expr.base, bindings, binder_value)
    if kind is Proj:
        base = eval_ref(expr.base, bindings, binder_value)
        if not isinstance(base, TupleV) or expr.index > len(base.items):
            raise EvalError(f"cannot take position {expr.index} of {format_value(base)}")
        return base.items[expr.index - 1]
    if kind is StrLit:
        return StrV(expr.value)
    if kind is BoolLit:
        return BoolV(expr.value)
    raise TypeError(f"not a refinement expression: {expr!r}")


def value_matches_type(value: Value, type_: TypeExpr, file: SourceFile) -> bool:
    """Structural typing of a trace value against a payload type."""
    kind = type(type_)
    if kind is BaseType:
        return VALUE_KINDS.get(type(value)) == type_.kind
    if kind is RefinedType:
        return value_matches_type(value, type_.payload, file)
    if kind is TupleType:
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
    index_after: KnowledgeIndex | None  # None in a run without snapshots
    span: Span | None = quiet()
    # Knowers of ``var`` after the send, all that a text report reads; set
    # with or without snapshots.
    knowers: tuple[RoleId, ...] = quiet(())


@record
class CaseTaken:
    var: str
    arm: str


@record
class ProtocolEvent:
    """A protocol step: ``called`` into a protocol, ``ended`` it, or ``recursed`` into it."""

    kind: str  # "recursed" | "called" | "ended", as in the JSON report
    protocol: str

    def __post_init__(self) -> None:
        if self.kind not in ("recursed", "called", "ended"):
            raise ValueError(f"unknown protocol event: {self.kind}")


Event = MsgCreated | RefinementChecked | Sent | CaseTaken | ProtocolEvent


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


@record
class RunReport:
    """A run's events and how it ended. Equal events of a loop may be one
    object; the module docstring gives the reuse rules."""

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
    if isinstance(e, ProtocolEvent):
        return {"kind": e.kind, "protocol": e.protocol}
    raise TypeError(f"not an event: {e!r}")


def status_to_json(s: Status) -> dict:
    if isinstance(s, Completed):
        return {"kind": "completed"}
    if isinstance(s, RefinementViolated):
        out = {"kind": "refinement_violated", "var": s.var}
        if s.span is not None:
            out["line"], out["col"] = s.span.line_col
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
    kind = type(pattern)
    if kind is WildPat:
        return True
    if kind is CtorPat:
        return isinstance(value, ConV) and value.tag == pattern.tag
    return pattern.value == value  # a LitPat


def run_trace(file: SourceFile, trace: Trace, *, max_steps: int = 10_000, snapshots: bool = True) -> RunReport:
    """Execute the entry protocol of a checked file against a trace.

    ``snapshots`` fills each ``Sent.index_after`` with the index after the
    send (what the JSON report prints); without it each is None, and a run
    stays linear in the length of its trace."""
    entry = resolve_entry(file)
    if entry is None:
        raise ValueError("file has no entry protocol; run the checker first")
    events: list[Event] = []
    return RunReport(events, _run(file, entry, iter(trace.bindings), max_steps, snapshots, events))


def _run(file: SourceFile, proto: ProtocolDecl, trace: Iterator[TraceBinding], max_steps: int, snapshots: bool,
         events: list[Event]) -> Status:
    """Run from ``proto``, appending to ``events``; return how the run ended."""
    # The callers to loop back into when a callee ends, one per `call ...
    # then rec` in progress; a plain `call` is a tail call and leaves none.
    loops: list[tuple[ProtocolDecl, dict[str, str]]] = []
    param_binding: dict[str, str] = {}
    # Each node's entry ``(last, what it built)``, keyed by the node's id
    # (see the module docstring). The file keeps every node alive, and a
    # `msg`/`dep` entry's value events keep their values alive, so no id
    # is reused.
    built: dict[int, tuple] = {}
    step = functools.cache(ProtocolEvent)  # the run's one event per kind and protocol
    steps = 0
    while True:  # one pass per protocol entered, each with a fresh store and index
        bindings: dict[str, Value] = {}
        index: WorkingIndex = {}
        last: object = proto
        block, pos = proto.body, 0
        while True:
            stmt = block[pos] if pos < len(block) else End(None)  # a hand-built AST may fall off its block
            pos += 1
            steps += 1
            if steps > max_steps:
                return TraceExhausted(None, f"step limit of {max_steps} exceeded")

            kind = type(stmt)  # the one dispatch per statement
            if kind is NewMsg or kind is NewDepMsg:
                dep = kind is NewDepMsg
                var = stmt.var.name
                declared: TypeExpr = stmt.rtype if dep else stmt.type
                binding = next(trace, None)
                if binding is None:
                    return TraceExhausted(var, "trace has no binding left")
                value = binding.value
                if binding.var.name != var:
                    note = f"trace binds '{binding.var.name}' where '{var}' was expected"
                    return TraceMismatch(var, format_type(declared), value, note)
                made = built.get(id(stmt))  # last, the fresh item, its value events and, for a dep, its printed facts
                if made is None or made[0] is not last:
                    add_item(index, stmt.var, declared, stmt.creator)
                    made = (last, index[var], {})  # value id -> [MsgCreated, last RefinementChecked or None]
                    if dep:
                        # the predicate, the binder named as the predicate names it, and its free variables
                        pred, labels = declared.predicate, declared.labels
                        names = tuple(v.name for v in free_vars_ordered(pred))
                        made += (format_ref(pred, labels), binder_name(labels), names)
                    built[id(stmt)] = made
                else:
                    index[var] = made[1]
                logged = made[2].get(id(value))
                if logged is None:
                    if not value_matches_type(value, declared, file):
                        return TraceMismatch(var, format_type(declared), value, "value does not fit the declared type")
                    logged = made[2][id(value)] = [MsgCreated(var, value, stmt.creator.name), None]
                bindings[var] = value
                events.append(logged[0])
                if dep:
                    checked = logged[1]
                    if checked is None or not all(bindings.get(name) is v for name, v in checked.witness[1:]):
                        try:
                            verdict = eval_ref(declared.predicate, bindings, value)
                        except EvalError as err:
                            return TraceMismatch(var, format_type(declared), value, str(err))
                        _, _, _, predicate, binder, names = made
                        witness = ((binder, value),) + tuple((name, bindings[name]) for name in names)
                        ok = isinstance(verdict, BoolV) and verdict.value
                        checked = logged[1] = RefinementChecked(var, predicate, ok, witness)
                    events.append(checked)
                    if not checked.verdict:
                        return RefinementViolated(var, stmt.span)
            elif kind is Send:
                made = built.get(id(stmt))  # last, the grown item and the event
                if made is None or made[0] is not last:
                    add_knower(index, stmt.var, stmt.receiver)
                    grown = index[stmt.var.name]
                    sent = Sent(stmt.var.name, stmt.sender.name, stmt.receiver.name,
                                freeze(index) if snapshots else None, stmt.span, grown.knowers)
                    made = built[id(stmt)] = (last, grown, sent)
                else:
                    index[stmt.var.name] = made[1]
                events.append(made[2])
            elif kind is ReadCase:
                value = bindings.get(stmt.var.name)
                if value is None:
                    return TraceMismatch(stmt.var.name, "bound message", None, "read of a variable with no value")
                arm = next((a for a in stmt.arms if _pattern_matches(a.pattern, value)), None)
                if arm is None:
                    return TraceMismatch(stmt.var.name, "a matching arm", value, "no case arm matches the value")
                made = built.get(id(arm))  # last and the event
                if made is None or made[0] is not last:
                    made = built[id(arm)] = (last, CaseTaken(stmt.var.name, format_pattern(arm.pattern)))
                events.append(made[1])
                block, pos = arm.body, 0
            elif kind is Rec:
                events.append(step("recursed", proto.name))
                break
            elif kind is Call:
                callee = file.protocol(param_binding.get(stmt.target, stmt.target))
                if callee is None:
                    raise ValueError(f"call target '{stmt.target}' did not resolve; run the checker first")
                if stmt.then_rec:
                    loops.append((proto, param_binding))
                events.append(step("called", callee.name))
                proto, param_binding = callee, dict(zip((q.name for q in callee.params), stmt.args))
                break
            elif kind is End:
                events.append(step("ended", proto.name))
                if not loops:
                    return Completed()
                proto, param_binding = loops.pop()
                events.append(step("recursed", proto.name))
                break
            else:
                raise TypeError(f"not a statement: {stmt!r}")
            last = made  # `rec`, `call` and `end` leave the pass, so only a node with an entry gets here
