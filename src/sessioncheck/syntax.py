"""AST for `.ssn` session description files and `.trace` value traces,
and the printers of the terms a diagnostic or a report names.

Statement sequences are kept as tuples; the checker and simulator thread
state through them left to right. Spans never participate in equality, so
a parse/print round trip compares structurally equal.

The term printers (``format_type``, ``format_ref``, ``format_value`` and
``format_pattern``) sit beside the records they print, as ``ast.unparse``
sits in ``ast``: the checker, the simulator, the JSON writers and the
text reports print through them, and the layout of a whole file
(``printer``) builds on them.
"""

from __future__ import annotations

from typing import Union

from .model import (
    BINARY_OPS, Arith, BaseType, BinderRef, BoolLit, BoolOp, Cmp, IntLit, NamedType, Proj, RefExpr, RefinedType, RoleId,
    Span, StrLit, TupleType, TypeExpr, UnwrapDep, VariantDecl, VarId, VarRef,
)
from .records import quiet, record

__all__ = [
    "IntV", "BoolV", "StrV", "TupleV", "ConV", "Value", "VALUE_KINDS", "CtorPat", "LitPat", "WildPat", "Pattern",
    "NewMsg", "NewDepMsg", "Send", "Arm", "ReadCase", "Rec", "Call", "End", "Stmt", "Block", "TERMINATORS",
    "TERMINATOR_WORDS", "RoleDecl", "ProtoParam", "ProtocolDecl", "SourceFile", "TraceBinding", "Trace", "format_type",
    "format_value", "format_pattern", "format_ref", "binder_name",
]


# ---------------------------------------------------------------------------
# Concrete runtime values (used by traces, literal patterns, the simulator)


@record
class IntV:
    value: int


@record
class BoolV:
    value: bool


@record
class StrV:
    value: str


@record
class TupleV:
    items: tuple["Value", ...]


@record
class ConV:
    tag: str
    arg: "Value | None" = None


Value = Union[IntV, BoolV, StrV, TupleV, ConV]

# The base type of each literal value: what a literal pattern can match,
# and what a trace value of a base type must be.
VALUE_KINDS = {IntV: "Int", BoolV: "Bool", StrV: "Str"}


# ---------------------------------------------------------------------------
# Read patterns


@record
class CtorPat:
    tag: str
    span: Span | None = quiet()


@record
class LitPat:
    value: Value
    span: Span | None = quiet()


@record
class WildPat:
    span: Span | None = quiet()


Pattern = Union[CtorPat, LitPat, WildPat]


# ---------------------------------------------------------------------------
# Session statements


@record
class NewMsg:
    var: VarId
    type: TypeExpr
    creator: RoleId
    span: Span | None = quiet()


@record
class NewDepMsg:
    var: VarId
    rtype: RefinedType
    creator: RoleId
    span: Span | None = quiet()


@record
class Send:
    var: VarId
    sender: RoleId
    receiver: RoleId
    span: Span | None = quiet()


@record
class Arm:
    pattern: Pattern
    body: "Block"
    span: Span | None = quiet()


@record
class ReadCase:
    var: VarId
    arms: tuple[Arm, ...]
    span: Span | None = quiet()

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("read needs at least one arm")


@record
class Rec:
    span: Span | None = quiet()


@record
class Call:
    target: str  # protocol name or protocol-parameter name
    args: tuple[str, ...] = ()
    then_rec: bool = False
    span: Span | None = quiet()


@record
class End:
    span: Span | None = quiet()


Stmt = Union[NewMsg, NewDepMsg, Send, ReadCase, Rec, Call, End]
Block = tuple[Stmt, ...]

# The keyword of each statement that closes its path, as the source spells it.
TERMINATOR_WORDS = {ReadCase: "read", Rec: "rec", Call: "call", End: "end"}
TERMINATORS = tuple(TERMINATOR_WORDS)


# ---------------------------------------------------------------------------
# Top-level declarations


@record
class RoleDecl:
    name: str
    span: Span | None = quiet()


@record
class ProtoParam:
    name: str
    signature: tuple[RoleId, ...]  # declared participant list of the protocol argument
    span: Span | None = quiet()


@record
class ProtocolDecl:
    name: str
    params: tuple[ProtoParam, ...]
    participants: tuple[RoleId, ...]
    body: Block
    span: Span | None = quiet()

    @property
    def is_ground(self) -> bool:
        return not self.params


@record
class SourceFile:
    roles: tuple[RoleDecl, ...] = ()
    variants: tuple[VariantDecl, ...] = ()
    protocols: tuple[ProtocolDecl, ...] = ()
    entry: str | None = None  # None when the file relies on the default rule
    _variant_table: dict[str, VariantDecl] | None = quiet()  # both filled by __post_init__
    _protocol_table: dict[str, ProtocolDecl] | None = quiet()

    def __post_init__(self) -> None:
        # Each table is built last to first, so a name declared twice (an
        # E001) keeps its first declaration.
        object.__setattr__(self, "_variant_table", {v.name: v for v in reversed(self.variants)})
        object.__setattr__(self, "_protocol_table", {p.name: p for p in reversed(self.protocols)})

    # The only name lookups: every module resolves a type or protocol name
    # here, in O(1), so a name declared twice means its first declaration.
    def variant(self, name: str) -> VariantDecl | None:
        return self._variant_table.get(name)

    def protocol(self, name: str) -> ProtocolDecl | None:
        return self._protocol_table.get(name)


# ---------------------------------------------------------------------------
# Traces


@record
class TraceBinding:
    var: VarId
    value: Value


@record
class Trace:
    bindings: tuple[TraceBinding, ...] = ()


# ---------------------------------------------------------------------------
# Term printers

# Binding strength of each binary operator (higher binds tighter), from the
# one precedence table; postfix `.N` and `!` bind tighter than all of them.
_PREC = {op: level + 1 for level, ops in enumerate(BINARY_OPS) for op in ops}
_PREC_POSTFIX = len(BINARY_OPS) + 1


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def format_value(v: Value) -> str:
    kind = type(v)
    if kind is IntV:
        return str(v.value)
    if kind is StrV:
        return f'"{_escape(v.value)}"'
    if kind is TupleV:
        return "(" + ", ".join(format_value(x) for x in v.items) + ")"
    if kind is ConV:
        if v.arg is None:
            return v.tag
        if isinstance(v.arg, TupleV):
            return v.tag + "(" + ", ".join(format_value(x) for x in v.arg.items) + ")"
        return f"{v.tag}({format_value(v.arg)})"
    if kind is BoolV:
        return "true" if v.value else "false"
    raise TypeError(f"not a value: {v!r}")


def format_type(t: TypeExpr) -> str:
    kind = type(t)
    if kind is BaseType:
        return t.kind
    if kind is RefinedType:
        return _format_refined(t)
    if kind is NamedType:
        return t.name
    if kind is TupleType:
        return "(" + ", ".join(format_type(e) for e in t.elems) + ")"
    raise TypeError(f"unprintable type: {t!r}")


def _format_refined(t: RefinedType) -> str:
    pred = format_ref(t.predicate, t.labels)
    if not t.labels:
        return f"{format_type(t.payload)} where {pred}"
    if len(t.labels) == 1:
        return f"({t.labels[0]} : {format_type(t.payload)}) where {pred}"
    assert isinstance(t.payload, TupleType)
    comps = ", ".join(f"{lbl} : {format_type(e)}" for lbl, e in zip(t.labels, t.payload.elems))
    return f"({comps}) where {pred}"


def format_ref(e: RefExpr, labels: tuple[str, ...] = ()) -> str:
    """Render a refinement with minimal parentheses; labels name the binder."""
    return _ref(e, labels, 0)


def binder_name(labels: tuple[str, ...]) -> str:
    """How a refinement with ``labels`` names its binder: its one label, else ``_``."""
    return labels[0] if len(labels) == 1 else "_"


def _ref(e: RefExpr, labels: tuple[str, ...], parent: int) -> str:
    kind = type(e)
    if kind is VarRef:
        return e.var.name
    if kind is IntLit:
        return str(e.value)
    if kind is BinderRef:
        return binder_name(labels)
    if kind is Cmp and e.sugar == "literal":
        return f"literal({_ref(e.rhs, labels, 0)})"
    if kind is Cmp and e.sugar == "next":
        inner = e.rhs
        if isinstance(inner, Arith) and inner.op == "+" and isinstance(inner.rhs, IntLit) and inner.rhs.value == 1:
            return f"next({_ref(inner.lhs, labels, 0)})"
        # malformed sugar tag; fall through to the plain rendering
    if kind is Cmp or kind is Arith or kind is BoolOp:
        # left-associative: only a right operand at the same level needs parentheses
        prec = _PREC[e.op]
        out = f"{_ref(e.lhs, labels, prec)} {e.op} {_ref(e.rhs, labels, prec + 1)}"
        return f"({out})" if prec < parent else out
    if kind is UnwrapDep:
        return f"{_ref(e.base, labels, _PREC_POSTFIX)}!"
    if kind is Proj:
        if isinstance(e.base, BinderRef) and len(labels) >= 2 and e.index <= len(labels):
            return labels[e.index - 1]
        return f"{_ref(e.base, labels, _PREC_POSTFIX)}.{e.index}"
    if kind is StrLit:
        return f'"{_escape(e.value)}"'
    if kind is BoolLit:
        return "true" if e.value else "false"
    raise TypeError(f"unprintable refinement: {e!r}")


def format_pattern(p: Pattern) -> str:
    """A read-arm pattern as written: constructor tag, literal or `_`."""
    kind = type(p)
    if kind is CtorPat:
        return p.tag
    if kind is WildPat:
        return "_"
    if kind is LitPat:
        return format_value(p.value)
    raise TypeError(f"not a pattern: {p!r}")
