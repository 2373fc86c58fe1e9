"""Printers of the terms a diagnostic or a report names: types, values, refinements and patterns.

The checker, the simulator, the JSON writers and the text reports print
through these; the layout of a whole file (``printer``) builds on them.
"""

from __future__ import annotations

from .model import (
    BINARY_OPS, Arith, BaseType, BinderRef, BoolLit, BoolOp, Cmp, IntLit, NamedType, Proj, RefExpr, RefinedType, StrLit,
    TupleType, TypeExpr, UnwrapDep, VarRef,
)
from .syntax import BoolV, ConV, CtorPat, IntV, LitPat, Pattern, StrV, TupleV, Value, WildPat

__all__ = ["format_type", "format_value", "format_pattern", "format_ref", "binder_name"]

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
