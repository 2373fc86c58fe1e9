"""Reference walkers over refinements, each finding a node's kind by a
ladder of ``isinstance`` tests.

These are the package's ``eval_ref``, ``kind_of_ref``, ``format_ref`` and
``free_vars_ordered`` as they were written before every walker picked its
branch once by exact type. Records are final (``sessioncheck.records``),
so for a record ``isinstance(node, X)`` and ``type(node) is X`` agree. They
share the package's exceptions, operator table and printer helpers, so a
test can require each dispatched walker to return what its ladder returns,
or to raise the same exception with the same message.
"""

from __future__ import annotations

from sessioncheck.checker import KindError
from sessioncheck.model import (
    BOOL,
    INT,
    STR,
    Arith,
    BaseType,
    BinderRef,
    BoolLit,
    BoolOp,
    Cmp,
    IntLit,
    Proj,
    RefinedType,
    StrLit,
    TupleType,
    UnwrapDep,
    VarRef,
)
from sessioncheck.printer import _PREC, _PREC_POSTFIX, _escape, format_type, format_value
from sessioncheck.simulator import _OPERATORS, EvalError
from sessioncheck.syntax import BoolV, IntV, StrV, TupleV


def eval_ref(expr, bindings, binder_value):
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
        return eval_ref(expr.base, bindings, binder_value)
    if isinstance(expr, (Arith, Cmp, BoolOp)):
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
    raise TypeError(f"not a refinement expression: {expr!r}")


def _base(t):
    return t.kind if isinstance(t, BaseType) else None


def _operand(expr, side, kind, want):
    if _base(kind) != want.kind:
        raise KindError(side.span or expr.span, f"'{expr.op}' needs {want.kind} operands, found {format_type(kind)}")


def kind_of_ref(expr, env, binder):
    if isinstance(expr, IntLit):
        return INT
    if isinstance(expr, BoolLit):
        return BOOL
    if isinstance(expr, StrLit):
        return STR
    if isinstance(expr, VarRef):
        if expr.var.name not in env:
            raise KindError(expr.span, f"unbound variable '{expr.var.name}'")
        return env[expr.var.name]
    if isinstance(expr, BinderRef):
        if binder is None:
            raise KindError(expr.span, "no refined value in scope here")
        return binder
    if isinstance(expr, Proj):
        base = kind_of_ref(expr.base, env, binder)
        if not isinstance(base, TupleType):
            raise KindError(expr.span, f"projection needs a tuple, found {format_type(base)}")
        if expr.index > len(base.elems):
            raise KindError(expr.span, f"position {expr.index} exceeds tuple arity {len(base.elems)}")
        return base.elems[expr.index - 1]
    if isinstance(expr, UnwrapDep):
        base = kind_of_ref(expr.base, env, binder)
        if not isinstance(base, RefinedType):
            raise KindError(expr.span, f"'!' unwraps refined values only, found {format_type(base)}")
        return base.payload
    if isinstance(expr, (Arith, BoolOp)):
        want = INT if isinstance(expr, Arith) else BOOL
        for side in (expr.lhs, expr.rhs):
            _operand(expr, side, kind_of_ref(side, env, binder), want)
        return want
    if isinstance(expr, Cmp):
        lk = kind_of_ref(expr.lhs, env, binder)
        rk = kind_of_ref(expr.rhs, env, binder)
        if expr.op in ("<", "<="):
            _operand(expr, expr.lhs, lk, INT)
            _operand(expr, expr.rhs, rk, INT)
            return BOOL
        if _base(lk) is None or _base(rk) is None:
            bad, side = (lk, expr.lhs) if _base(lk) is None else (rk, expr.rhs)
            raise KindError(side.span or expr.span, f"'{expr.op}' compares Int/Bool/Str values, found {format_type(bad)}")
        if _base(lk) != _base(rk):
            raise KindError(expr.span, f"'{expr.op}' needs matching kinds, found {format_type(lk)} vs {format_type(rk)}")
        return BOOL
    raise TypeError(f"not a refinement expression: {expr!r}")


def format_ref(e, labels=()):
    return _ref(e, labels, 0)


def _ref(e, labels, parent):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StrLit):
        return f'"{_escape(e.value)}"'
    if isinstance(e, VarRef):
        return e.var.name
    if isinstance(e, BinderRef):
        return labels[0] if len(labels) == 1 else "_"
    if isinstance(e, Proj):
        if isinstance(e.base, BinderRef) and len(labels) >= 2 and e.index <= len(labels):
            return labels[e.index - 1]
        return f"{_ref(e.base, labels, _PREC_POSTFIX)}.{e.index}"
    if isinstance(e, UnwrapDep):
        return f"{_ref(e.base, labels, _PREC_POSTFIX)}!"
    if isinstance(e, Cmp) and e.sugar == "literal":
        return f"literal({_ref(e.rhs, labels, 0)})"
    if isinstance(e, Cmp) and e.sugar == "next":
        inner = e.rhs
        if isinstance(inner, Arith) and inner.op == "+" and isinstance(inner.rhs, IntLit) and inner.rhs.value == 1:
            return f"next({_ref(inner.lhs, labels, 0)})"
    if isinstance(e, (Arith, Cmp, BoolOp)):
        prec = _PREC[e.op]
        out = f"{_ref(e.lhs, labels, prec)} {e.op} {_ref(e.rhs, labels, prec + 1)}"
        return f"({out})" if prec < parent else out
    raise TypeError(f"unprintable refinement: {e!r}")


def free_vars_ordered(expr):
    out = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, VarRef):
            if e.var not in out:
                out.append(e.var)
        elif isinstance(e, (Proj, UnwrapDep)):
            stack.append(e.base)
        elif isinstance(e, (Arith, Cmp, BoolOp)):
            stack += (e.rhs, e.lhs)
    return tuple(out)
