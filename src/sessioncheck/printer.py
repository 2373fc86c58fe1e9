"""Canonical formatter: parse(format_source(f)) is structurally equal to f."""

from __future__ import annotations

from .model import (
    BINARY_OPS,
    Arith,
    BaseType,
    BinderRef,
    BoolLit,
    BoolOp,
    Cmp,
    IntLit,
    NamedType,
    Proj,
    RefExpr,
    RefinedType,
    StrLit,
    TupleType,
    TypeExpr,
    UnwrapDep,
    VariantDecl,
    VarRef,
)
from .syntax import (
    Arm,
    Block,
    BoolV,
    Call,
    ConV,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    Pattern,
    ProtocolDecl,
    ReadCase,
    Rec,
    Send,
    SourceFile,
    StrV,
    Stmt,
    TupleV,
    Value,
    WildPat,
)

__all__ = ["format_source", "format_type", "format_ref", "format_value", "format_pattern", "format_stmt"]

# Binding strength of each binary operator (higher binds tighter), from the
# one precedence table; postfix `.N` and `!` bind tighter than all of them.
_PREC = {op: level + 1 for level, ops in enumerate(BINARY_OPS) for op in ops}
_PREC_POSTFIX = len(BINARY_OPS) + 1


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def format_value(v: Value) -> str:
    if isinstance(v, IntV):
        return str(v.value)
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    if isinstance(v, StrV):
        return f'"{_escape(v.value)}"'
    if isinstance(v, TupleV):
        return "(" + ", ".join(format_value(x) for x in v.items) + ")"
    if isinstance(v, ConV):
        if v.arg is None:
            return v.tag
        if isinstance(v.arg, TupleV):
            return v.tag + "(" + ", ".join(format_value(x) for x in v.arg.items) + ")"
        return f"{v.tag}({format_value(v.arg)})"
    raise TypeError(f"not a value: {v!r}")


def format_type(t: TypeExpr) -> str:
    if isinstance(t, BaseType):
        return t.kind
    if isinstance(t, NamedType):
        return t.name
    if isinstance(t, TupleType):
        return "(" + ", ".join(format_type(e) for e in t.elems) + ")"
    if isinstance(t, RefinedType):
        return _format_refined(t)
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


def _ref(e: RefExpr, labels: tuple[str, ...], parent: int) -> str:
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
        # malformed sugar tag; fall through to the plain rendering
    if isinstance(e, (Arith, Cmp, BoolOp)):
        # left-associative: only a right operand at the same level needs parentheses
        prec = _PREC[e.op]
        out = f"{_ref(e.lhs, labels, prec)} {e.op} {_ref(e.rhs, labels, prec + 1)}"
        return f"({out})" if prec < parent else out
    raise TypeError(f"unprintable refinement: {e!r}")


def format_pattern(p: Pattern) -> str:
    """A read-arm pattern as written: constructor tag, literal or `_`."""
    if isinstance(p, CtorPat):
        return p.tag
    if isinstance(p, LitPat):
        return format_value(p.value)
    if isinstance(p, WildPat):
        return "_"
    raise TypeError(f"not a pattern: {p!r}")


def format_stmt(s: Stmt) -> str:
    """One-line rendering of a statement (reads show only their scrutinee)."""
    if isinstance(s, NewMsg):
        return f"msg {s.var} : {format_type(s.type)} by {s.creator}"
    if isinstance(s, NewDepMsg):
        return f"dep {s.var} : {_format_refined(s.rtype)} by {s.creator}"
    if isinstance(s, Send):
        return f"send {s.var} {s.sender} -> {s.receiver}"
    if isinstance(s, ReadCase):
        return f"read {s.var} {{ ... }}"
    if isinstance(s, Rec):
        return "rec"
    if isinstance(s, Call):
        args = "(" + ", ".join(s.args) + ")" if s.args else ""
        return f"call {s.target}{args}" + (" then rec" if s.then_rec else "")
    if isinstance(s, End):
        return "end"
    raise TypeError(f"not a statement: {s!r}")


def _emit_block(block: Block, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for i, stmt in enumerate(block):
        sep = ";" if i < len(block) - 1 else ""
        if isinstance(stmt, ReadCase):
            out.append(f"{pad}read {stmt.var} {{")
            _emit_arms(stmt.arms, indent + 1, out)
            out.append(f"{pad}}}{sep}")
        else:
            out.append(f"{pad}{format_stmt(stmt)}{sep}")


def _emit_arms(arms: tuple[Arm, ...], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for i, arm in enumerate(arms):
        sep = ";" if i < len(arms) - 1 else ""
        head = format_pattern(arm.pattern)
        if len(arm.body) == 1 and not isinstance(arm.body[0], ReadCase):
            out.append(f"{pad}{head} => {format_stmt(arm.body[0])}{sep}")
        else:
            out.append(f"{pad}{head} =>")
            buf: list[str] = []
            _emit_block(arm.body, indent + 1, buf)
            if sep:
                buf[-1] = buf[-1] + sep
            out.extend(buf)


def _emit_protocol(p: ProtocolDecl, out: list[str]) -> None:
    head = f"protocol {p.name}"
    if p.params:
        params = ", ".join(f"{q.name} : protocol[{', '.join(r.name for r in q.signature)}]" for q in p.params)
        head += f"<{params}>"
    head += " [" + ", ".join(r.name for r in p.participants) + "] {"
    out.append(head)
    _emit_block(p.body, 1, out)
    out.append("}")


def _format_variant(v: VariantDecl) -> str:
    def ctor(c) -> str:
        if c.payload is None:
            return c.tag
        if isinstance(c.payload, TupleType):
            return c.tag + "(" + ", ".join(format_type(e) for e in c.payload.elems) + ")"
        return f"{c.tag}({format_type(c.payload)})"

    return f"type {v.name} = " + " | ".join(ctor(c) for c in v.ctors)


def format_source(f: SourceFile) -> str:
    """Canonical text: roles, then types, then protocols, then the entry."""
    sections: list[str] = []
    if f.roles:
        sections.append("roles " + ", ".join(r.name for r in f.roles))
    if f.variants:
        sections.append("\n".join(_format_variant(v) for v in f.variants))
    for p in f.protocols:
        buf: list[str] = []
        _emit_protocol(p, buf)
        sections.append("\n".join(buf))
    if f.entry is not None:
        sections.append(f"entry {f.entry}")
    return "\n\n".join(sections) + "\n"
