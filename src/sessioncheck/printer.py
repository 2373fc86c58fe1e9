"""Canonical formatter: parse(format_source(f)) is structurally equal to f.

This is the layout of a whole file; it prints each term through the
printers beside the AST in ``syntax``, which ``check`` loads without it.
"""

from __future__ import annotations

from .model import TupleType, VariantDecl
from .syntax import (
    TERMINATOR_WORDS, Arm, Block, Call, End, NewDepMsg, NewMsg, ProtocolDecl, ReadCase, Rec, Send, SourceFile, Stmt,
    format_pattern, format_type,
)

__all__ = ["format_source", "format_stmt"]


def format_stmt(s: Stmt) -> str:
    """One-line rendering of a statement (reads show only their scrutinee)."""
    kind = type(s)
    if kind is Send:
        return f"send {s.var} {s.sender} -> {s.receiver}"
    if kind is NewDepMsg:
        return f"dep {s.var} : {format_type(s.rtype)} by {s.creator}"
    if kind is NewMsg:
        return f"msg {s.var} : {format_type(s.type)} by {s.creator}"
    if kind is End or kind is Rec:
        return TERMINATOR_WORDS[kind]
    if kind is Call:
        args = "(" + ", ".join(s.args) + ")" if s.args else ""
        return f"{TERMINATOR_WORDS[Call]} {s.target}{args}" + (f" then {TERMINATOR_WORDS[Rec]}" if s.then_rec else "")
    if kind is ReadCase:
        return f"{TERMINATOR_WORDS[ReadCase]} {s.var} {{ ... }}"
    raise TypeError(f"not a statement: {s!r}")


def _emit_block(block: Block, indent: int, out: list[str], last_sep: str = "") -> None:
    pad = "  " * indent
    for i, stmt in enumerate(block):
        sep = ";" if i < len(block) - 1 else last_sep
        if type(stmt) is ReadCase:
            out.append(f"{pad}{TERMINATOR_WORDS[ReadCase]} {stmt.var} {{")
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
            _emit_block(arm.body, indent + 1, out, sep)


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
