"""Core domain types and the knowledge-index algebra.

The knowledge index is the checker's abstract state: an ordered list of
items, one per message variable, each carrying the message type and the
set of roles that have seen the value.

It comes in two forms. ``KnowledgeIndex`` is the frozen snapshot, a tuple
of immutable ``KnowledgeItem`` values, and ``introduce``/``learn``/
``knows``/``all_know`` over it are the pure reference semantics. The
checker and the simulator instead thread one insertion-ordered working
map (``WorkingIndex``, a dict from var to item) along each control path
and update it in place with ``add_item`` and ``add_knower``, which behave
like ``introduce`` and ``learn`` but cost O(1). ``freeze`` turns a working
map into a snapshot that shares its items, so a snapshot costs one tuple
of pointers and is made only where something reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

__all__ = [
    "Span",
    "RoleId",
    "VarId",
    "BaseType",
    "TupleType",
    "NamedType",
    "RefinedType",
    "ErrorType",
    "TypeExpr",
    "INT",
    "BOOL",
    "STR",
    "Ctor",
    "VariantDecl",
    "IntLit",
    "BoolLit",
    "StrLit",
    "VarRef",
    "BinderRef",
    "Proj",
    "UnwrapDep",
    "Arith",
    "Cmp",
    "BoolOp",
    "RefExpr",
    "BINARY_OPS",
    "KnowledgeItem",
    "KnowledgeIndex",
    "WorkingIndex",
    "EMPTY_INDEX",
    "DuplicateVar",
    "UnknownVar",
    "introduce",
    "learn",
    "knows",
    "all_know",
    "add_item",
    "add_knower",
    "overlapping",
    "free_vars",
    "free_vars_ordered",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Span:
    """Source location of a construct: 1-based line/column plus length in chars."""

    line: int
    col: int
    length: int = 1


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RoleId:
    """A named protocol participant; equality is exact name equality."""

    name: str

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid role name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VarId:
    """A message variable; unique along any single control path."""

    name: str

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Message payload types


@dataclass(frozen=True)
class BaseType:
    kind: str  # "Int" | "Bool" | "Str"
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if self.kind not in ("Int", "Bool", "Str"):
            raise ValueError(f"unknown base type: {self.kind}")


@dataclass(frozen=True)
class TupleType:
    elems: tuple["TypeExpr", ...]
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if len(self.elems) < 2:
            raise ValueError("tuple type needs arity >= 2")


@dataclass(frozen=True)
class NamedType:
    """Reference to a declared variant type; resolved against the file."""

    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class RefinedType:
    """Payload type constrained by a predicate over the bound value.

    ``labels`` names the value inside the predicate: one label aliases the
    whole value, k >= 2 labels alias the components of a tuple payload, and
    an empty tuple means the predicate can only reach the value through the
    literal/next sugar.
    """

    payload: "TypeExpr"
    labels: tuple[str, ...]
    predicate: "RefExpr"
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if len(self.labels) >= 2 and not (
            isinstance(self.payload, TupleType) and len(self.payload.elems) == len(self.labels)
        ):
            raise ValueError("component labels must match a tuple payload of the same arity")


@dataclass(frozen=True)
class ErrorType:
    """Placeholder type produced by checker recovery; never parsed or printed."""

    span: Span | None = _span_field()


TypeExpr = Union[BaseType, TupleType, NamedType, RefinedType, ErrorType]

INT = BaseType("Int")
BOOL = BaseType("Bool")
STR = BaseType("Str")


@dataclass(frozen=True)
class Ctor:
    tag: str
    payload: TypeExpr | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class VariantDecl:
    name: str
    ctors: tuple[Ctor, ...]
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if not self.ctors:
            raise ValueError("variant type needs at least one constructor")

    def tags(self) -> tuple[str, ...]:
        return tuple(c.tag for c in self.ctors)

    def ctor(self, tag: str) -> Ctor | None:
        for c in self.ctors:
            if c.tag == tag:
                return c
        return None


# ---------------------------------------------------------------------------
# Refinement predicate expressions


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span | None = _span_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Span | None = _span_field()


@dataclass(frozen=True)
class StrLit:
    value: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class VarRef:
    var: VarId
    span: Span | None = _span_field()


@dataclass(frozen=True)
class BinderRef:
    """The refined value itself; distinct from VarRef so free_vars skips it."""

    span: Span | None = _span_field()


@dataclass(frozen=True)
class Proj:
    base: "RefExpr"
    index: int  # 1-based tuple position
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("projection index is 1-based")


@dataclass(frozen=True)
class UnwrapDep:
    """Projects the payload out of a value of refined type."""

    base: "RefExpr"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Arith:
    op: str  # "+" | "-" | "*"
    lhs: "RefExpr"
    rhs: "RefExpr"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Cmp:
    op: str  # "==" | "!=" | "<" | "<="
    lhs: "RefExpr"
    rhs: "RefExpr"
    # "literal" / "next" when the node came from (or should print as) the
    # corresponding surface sugar; None for a spelled-out comparison.
    sugar: str | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    lhs: "RefExpr"
    rhs: "RefExpr"
    span: Span | None = _span_field()


RefExpr = Union[IntLit, BoolLit, StrLit, VarRef, BinderRef, Proj, UnwrapDep, Arith, Cmp, BoolOp]

# Binary refinement operators by precedence level, loosest first; every
# level is left-associative, and postfix `.N` / `!` bind tighter than all.
# This is the only encoding of precedence: the parser builds its operator
# loop from it (`_Parser.parse_binary`) and the printer derives where it
# needs parentheses from it (`printer._PREC`).
BINARY_OPS = (("or",), ("and",), ("==", "!=", "<", "<="), ("+", "-"), ("*",))


def free_vars_ordered(expr: RefExpr) -> tuple[VarId, ...]:
    """Message variables referenced by ``expr``, first occurrence first.

    The refinement binder is a distinct node kind, so it never shows up here.
    """
    out: list[VarId] = []

    def walk(e: RefExpr) -> None:
        if isinstance(e, VarRef):
            if e.var not in out:
                out.append(e.var)
        elif isinstance(e, (Proj, UnwrapDep)):
            walk(e.base)
        elif isinstance(e, (Arith, Cmp, BoolOp)):
            walk(e.lhs)
            walk(e.rhs)

    walk(expr)
    return tuple(out)


def free_vars(expr: RefExpr) -> frozenset[VarId]:
    """Set of message variables appearing in VarRef nodes of ``expr``."""
    return frozenset(free_vars_ordered(expr))


# ---------------------------------------------------------------------------
# Knowledge index


class DuplicateVar(Exception):
    """Raised when introducing a variable that is already indexed."""


class UnknownVar(Exception):
    """Raised when updating a variable that is not indexed."""


@dataclass(frozen=True)
class KnowledgeItem:
    """One message variable, its type, and the roles that know its value.

    ``knowers`` is an insertion-ordered, duplicate-free set: order is
    preserved so diagnostics and reports print deterministically.
    ``origin`` is where the message was created on this path, the secondary
    span of E003, E004 and E009; like every span it takes no part in
    equality.
    """

    var: VarId
    type: TypeExpr
    knowers: tuple[RoleId, ...]
    origin: Span | None = _span_field()

    def __post_init__(self) -> None:
        if not self.knowers:
            raise ValueError("a message always has at least its creator")
        if len(set(self.knowers)) != len(self.knowers):
            raise ValueError("knowers must be duplicate-free")


@dataclass(frozen=True)
class KnowledgeIndex:
    items: tuple[KnowledgeItem, ...] = ()

    def __post_init__(self) -> None:
        names = [item.var for item in self.items]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique across items")

    def lookup(self, var: VarId) -> KnowledgeItem | None:
        for item in self.items:
            if item.var == var:
                return item
        return None

    def __contains__(self, var: VarId) -> bool:
        return self.lookup(var) is not None

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


EMPTY_INDEX = KnowledgeIndex()

# The index of one control path while it is checked or run, updated in place.
WorkingIndex = dict[VarId, KnowledgeItem]


def introduce(index: KnowledgeIndex, var: VarId, type: TypeExpr, creator: RoleId) -> KnowledgeIndex:
    """Extend ``index`` with a fresh item whose only knower is the creator."""
    if var in index:
        raise DuplicateVar(var.name)
    return KnowledgeIndex(index.items + (KnowledgeItem(var, type, (creator,)),))


def learn(index: KnowledgeIndex, var: VarId, role: RoleId) -> KnowledgeIndex:
    """Add ``role`` to the knowers of ``var``; idempotent."""
    item = index.lookup(var)
    if item is None:
        raise UnknownVar(var.name)
    if role in item.knowers:
        return index
    updated = KnowledgeItem(item.var, item.type, item.knowers + (role,), item.origin)
    return KnowledgeIndex(tuple(updated if it.var == var else it for it in index.items))


def knows(index: KnowledgeIndex, var: VarId, role: RoleId) -> bool:
    """True iff ``var`` is indexed and ``role`` is among its knowers."""
    item = index.lookup(var)
    return item is not None and role in item.knowers


def all_know(index: KnowledgeIndex, var: VarId, participants: Iterable[RoleId]) -> bool:
    """True iff every participant knows ``var``."""
    return all(knows(index, var, r) for r in participants)


def add_item(
    working: WorkingIndex, var: VarId, type: TypeExpr, creator: RoleId, origin: Span | None = None
) -> None:
    """In-place ``introduce``: add a fresh item whose only knower is the creator."""
    if var in working:
        raise DuplicateVar(var.name)
    working[var] = KnowledgeItem(var, type, (creator,), origin)


def add_knower(working: WorkingIndex, var: VarId, role: RoleId) -> None:
    """In-place ``learn``: add ``role`` to the knowers of ``var``; idempotent.

    The item is replaced, never mutated, so snapshots that share it keep
    their contents; replacing a key keeps its place in the order. The new
    item is valid by construction (``role`` is not among the old, already
    checked knowers), so it is built, like ``freeze``'s snapshot, without
    ``KnowledgeItem.__post_init__``.
    """
    item = working.get(var)
    if item is None:
        raise UnknownVar(var.name)
    if role not in item.knowers:
        grown = object.__new__(KnowledgeItem)
        object.__setattr__(grown, "var", var)
        object.__setattr__(grown, "type", item.type)
        object.__setattr__(grown, "knowers", item.knowers + (role,))
        object.__setattr__(grown, "origin", item.origin)
        working[var] = grown


def freeze(working: WorkingIndex) -> KnowledgeIndex:
    """Snapshot of a working map, sharing its items.

    Internal to the package: the map's keys already make the variables
    unique, so the check in ``KnowledgeIndex.__post_init__`` is skipped.
    """
    index = object.__new__(KnowledgeIndex)
    object.__setattr__(index, "items", tuple(working.values()))
    return index


def overlapping(sub: Iterable[RoleId], super: Iterable[RoleId]) -> bool:
    """True iff ``sub`` is an order-preserving subsequence of ``super``."""
    it = iter(super)
    return all(any(s == x for x in it) for s in sub)
