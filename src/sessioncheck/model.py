"""Core domain types and the knowledge-index algebra.

The knowledge index is the checker's abstract state: an ordered list of
items, one per message variable, each carrying the message type and the
set of roles that have seen the value.

It comes in two forms. ``KnowledgeIndex`` is the frozen snapshot, a tuple
of immutable ``KnowledgeItem`` values, and ``introduce``/``learn``/
``knows``/``all_know`` over it are the pure reference semantics. The
checker and the simulator instead thread one insertion-ordered working
map (``WorkingIndex``, a dict from a variable's name to its item) along
each control path and update it in place with ``add_item`` and
``add_knower``, which behave like ``introduce`` and ``learn`` but cost
O(1). The map is keyed by name, not by ``VarId``: a ``str`` caches its
hash, so a lookup runs no record's Python-level ``__hash__``. ``freeze``
turns a working map into a snapshot that shares its items, so a snapshot
costs one tuple of pointers and is made only where something reads it.

Payload types are only the four the parser builds (``BaseType``,
``TupleType``, ``NamedType``, ``RefinedType``): every indexed type is a
declared one, so the checker needs no placeholder type for recovery.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .records import quiet, record

__all__ = [
    "IDENT",
    "line_starts",
    "position",
    "Span",
    "RoleId",
    "VarId",
    "BaseType",
    "TupleType",
    "NamedType",
    "RefinedType",
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

# An identifier (role, variable, type, tag, protocol or label name): the
# lexer scans words with this pattern and RoleId and VarId check names
# against it.
IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT + r"\Z")


def line_starts(text: str) -> list[int]:
    """The offset of each line's first character, for ``position``, and then
    ``len(text) + 1``, past every offset. Only ``\\n`` ends a line."""
    # Each line is one character longer than its text, for its newline.
    return list(accumulate(map((1).__add__, map(len, text.split("\n"))), initial=0))


def position(starts: Sequence[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``, given ``line_starts``."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


@record
class Span:
    """Source location of a construct: start offset and length in characters,
    and the quiet line-start table (``line_starts``) that every span of a
    parse shares. ``line`` and ``col`` are found by ``position`` when read;
    ``line_col`` gives both for one lookup. Without a table, a span is on
    line 1 at column ``offset + 1``."""

    offset: int
    length: int
    line_starts: Sequence[int] = quiet((0,))

    @property
    def line_col(self) -> tuple[int, int]:
        return position(self.line_starts, self.offset)

    @property
    def line(self) -> int:
        return position(self.line_starts, self.offset)[0]

    @property
    def col(self) -> int:
        return position(self.line_starts, self.offset)[1]


def _check_name(name: str, what: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"invalid {what} name: {name!r}")


@record
class RoleId:
    """A named protocol participant; equality is exact name equality."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name, "role")

    def __str__(self) -> str:
        return self.name


@record
class VarId:
    """A message variable; unique along any single control path."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name, "variable")

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Message payload types


@record
class BaseType:
    kind: str  # "Int" | "Bool" | "Str"
    span: Span | None = quiet()

    def __post_init__(self) -> None:
        if self.kind not in ("Int", "Bool", "Str"):
            raise ValueError(f"unknown base type: {self.kind}")


@record
class TupleType:
    elems: tuple["TypeExpr", ...]
    span: Span | None = quiet()

    def __post_init__(self) -> None:
        if len(self.elems) < 2:
            raise ValueError("tuple type needs arity >= 2")


@record
class NamedType:
    """Reference to a declared variant type; resolved against the file."""

    name: str
    span: Span | None = quiet()


@record
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
    span: Span | None = quiet()

    def __post_init__(self) -> None:
        if len(self.labels) >= 2 and not (
            isinstance(self.payload, TupleType) and len(self.payload.elems) == len(self.labels)
        ):
            raise ValueError("component labels must match a tuple payload of the same arity")


TypeExpr = Union[BaseType, TupleType, NamedType, RefinedType]

INT = BaseType("Int")
BOOL = BaseType("Bool")
STR = BaseType("Str")


@record
class Ctor:
    tag: str
    payload: TypeExpr | None = None
    span: Span | None = quiet()


@record
class VariantDecl:
    name: str
    ctors: tuple[Ctor, ...]
    span: Span | None = quiet()
    _ctor_table: dict[str, Ctor] | None = quiet()  # filled by __post_init__

    def __post_init__(self) -> None:
        if not self.ctors:
            raise ValueError("variant type needs at least one constructor")
        # Built last to first, so a tag declared twice (an E001) keeps its first constructor.
        object.__setattr__(self, "_ctor_table", {c.tag: c for c in reversed(self.ctors)})

    def tags(self) -> tuple[str, ...]:
        return tuple(c.tag for c in self.ctors)

    def ctor(self, tag: str) -> Ctor | None:
        return self._ctor_table.get(tag)


# ---------------------------------------------------------------------------
# Refinement predicate expressions


@record
class IntLit:
    value: int
    span: Span | None = quiet()


@record
class BoolLit:
    value: bool
    span: Span | None = quiet()


@record
class StrLit:
    value: str
    span: Span | None = quiet()


@record
class VarRef:
    var: VarId
    span: Span | None = quiet()


@record
class BinderRef:
    """The refined value itself; distinct from VarRef so free_vars skips it."""

    span: Span | None = quiet()


@record
class Proj:
    base: "RefExpr"
    index: int  # 1-based tuple position
    span: Span | None = quiet()

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("projection index is 1-based")


@record
class UnwrapDep:
    """Projects the payload out of a value of refined type."""

    base: "RefExpr"
    span: Span | None = quiet()


@record
class Arith:
    op: str  # "+" | "-" | "*"
    lhs: "RefExpr"
    rhs: "RefExpr"
    span: Span | None = quiet()


@record
class Cmp:
    op: str  # "==" | "!=" | "<" | "<="
    lhs: "RefExpr"
    rhs: "RefExpr"
    # "literal" / "next" when the node came from (or should print as) the
    # corresponding surface sugar; None for a spelled-out comparison.
    sugar: str | None = None
    span: Span | None = quiet()


@record
class BoolOp:
    op: str  # "and" | "or"
    lhs: "RefExpr"
    rhs: "RefExpr"
    span: Span | None = quiet()


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
    stack = [expr]
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is VarRef:
            if e.var not in out:
                out.append(e.var)
        elif kind is Cmp or kind is Arith or kind is BoolOp:
            stack += (e.rhs, e.lhs)  # the left side pops first
        elif kind is UnwrapDep or kind is Proj:
            stack.append(e.base)
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


@record
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
    origin: Span | None = quiet()

    def __post_init__(self) -> None:
        if not self.knowers:
            raise ValueError("a message always has at least its creator")
        if len(set(self.knowers)) != len(self.knowers):
            raise ValueError("knowers must be duplicate-free")


@record
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

# The slot setters of the index records, which build an item or a snapshot
# without its checks, as the records' own ``__init__`` stores each field.
_set_var, _set_type, _set_knowers, _set_origin = (getattr(KnowledgeItem, n).__set__ for n in KnowledgeItem.__slots__)
_set_items = KnowledgeIndex.items.__set__

# The index of one control path while it is checked or run, updated in
# place: each item under its variable's name.
WorkingIndex = dict[str, KnowledgeItem]


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
    """In-place ``introduce``: add a fresh item, under ``var.name``, whose
    only knower is the creator. One knower is duplicate-free, so the item is
    built, like ``add_knower``'s, without ``KnowledgeItem.__post_init__``."""
    if var.name in working:
        raise DuplicateVar(var.name)
    working[var.name] = _item(var, type, (creator,), origin)


def add_knower(working: WorkingIndex, var: VarId, role: RoleId) -> None:
    """In-place ``learn``: add ``role`` to the knowers of ``var``, the item
    under ``var.name``; idempotent.

    The item is replaced, never mutated, so snapshots that share it keep
    their contents; replacing a key keeps its place in the order. The new
    item is valid by construction (``role`` is not among the old, already
    checked knowers), so it is built, like ``freeze``'s snapshot, without
    ``KnowledgeItem.__post_init__``.
    """
    item = working.get(var.name)
    if item is None:
        raise UnknownVar(var.name)
    if role not in item.knowers:
        working[var.name] = _item(var, item.type, item.knowers + (role,), item.origin)


def _item(var: VarId, type: TypeExpr, knowers: tuple[RoleId, ...], origin: Span | None) -> KnowledgeItem:
    """A ``KnowledgeItem`` built without its checks, for knowers known to be
    duplicate-free."""
    item = object.__new__(KnowledgeItem)
    _set_var(item, var)
    _set_type(item, type)
    _set_knowers(item, knowers)
    _set_origin(item, origin)
    return item


def freeze(working: WorkingIndex) -> KnowledgeIndex:
    """Snapshot of a working map, sharing its items.

    Internal to the package: the map's keys already make the variables
    unique, so the check in ``KnowledgeIndex.__post_init__`` is skipped.
    """
    index = object.__new__(KnowledgeIndex)
    _set_items(index, tuple(working.values()))
    return index


def overlapping(sub: Iterable[RoleId], super: Iterable[RoleId]) -> bool:
    """True iff ``sub`` is an order-preserving subsequence of ``super``."""
    it = iter(super)
    return all(any(s == x for x in it) for s in sub)
