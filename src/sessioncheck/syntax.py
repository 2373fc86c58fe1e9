"""AST for `.ssn` session description files and `.trace` value traces.

Statement sequences are kept as tuples; the checker and simulator thread
state through them left to right. Spans never participate in equality, so
a parse/print round trip compares structurally equal.
"""

from __future__ import annotations

from typing import Union

from .model import RefinedType, RoleId, Span, TypeExpr, VarId, VariantDecl
from .records import quiet, record

__all__ = [
    "IntV",
    "BoolV",
    "StrV",
    "TupleV",
    "ConV",
    "Value",
    "VALUE_KINDS",
    "CtorPat",
    "LitPat",
    "WildPat",
    "Pattern",
    "NewMsg",
    "NewDepMsg",
    "Send",
    "Arm",
    "ReadCase",
    "Rec",
    "Call",
    "End",
    "Stmt",
    "Block",
    "TERMINATORS",
    "RoleDecl",
    "ProtoParam",
    "ProtocolDecl",
    "SourceFile",
    "TraceBinding",
    "Trace",
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

TERMINATORS = (ReadCase, Rec, Call, End)


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
