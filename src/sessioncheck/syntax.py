"""AST for `.ssn` session description files and `.trace` value traces.

Statement sequences are kept as tuples; the checker and simulator thread
state through them left to right. Spans never participate in equality, so
a parse/print round trip compares structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import RefinedType, RoleId, Span, TypeExpr, VarId, VariantDecl, _span_field

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


@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class BoolV:
    value: bool


@dataclass(frozen=True)
class StrV:
    value: str


@dataclass(frozen=True)
class TupleV:
    items: tuple["Value", ...]


@dataclass(frozen=True)
class ConV:
    tag: str
    arg: "Value | None" = None


Value = Union[IntV, BoolV, StrV, TupleV, ConV]

# The base type of each literal value: what a literal pattern can match,
# and what a trace value of a base type must be.
VALUE_KINDS = {IntV: "Int", BoolV: "Bool", StrV: "Str"}


# ---------------------------------------------------------------------------
# Read patterns


@dataclass(frozen=True)
class CtorPat:
    tag: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class LitPat:
    value: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class WildPat:
    span: Span | None = _span_field()


Pattern = Union[CtorPat, LitPat, WildPat]


# ---------------------------------------------------------------------------
# Session statements


@dataclass(frozen=True)
class NewMsg:
    var: VarId
    type: TypeExpr
    creator: RoleId
    span: Span | None = _span_field()


@dataclass(frozen=True)
class NewDepMsg:
    var: VarId
    rtype: RefinedType
    creator: RoleId
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Send:
    var: VarId
    sender: RoleId
    receiver: RoleId
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Arm:
    pattern: Pattern
    body: "Block"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class ReadCase:
    var: VarId
    arms: tuple[Arm, ...]
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("read needs at least one arm")


@dataclass(frozen=True)
class Rec:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Call:
    target: str  # protocol name or protocol-parameter name
    args: tuple[str, ...] = ()
    then_rec: bool = False
    span: Span | None = _span_field()


@dataclass(frozen=True)
class End:
    span: Span | None = _span_field()


Stmt = Union[NewMsg, NewDepMsg, Send, ReadCase, Rec, Call, End]
Block = tuple[Stmt, ...]

TERMINATORS = (ReadCase, Rec, Call, End)


# ---------------------------------------------------------------------------
# Top-level declarations


@dataclass(frozen=True)
class RoleDecl:
    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class ProtoParam:
    name: str
    signature: tuple[RoleId, ...]  # declared participant list of the protocol argument
    span: Span | None = _span_field()


@dataclass(frozen=True)
class ProtocolDecl:
    name: str
    params: tuple[ProtoParam, ...]
    participants: tuple[RoleId, ...]
    body: Block
    span: Span | None = _span_field()

    @property
    def is_ground(self) -> bool:
        return not self.params


@dataclass(frozen=True)
class SourceFile:
    roles: tuple[RoleDecl, ...] = ()
    variants: tuple[VariantDecl, ...] = ()
    protocols: tuple[ProtocolDecl, ...] = ()
    entry: str | None = None  # None when the file relies on the default rule

    # The only name lookups: every module resolves a type or protocol name
    # here, so a name declared twice (an E001) means its first declaration.
    def variant(self, name: str) -> VariantDecl | None:
        for v in self.variants:
            if v.name == name:
                return v
        return None

    def protocol(self, name: str) -> ProtocolDecl | None:
        for p in self.protocols:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceBinding:
    var: VarId
    value: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Trace:
    bindings: tuple[TraceBinding, ...] = ()
