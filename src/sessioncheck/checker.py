"""Knowledge-index abstract interpreter over parsed session descriptions.

Walks every protocol body once from the empty index, threading the index
through each construct. Every obligation failure becomes a diagnostic and
checking continues with the construct's effect applied as if it had been
valid, so one root cause does not cascade. Parametric protocols are
checked per instantiation (monomorphization); a parametric protocol that
is never instantiated is checked once against its declared signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, ERROR, WARNING
from .model import (
    BaseType,
    BinderRef,
    BoolOp,
    BOOL,
    INT,
    STR,
    Arith,
    BoolLit,
    Cmp,
    ErrorType,
    IntLit,
    KnowledgeIndex,
    NamedType,
    Proj,
    RefExpr,
    RefinedType,
    RoleId,
    Span,
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
    overlapping,
)
from .printer import format_pattern, format_stmt, format_type
from .syntax import (
    Block,
    BoolV,
    Call,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ReadCase,
    Rec,
    Send,
    SourceFile,
    StrV,
    Stmt,
    WildPat,
)

__all__ = ["CheckResult", "StepRecord", "KindError", "check_file", "kind_of_ref", "resolve_entry"]

_FALLBACK_SPAN = Span(1, 1, 1)


class KindError(Exception):
    """A refinement failed to kind-check; carries the offending span."""

    def __init__(self, span: Span | None, message: str):
        super().__init__(message)
        self.span = span or _FALLBACK_SPAN
        self.message = message


def _base(t: TypeExpr) -> str | None:
    return t.kind if isinstance(t, BaseType) else None


def kind_of_ref(expr: RefExpr, env: dict[str, TypeExpr], binder: TypeExpr | None) -> TypeExpr:
    """Kind of a refinement expression.

    ``env`` maps message variables to their declared types; ``binder`` is
    the payload type of the refined value, or None outside a refinement.
    ErrorType (checker recovery) is permissive: it flows through every rule.
    """
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
        if isinstance(base, ErrorType):
            return base
        if not isinstance(base, TupleType):
            raise KindError(expr.span, f"projection needs a tuple, found {format_type(base)}")
        if expr.index > len(base.elems):
            raise KindError(expr.span, f"position {expr.index} exceeds tuple arity {len(base.elems)}")
        return base.elems[expr.index - 1]
    if isinstance(expr, UnwrapDep):
        base = kind_of_ref(expr.base, env, binder)
        if isinstance(base, ErrorType):
            return base
        if not isinstance(base, RefinedType):
            raise KindError(expr.span, f"'!' unwraps refined values only, found {format_type(base)}")
        return base.payload
    if isinstance(expr, Arith):
        for side in (expr.lhs, expr.rhs):
            k = kind_of_ref(side, env, binder)
            if not isinstance(k, ErrorType) and _base(k) != "Int":
                raise KindError(side.span or expr.span, f"'{expr.op}' needs Int operands, found {format_type(k)}")
        return INT
    if isinstance(expr, Cmp):
        lk = kind_of_ref(expr.lhs, env, binder)
        rk = kind_of_ref(expr.rhs, env, binder)
        if isinstance(lk, ErrorType) or isinstance(rk, ErrorType):
            return BOOL
        if expr.op in ("<", "<="):
            for k, side in ((lk, expr.lhs), (rk, expr.rhs)):
                if _base(k) != "Int":
                    raise KindError(side.span or expr.span, f"'{expr.op}' needs Int operands, found {format_type(k)}")
            return BOOL
        if _base(lk) is None or _base(rk) is None:
            bad, side = (lk, expr.lhs) if _base(lk) is None else (rk, expr.rhs)
            raise KindError(side.span or expr.span, f"'{expr.op}' compares Int/Bool/Str values, found {format_type(bad)}")
        if _base(lk) != _base(rk):
            raise KindError(expr.span, f"'{expr.op}' needs matching kinds, found {format_type(lk)} vs {format_type(rk)}")
        return BOOL
    if isinstance(expr, BoolOp):
        for side in (expr.lhs, expr.rhs):
            k = kind_of_ref(side, env, binder)
            if not isinstance(k, ErrorType) and _base(k) != "Bool":
                raise KindError(side.span or expr.span, f"'{expr.op}' needs Bool operands, found {format_type(k)}")
        return BOOL
    raise TypeError(f"not a refinement expression: {expr!r}")


@dataclass(frozen=True)
class StepRecord:
    """Index snapshot after one executed statement, for `explain` and tests.

    Recorded only when ``check_file`` is called with ``record_steps=True``.
    """

    protocol: str
    path: str
    span: Span
    text: str
    index_after: KnowledgeIndex


@dataclass
class CheckResult:
    diagnostics: list[Diagnostic]
    # One entry per maximal control path (ending in end, rec, or a tail
    # call); empty whenever any error-severity diagnostic was emitted.
    final_indices: list[tuple[str, KnowledgeIndex]]
    # Empty unless check_file(..., record_steps=True).
    step_log: list[StepRecord] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors


def resolve_entry(file: SourceFile) -> ProtocolDecl | None:
    """Entry protocol: the declared one, else the unique ground protocol."""
    if file.entry is not None:
        return file.protocol(file.entry)
    grounds = [p for p in file.protocols if p.is_ground]
    return grounds[0] if len(grounds) == 1 else None


class _Checker:
    def __init__(self, file: SourceFile, disabled: frozenset[str], record_steps: bool):
        self.file = file
        self.disabled = disabled
        self.record_steps = record_steps
        self.diags: list[Diagnostic] = []
        self.final: list[tuple[str, KnowledgeIndex]] = []
        self.step_log: list[StepRecord] = []
        self.role_names = {r.name for r in file.roles}
        self.instantiated: set[tuple[str, tuple[str, ...]]] = set()
        self.queue: list[tuple[str, tuple[str, ...]]] = []

    # -- helpers -----------------------------------------------------------

    def emit(
        self, code: str, span: Span | None, message: str, severity: str = ERROR, related: Span | None = None
    ) -> None:
        if code in self.disabled:
            return
        self.diags.append(Diagnostic(code, severity, span or _FALLBACK_SPAN, message, related))

    def run(self) -> CheckResult:
        self.check_declarations()
        self.check_entry()
        for proto in self.file.protocols:
            if proto.is_ground:
                self.check_protocol(proto, binding=None, label=proto.name)
        while self.queue:
            name, args = self.queue.pop(0)
            proto = self.file.protocol(name)
            binding = dict(zip((q.name for q in proto.params), args))
            self.check_protocol(proto, binding=binding, label=f"{name}<{', '.join(args)}>")
        for proto in self.file.protocols:
            if not proto.is_ground and not any(name == proto.name for name, _ in self.instantiated):
                self.check_protocol(proto, binding={}, label=proto.name)
        self.diags.sort(key=lambda d: (d.span.line, d.span.col, d.code, d.message))
        deduped: list[Diagnostic] = []
        for d in self.diags:
            if not deduped or deduped[-1] != d:
                deduped.append(d)
        has_errors = any(d.severity == ERROR for d in deduped)
        return CheckResult(
            diagnostics=deduped,
            final_indices=[] if has_errors else self.final,
            step_log=self.step_log,
        )

    # -- declaration-level checks -------------------------------------------

    def check_declarations(self) -> None:
        seen_roles: set[str] = set()
        for r in self.file.roles:
            if r.name in seen_roles:
                self.emit("E001", r.span, f"duplicate role '{r.name}'")
            seen_roles.add(r.name)
        seen_types: set[str] = set()
        for v in self.file.variants:
            if v.name in seen_types:
                self.emit("E001", v.span, f"duplicate type '{v.name}'")
            seen_types.add(v.name)
            tags: set[str] = set()
            for c in v.ctors:
                if c.tag in tags:
                    self.emit("E001", c.span or v.span, f"duplicate constructor '{c.tag}' in type '{v.name}'")
                tags.add(c.tag)
                if c.payload is not None:
                    self.check_type(c.payload, c.span or v.span)
        seen_protos: set[str] = set()
        for p in self.file.protocols:
            if p.name in seen_protos:
                self.emit("E001", p.span, f"duplicate protocol '{p.name}'")
            seen_protos.add(p.name)
        for p in self.file.protocols:
            seen_params: set[str] = set()
            for q in p.params:
                if q.name in seen_params:
                    self.emit("E001", q.span or p.span, f"duplicate parameter '{q.name}'")
                seen_params.add(q.name)
                if self.file.protocol(q.name) is not None:
                    self.emit("E001", q.span or p.span, f"parameter '{q.name}' shadows a declared protocol")
                self.check_role_list(q.signature, q.span or p.span, f"parameter '{q.name}'")
            self.check_role_list(p.participants, p.span, f"protocol '{p.name}'")

    def check_role_list(self, roles: tuple[RoleId, ...], span: Span | None, where: str) -> None:
        seen: set[str] = set()
        for r in roles:
            if r.name not in self.role_names:
                self.emit("E001", span, f"unknown role '{r.name}' in {where}")
            if r.name in seen:
                self.emit("E001", span, f"duplicate participant '{r.name}' in {where}")
            seen.add(r.name)

    def check_type(self, t: TypeExpr, span: Span | None) -> None:
        if isinstance(t, NamedType):
            if self.file.variant(t.name) is None:
                self.emit("E001", t.span or span, f"unknown type '{t.name}'")
        elif isinstance(t, TupleType):
            for e in t.elems:
                self.check_type(e, span)
        elif isinstance(t, RefinedType):
            self.check_type(t.payload, span)

    def check_entry(self) -> None:
        proto = resolve_entry(self.file)
        if proto is not None:
            if not proto.is_ground:
                self.emit("E012", proto.span, f"entry protocol '{proto.name}' must be ground (it has protocol parameters)")
        elif self.file.entry is not None:
            self.emit("E001", _FALLBACK_SPAN, f"entry protocol '{self.file.entry}' is not declared")
        elif self.file.protocols:
            self.emit(
                "E001",
                _FALLBACK_SPAN,
                "no entry declaration and the file does not have exactly one ground protocol",
            )

    # -- protocol bodies -----------------------------------------------------

    def check_protocol(self, proto: ProtocolDecl, binding: dict[str, str] | None, label: str) -> None:
        ctx = _ProtoCtx(self, proto, binding or {}, label)
        ctx.check_block(proto.body, {}, label, guarded=False)

    def enqueue_instantiation(self, name: str, args: tuple[str, ...]) -> None:
        key = (name, args)
        if key not in self.instantiated:
            self.instantiated.add(key)
            self.queue.append(key)


@dataclass
class _ProtoCtx:
    checker: _Checker
    proto: ProtocolDecl
    binding: dict[str, str]  # param name -> protocol name; empty outside monomorphization
    label: str

    def emit(
        self, code: str, span: Span | None, message: str, severity: str = ERROR, related: Span | None = None
    ) -> None:
        if self.binding:
            message = f"{message} [in {self.label}]"
        self.checker.emit(code, span, message, severity, related)

    # Every role reference resolves against the declaration block (E001)
    # and against this protocol's participants (E002).
    def check_role(self, role: RoleId, span: Span | None, what: str) -> None:
        if role.name not in self.checker.role_names:
            self.emit("E001", span, f"unknown role '{role.name}'")
        elif role not in self.proto.participants:
            self.emit("E002", span, f"{what} '{role.name}' is not a participant of protocol '{self.proto.name}'")

    def record(self, stmt: Stmt, path: str, index: WorkingIndex) -> None:
        if self.checker.record_steps:
            self.checker.step_log.append(
                StepRecord(self.label, path, stmt.span or _FALLBACK_SPAN, format_stmt(stmt), freeze(index))
            )

    def finish(self, path: str, index: WorkingIndex) -> None:
        self.checker.final.append((path, freeze(index)))

    def check_block(self, block: Block, index: WorkingIndex, path: str, guarded: bool) -> None:
        i = 0
        while i < len(block):
            stmt = block[i]
            last = i == len(block) - 1
            if isinstance(stmt, (Rec, Call, End)) and not last:
                self.emit("E007", stmt.span, f"'{format_stmt(stmt).split()[0]}' must be the last statement on its path")
                i += 1  # drop the stray terminator, keep checking the successors
                continue
            if isinstance(stmt, ReadCase) and not last:
                self.emit("E007", stmt.span, "'read' must be the last statement on its path")
                self.check_read(stmt, index, path, guarded)
                return  # successors are unreachable behind the arms
            if isinstance(stmt, NewMsg):
                self.check_new_msg(stmt, index)
                guarded = True
            elif isinstance(stmt, NewDepMsg):
                self.check_new_dep(stmt, index)
                guarded = True
            elif isinstance(stmt, Send):
                self.check_send(stmt, index)
                guarded = True
            elif isinstance(stmt, ReadCase):
                self.check_read(stmt, index, path, guarded)
                return
            elif isinstance(stmt, Rec):
                if not guarded:
                    self.emit("E007", stmt.span, "unguarded recursion: the loop exchanges no messages", WARNING)
                self.record(stmt, path, index)
                self.finish(f"{path} (rec)", index)
                return
            elif isinstance(stmt, Call):
                self.check_call(stmt, index, path)
                return
            elif isinstance(stmt, End):
                self.record(stmt, path, index)
                self.finish(path, index)
                return
            self.record(stmt, path, index)
            i += 1
        # unreachable on parser output (blocks always close), but a hand
        # built AST may fall through: treat it as an implicit end.
        self.finish(path, index)

    def check_new_msg(self, stmt: NewMsg, index: WorkingIndex) -> None:
        self.check_role(stmt.creator, stmt.span, "creator")
        self.checker.check_type(stmt.type, stmt.span)
        self.bind_var(stmt.var, stmt.type, stmt.creator, stmt.span, index)

    def check_new_dep(self, stmt: NewDepMsg, index: WorkingIndex) -> None:
        self.check_role(stmt.creator, stmt.span, "creator")
        self.checker.check_type(stmt.rtype.payload, stmt.span)
        deps = free_vars_ordered(stmt.rtype.predicate)
        all_bound = True
        for v in deps:
            item = index.get(v)
            if item is None:
                self.emit("E009", stmt.span, f"predicate references '{v.name}', which is not bound on this path")
                all_bound = False
            elif stmt.creator not in item.knowers:
                self.emit(
                    "E004",
                    stmt.span,
                    f"'{stmt.var.name}' depends on '{v.name}', whose value creator '{stmt.creator.name}' does not know",
                    related=item.origin,
                )
        if all_bound:
            env = {v.name: index[v].type for v in deps}
            try:
                result = kind_of_ref(stmt.rtype.predicate, env, stmt.rtype.payload)
                if not isinstance(result, ErrorType) and _base(result) != "Bool":
                    self.emit("E010", stmt.span, f"refinement must be Bool, found {format_type(result)}")
            except KindError as err:
                self.emit("E010", err.span, f"ill-kinded refinement: {err.message}")
        self.bind_var(stmt.var, stmt.rtype, stmt.creator, stmt.span, index)

    def bind_var(self, var, type_, creator, span, index: WorkingIndex) -> None:
        item = index.get(var)
        if item is not None:
            self.emit(
                "E009",
                span,
                f"message variable '{var.name}' is already bound on this path",
                related=item.origin,
            )
            add_knower(index, var, creator)
            return
        add_item(index, var, type_, creator, span)

    def check_send(self, stmt: Send, index: WorkingIndex) -> None:
        self.check_role(stmt.sender, stmt.span, "sender")
        self.check_role(stmt.receiver, stmt.span, "receiver")
        if stmt.sender == stmt.receiver:
            self.emit("E011", stmt.span, f"'{stmt.sender.name}' cannot send '{stmt.var.name}' to itself")
        item = index.get(stmt.var)
        if item is None:
            self.emit("E009", stmt.span, f"message variable '{stmt.var.name}' is not bound on this path")
            return
        if stmt.sender not in item.knowers:
            self.emit(
                "E003",
                stmt.span,
                f"sender '{stmt.sender.name}' does not know '{stmt.var.name}'",
                related=item.origin,
            )
        add_knower(index, stmt.var, stmt.receiver)

    def check_read(self, stmt: ReadCase, index: WorkingIndex, path: str, guarded: bool) -> None:
        item = index.get(stmt.var)
        if item is None:
            self.emit("E009", stmt.span, f"message variable '{stmt.var.name}' is not bound on this path")
        else:
            missing = [r.name for r in self.proto.participants if r not in item.knowers]
            if missing:
                self.emit(
                    "E005",
                    stmt.span,
                    f"cannot read '{stmt.var.name}': not known to every participant (missing {', '.join(missing)})",
                )
        self.check_coverage(stmt, item.type if item is not None else ErrorType())
        self.record(stmt, path, index)
        # Every arm but the last works on a copy; the last takes this path's own.
        last = len(stmt.arms) - 1
        for i, arm in enumerate(stmt.arms):
            arm_index = index if i == last else index.copy()
            self.check_block(arm.body, arm_index, f"{path}/{format_pattern(arm.pattern)}", guarded)

    def check_coverage(self, stmt: ReadCase, scrutinee: TypeExpr) -> None:
        effective = scrutinee.payload if isinstance(scrutinee, RefinedType) else scrutinee
        has_wild = any(isinstance(a.pattern, WildPat) for a in stmt.arms)
        if isinstance(effective, ErrorType):
            return
        if isinstance(effective, NamedType):
            decl = self.checker.file.variant(effective.name)
            if decl is None:
                return  # unresolved type was already reported at the binding site
            covered: set[str] = set()
            for arm in stmt.arms:
                if isinstance(arm.pattern, CtorPat):
                    if decl.ctor(arm.pattern.tag) is None:
                        self.emit("E001", arm.pattern.span or stmt.span, f"'{effective.name}' has no constructor '{arm.pattern.tag}'")
                    else:
                        covered.add(arm.pattern.tag)
                elif isinstance(arm.pattern, LitPat):
                    self.emit("E010", arm.pattern.span or stmt.span, f"literal pattern cannot match values of type '{effective.name}'")
            if not has_wild and set(decl.tags()) - covered:
                missing = [t for t in decl.tags() if t not in covered]
                self.emit("E006", stmt.span, f"case over '{effective.name}' misses {', '.join(missing)} and has no '_' arm")
            return
        # Base/tuple scrutinee: literal arms can never cover, so a wildcard is mandatory.
        expected = _base(effective)
        for arm in stmt.arms:
            if isinstance(arm.pattern, CtorPat):
                self.emit("E010", arm.pattern.span or stmt.span, f"constructor pattern cannot match values of type {format_type(effective)}")
            elif isinstance(arm.pattern, LitPat):
                got = _value_kind(arm.pattern.value)
                if expected is None or got != expected:
                    self.emit("E010", arm.pattern.span or stmt.span, f"pattern of kind {got} cannot match values of type {format_type(effective)}")
        if not has_wild:
            self.emit("E006", stmt.span, f"case over {format_type(effective)} needs a final '_' arm")

    def check_call(self, stmt: Call, index: WorkingIndex, path: str) -> None:
        callee_participants: tuple[RoleId, ...] | None = None
        param_names = {q.name for q in self.proto.params}
        if stmt.target in param_names:
            if stmt.args:
                self.emit("E001", stmt.span, f"protocol parameter '{stmt.target}' takes no arguments")
            if self.binding and stmt.target in self.binding:
                callee_participants = self.checker.file.protocol(self.binding[stmt.target]).participants
            else:
                sig = next(q.signature for q in self.proto.params if q.name == stmt.target)
                callee_participants = sig
        else:
            decl = self.checker.file.protocol(stmt.target)
            if decl is None:
                self.emit("E001", stmt.span, f"unknown protocol '{stmt.target}'")
            else:
                callee_participants = decl.participants
                if len(stmt.args) != len(decl.params):
                    self.emit(
                        "E001",
                        stmt.span,
                        f"protocol '{decl.name}' expects {len(decl.params)} protocol argument(s), got {len(stmt.args)}",
                    )
                elif decl.params:
                    ok = True
                    for arg_name, param in zip(stmt.args, decl.params):
                        arg = self.checker.file.protocol(arg_name)
                        if arg is None:
                            self.emit("E001", stmt.span, f"unknown protocol '{arg_name}'")
                            ok = False
                        elif not arg.is_ground:
                            self.emit("E001", stmt.span, f"protocol argument '{arg_name}' must be ground")
                            ok = False
                        elif arg.participants != param.signature:
                            self.emit(
                                "E008",
                                stmt.span,
                                f"'{arg_name}' has participants [{_roles(arg.participants)}] but parameter "
                                f"'{param.name}' declares [{_roles(param.signature)}]",
                            )
                            ok = False
                    if ok:
                        self.checker.enqueue_instantiation(decl.name, stmt.args)
        if callee_participants is not None and not overlapping(callee_participants, self.proto.participants):
            self.emit(
                "E008",
                stmt.span,
                f"callee participants [{_roles(callee_participants)}] do not appear in order within "
                f"[{_roles(self.proto.participants)}]",
            )
        self.record(stmt, path, index)
        suffix = f" (call {stmt.target}, rec)" if stmt.then_rec else f" (call {stmt.target})"
        self.finish(f"{path}{suffix}", index)


def _roles(roles: tuple[RoleId, ...]) -> str:
    return ", ".join(r.name for r in roles)


def _value_kind(v) -> str:
    if isinstance(v, IntV):
        return "Int"
    if isinstance(v, BoolV):
        return "Bool"
    if isinstance(v, StrV):
        return "Str"
    return "value"


def check_file(file: SourceFile, *, disabled: frozenset[str] = frozenset(), record_steps: bool = False) -> CheckResult:
    """Check every protocol in ``file``; never raises, everything is a diagnostic.

    ``disabled`` suppresses the given diagnostic codes, a testing hook for
    the rule-mutation suite, not part of the CLI surface. ``record_steps``
    fills ``step_log`` with a snapshot after every statement (what
    `explain` prints); without it only ``final_indices`` is kept, and
    checking stays linear in the length of a path.
    """
    return _Checker(file, disabled, record_steps).run()
