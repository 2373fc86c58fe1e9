"""Knowledge-index abstract interpreter over parsed session descriptions.

Walks every protocol body once from the empty index, threading the index
through each construct. Every obligation failure becomes a diagnostic and
checking continues with the construct's effect applied as if it had been
valid, so one root cause does not cascade. Parametric protocols are
checked per instantiation (monomorphization); a parametric protocol that
no ground protocol instantiates is checked once against its declared
signatures, and so is every instantiation that such a body makes.
"""

from __future__ import annotations

from collections import deque

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
from .records import record
from .syntax import (
    Block, Call, CtorPat, End, LitPat, NewDepMsg, NewMsg, ProtocolDecl, ReadCase, Rec, Send, SourceFile, Stmt, WildPat,
    TERMINATOR_WORDS, VALUE_KINDS, format_pattern, format_type,
)

__all__ = ["CheckResult", "StepRecord", "KindError", "check_file", "kind_of_ref", "resolve_entry"]

_FALLBACK_SPAN = Span(0, 1)


class KindError(Exception):
    """A refinement failed to kind-check; carries the offending span."""

    def __init__(self, span: Span | None, message: str):
        super().__init__(message)
        self.span = span or _FALLBACK_SPAN
        self.message = message


def _base(t: TypeExpr) -> str | None:
    return t.kind if type(t) is BaseType else None


def _operand(expr: Arith | Cmp | BoolOp, side: RefExpr, kind: TypeExpr, want: BaseType) -> None:
    """Reject ``side``, an operand of ``expr`` of kind ``kind``, unless it is a ``want``."""
    if _base(kind) != want.kind:
        raise KindError(side.span or expr.span, f"'{expr.op}' needs {want.kind} operands, found {format_type(kind)}")


def kind_of_ref(expr: RefExpr, env: dict[str, TypeExpr], binder: TypeExpr | None) -> TypeExpr:
    """Kind of a refinement expression.

    ``env`` maps message variables to their declared types; ``binder`` is
    the payload type of the refined value, or None outside a refinement.
    Both only ever hold declared types.
    """
    kind = type(expr)
    if kind is VarRef:
        if expr.var.name not in env:
            raise KindError(expr.span, f"unbound variable '{expr.var.name}'")
        return env[expr.var.name]
    if kind is IntLit:
        return INT
    if kind is BinderRef:
        if binder is None:
            raise KindError(expr.span, "no refined value in scope here")
        return binder
    if kind is Cmp:
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
    if kind is Arith or kind is BoolOp:  # each side is checked as soon as it is kinded
        want = INT if kind is Arith else BOOL
        for side in (expr.lhs, expr.rhs):
            _operand(expr, side, kind_of_ref(side, env, binder), want)
        return want
    if kind is UnwrapDep:
        base = kind_of_ref(expr.base, env, binder)
        if not isinstance(base, RefinedType):
            raise KindError(expr.span, f"'!' unwraps refined values only, found {format_type(base)}")
        return base.payload
    if kind is Proj:
        base = kind_of_ref(expr.base, env, binder)
        if not isinstance(base, TupleType):
            raise KindError(expr.span, f"projection needs a tuple, found {format_type(base)}")
        if expr.index > len(base.elems):
            raise KindError(expr.span, f"position {expr.index} exceeds tuple arity {len(base.elems)}")
        return base.elems[expr.index - 1]
    if kind is StrLit:
        return STR
    if kind is BoolLit:
        return BOOL
    raise TypeError(f"not a refinement expression: {expr!r}")


@record
class StepRecord:
    """Index snapshot after one executed statement, for `explain` and tests.

    Recorded only when ``check_file`` is called with ``record_steps=True``.
    """

    protocol: str
    path: str
    span: Span
    text: str
    index_after: KnowledgeIndex


@record
class CheckResult:
    diagnostics: list[Diagnostic]
    # One entry per maximal control path (ending in end, rec, or a tail
    # call); empty whenever any error-severity diagnostic was emitted.
    final_indices: list[tuple[str, KnowledgeIndex]]
    # Empty unless check_file(..., record_steps=True).
    step_log: list[StepRecord]

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
        # The argument lists each protocol has been instantiated with, by name.
        self.instantiated: dict[str, set[tuple[str, ...]]] = {}
        self.queue: deque[tuple[str, tuple[str, ...]]] = deque()
        # What the declared bodies flagged: a parametric protocol that no ground
        # one instantiates is checked as declared before any instantiation of it.
        self.declared_findings: set[tuple[str, Span | None, str]] = set()
        # The body being checked, its parameters by name and its participants'
        # names, set by check_protocol.
        self.proto, self.params, self.participants, self.label, self.instance = None, {}, set(), "", False

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
                self.check_protocol(proto)
        self.drain()
        # Which protocols no ground one instantiates is settled before any is
        # checked, so what one of them instantiates, checked by the second
        # drain, cannot depend on the order of the declarations.
        for proto in [p for p in self.file.protocols if not p.is_ground and p.name not in self.instantiated]:
            self.check_protocol(proto)
        self.drain()
        self.diags.sort(key=lambda d: (*d.span.line_col, d.code, d.message))
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
        for r in _repeats(self.file.roles):
            self.emit("E001", r.span, f"duplicate role '{r.name}'")
        for v in _repeats(self.file.variants):
            self.emit("E001", v.span, f"duplicate type '{v.name}'")
        for v in self.file.variants:
            for c in _repeats(v.ctors, key=lambda c: c.tag):
                self.emit("E001", c.span or v.span, f"duplicate constructor '{c.tag}' in type '{v.name}'")
            for c in v.ctors:
                if c.payload is not None:
                    self.check_type(c.payload, c.span or v.span)
        for p in _repeats(self.file.protocols):
            self.emit("E001", p.span, f"duplicate protocol '{p.name}'")
        for p in self.file.protocols:
            for q in _repeats(p.params):
                self.emit("E001", q.span or p.span, f"duplicate parameter '{q.name}'")
            for q in p.params:
                if self.file.protocol(q.name) is not None:
                    self.emit("E001", q.span or p.span, f"parameter '{q.name}' shadows a declared protocol")
                self.check_role_list(q.signature, q.span or p.span, f"parameter '{q.name}'")
            self.check_role_list(p.participants, p.span, f"protocol '{p.name}'")

    def check_role_list(self, roles: tuple[RoleId, ...], span: Span | None, where: str) -> None:
        for r in roles:
            if r.name not in self.role_names:
                self.emit("E001", span, f"unknown role '{r.name}' in {where}")
        for r in _repeats(roles):
            self.emit("E001", span, f"duplicate participant '{r.name}' in {where}")

    def check_type(self, t: TypeExpr, span: Span | None) -> None:
        kind = type(t)
        if kind is NamedType:  # a BaseType takes no branch
            if self.file.variant(t.name) is None:
                self.emit("E001", t.span or span, f"unknown type '{t.name}'")
        elif kind is TupleType:
            for e in t.elems:
                self.check_type(e, span)
        elif kind is RefinedType:
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

    def check_protocol(self, proto: ProtocolDecl, args: tuple[str, ...] = ()) -> None:
        """Check one body: an instantiation's when ``args`` name the protocol
        arguments, else the declared one."""
        self.proto, self.instance = proto, bool(args)
        # Built last to first, so a parameter declared twice (an E001) means its first declaration.
        self.params = {q.name: q for q in reversed(proto.params)}
        self.participants = {r.name for r in proto.participants}
        self.label = f"{proto.name}<{', '.join(args)}>" if args else proto.name
        self.check_block(proto.body, {}, self.label, guarded=False)

    def drain(self) -> None:
        """Check every instantiation enqueued and not yet checked, and those they enqueue."""
        while self.queue:
            name, args = self.queue.popleft()
            self.check_protocol(self.file.protocol(name), args)

    def enqueue_instantiation(self, name: str, args: tuple[str, ...]) -> None:
        seen = self.instantiated.setdefault(name, set())
        if args not in seen:
            seen.add(args)
            self.queue.append((name, args))

    def flag(
        self, code: str, span: Span | None, message: str, severity: str = ERROR, related: Span | None = None
    ) -> None:
        """``emit`` for a finding in a body; an instantiation's names it,
        unless the declared body, checked first, has the same finding."""
        if self.instance:
            if (code, span, message) in self.declared_findings:
                return
            message = f"{message} [in {self.label}]"
        else:
            self.declared_findings.add((code, span, message))
        self.emit(code, span, message, severity, related)

    # Every role reference resolves against the declaration block (E001)
    # and against this protocol's participants (E002).
    def check_role(self, role: RoleId, span: Span | None, what: str) -> None:
        if role.name not in self.role_names:
            self.flag("E001", span, f"unknown role '{role.name}'")
        elif role.name not in self.participants:
            self.flag("E002", span, f"{what} '{role.name}' is not a participant of protocol '{self.proto.name}'")

    def record(self, stmt: Stmt, path: str, index: WorkingIndex) -> None:
        if self.record_steps:
            from .printer import format_stmt  # only `explain` records steps, so only it loads the layout

            self.step_log.append(StepRecord(self.label, path, stmt.span or _FALLBACK_SPAN, format_stmt(stmt), freeze(index)))

    def finish(self, path: str, index: WorkingIndex) -> None:
        self.final.append((path, freeze(index)))

    def check_block(self, block: Block, index: WorkingIndex, path: str, guarded: bool) -> None:
        for i, stmt in enumerate(block):
            kind = type(stmt)
            last = i == len(block) - 1
            if kind is Send:
                self.check_send(stmt, index)
            elif kind is NewDepMsg:
                self.check_new_dep(stmt, index)
            elif kind is NewMsg:
                self.check_new_msg(stmt, index)
            elif kind is ReadCase:
                if not last:
                    self.flag("E007", stmt.span, f"'{TERMINATOR_WORDS[kind]}' must be the last statement on its path")
                self.check_read(stmt, index, path, guarded)
                return  # successors are unreachable behind the arms
            elif kind is Rec or kind is Call or kind is End:
                if not last:
                    self.flag("E007", stmt.span, f"'{TERMINATOR_WORDS[kind]}' must be the last statement on its path")
                    continue  # drop the stray terminator, keep checking the successors
                if kind is Call:
                    self.check_call(stmt, index, path)
                    return
                if kind is Rec and not guarded:
                    self.flag("E007", stmt.span, "unguarded recursion: the loop exchanges no messages", WARNING)
                self.record(stmt, path, index)
                self.finish(f"{path} (rec)" if kind is Rec else path, index)
                return
            else:
                raise TypeError(f"not a statement: {stmt!r}")
            guarded = True
            self.record(stmt, path, index)
        # unreachable on parser output (blocks always close), but a hand
        # built AST may fall through: treat it as an implicit end.
        self.finish(path, index)

    def check_new_msg(self, stmt: NewMsg, index: WorkingIndex) -> None:
        self.check_role(stmt.creator, stmt.span, "creator")
        self.check_type(stmt.type, stmt.span)
        self.bind_var(stmt.var, stmt.type, stmt.creator, stmt.span, index)

    def check_new_dep(self, stmt: NewDepMsg, index: WorkingIndex) -> None:
        self.check_role(stmt.creator, stmt.span, "creator")
        self.check_type(stmt.rtype.payload, stmt.span)
        deps = free_vars_ordered(stmt.rtype.predicate)
        all_bound = True
        for v in deps:
            item = index.get(v.name)
            if item is None:
                self.flag("E009", stmt.span, f"predicate references '{v.name}', which is not bound on this path")
                all_bound = False
            elif stmt.creator not in item.knowers:
                self.flag(
                    "E004",
                    stmt.span,
                    f"'{stmt.var.name}' depends on '{v.name}', whose value creator '{stmt.creator.name}' does not know",
                    related=item.origin,
                )
        if all_bound:
            env = {v.name: index[v.name].type for v in deps}
            try:
                result = kind_of_ref(stmt.rtype.predicate, env, stmt.rtype.payload)
                if _base(result) != "Bool":
                    self.flag("E010", stmt.span, f"refinement must be Bool, found {format_type(result)}")
            except KindError as err:
                self.flag("E010", err.span, f"ill-kinded refinement: {err.message}")
        self.bind_var(stmt.var, stmt.rtype, stmt.creator, stmt.span, index)

    def bind_var(self, var, type_, creator, span, index: WorkingIndex) -> None:
        item = index.get(var.name)
        if item is not None:
            self.flag(
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
            self.flag("E011", stmt.span, f"'{stmt.sender.name}' cannot send '{stmt.var.name}' to itself")
        item = index.get(stmt.var.name)
        if item is None:
            self.flag("E009", stmt.span, f"message variable '{stmt.var.name}' is not bound on this path")
            return
        if stmt.sender not in item.knowers:
            self.flag(
                "E003",
                stmt.span,
                f"sender '{stmt.sender.name}' does not know '{stmt.var.name}'",
                related=item.origin,
            )
        add_knower(index, stmt.var, stmt.receiver)

    def check_read(self, stmt: ReadCase, index: WorkingIndex, path: str, guarded: bool) -> None:
        item = index.get(stmt.var.name)
        if item is None:  # nothing to check the arms against
            self.flag("E009", stmt.span, f"message variable '{stmt.var.name}' is not bound on this path")
        else:
            knowers = {r.name for r in item.knowers}
            missing = [r.name for r in self.proto.participants if r.name not in knowers]
            if missing:
                self.flag(
                    "E005",
                    stmt.span,
                    f"cannot read '{stmt.var.name}': not known to every participant (missing {', '.join(missing)})",
                )
            self.check_coverage(stmt, item.type)
        self.record(stmt, path, index)
        # Every arm but the last works on a copy; the last takes this path's own.
        last = len(stmt.arms) - 1
        for i, arm in enumerate(stmt.arms):
            arm_index = index if i == last else index.copy()
            self.check_block(arm.body, arm_index, f"{path}/{format_pattern(arm.pattern)}", guarded)

    def check_coverage(self, stmt: ReadCase, scrutinee: TypeExpr) -> None:
        effective = scrutinee.payload if isinstance(scrutinee, RefinedType) else scrutinee
        has_wild = any(isinstance(a.pattern, WildPat) for a in stmt.arms)
        if isinstance(effective, NamedType):
            decl = self.file.variant(effective.name)
            if decl is None:
                return  # unresolved type was already reported at the binding site
            covered: set[str] = set()
            for arm in stmt.arms:
                if isinstance(arm.pattern, CtorPat):
                    if decl.ctor(arm.pattern.tag) is None:
                        self.flag("E001", arm.pattern.span or stmt.span, f"'{effective.name}' has no constructor '{arm.pattern.tag}'")
                    else:
                        covered.add(arm.pattern.tag)
                elif isinstance(arm.pattern, LitPat):
                    self.flag("E010", arm.pattern.span or stmt.span, f"literal pattern cannot match values of type '{effective.name}'")
            missing = [t for t in decl.tags() if t not in covered]
            if missing and not has_wild:
                self.flag("E006", stmt.span, f"case over '{effective.name}' misses {', '.join(missing)} and has no '_' arm")
            return
        # Base/tuple scrutinee: literal arms can never cover, so a wildcard is mandatory.
        expected = _base(effective)
        for arm in stmt.arms:
            if isinstance(arm.pattern, CtorPat):
                self.flag("E010", arm.pattern.span or stmt.span, f"constructor pattern cannot match values of type {format_type(effective)}")
            elif isinstance(arm.pattern, LitPat):
                got = VALUE_KINDS.get(type(arm.pattern.value), "value")
                if expected is None or got != expected:
                    self.flag("E010", arm.pattern.span or stmt.span, f"pattern of kind {got} cannot match values of type {format_type(effective)}")
        if not has_wild:
            self.flag("E006", stmt.span, f"case over {format_type(effective)} needs a final '_' arm")

    def check_call(self, stmt: Call, index: WorkingIndex, path: str) -> None:
        callee_participants: tuple[RoleId, ...] | None = None
        param = self.params.get(stmt.target)
        if param is not None:
            if stmt.args:
                self.flag("E001", stmt.span, f"protocol parameter '{stmt.target}' takes no arguments")
            # An instantiation's argument has exactly its parameter's signature.
            callee_participants = param.signature
        else:
            decl = self.file.protocol(stmt.target)
            if decl is None:
                self.flag("E001", stmt.span, f"unknown protocol '{stmt.target}'")
            else:
                callee_participants = decl.participants
                if len(stmt.args) != len(decl.params):
                    self.flag(
                        "E001",
                        stmt.span,
                        f"protocol '{decl.name}' expects {len(decl.params)} protocol argument(s), got {len(stmt.args)}",
                    )
                elif decl.params:
                    ok = True
                    for arg_name, param in zip(stmt.args, decl.params):
                        arg = self.file.protocol(arg_name)
                        if arg is None:
                            self.flag("E001", stmt.span, f"unknown protocol '{arg_name}'")
                            ok = False
                        elif not arg.is_ground:
                            self.flag("E001", stmt.span, f"protocol argument '{arg_name}' must be ground")
                            ok = False
                        elif arg.participants != param.signature:
                            self.flag(
                                "E008",
                                stmt.span,
                                f"'{arg_name}' has participants [{_roles(arg.participants)}] but parameter "
                                f"'{param.name}' declares [{_roles(param.signature)}]",
                            )
                            ok = False
                    if ok:
                        self.enqueue_instantiation(decl.name, stmt.args)
        if callee_participants is not None and not overlapping(callee_participants, self.proto.participants):
            self.flag(
                "E008",
                stmt.span,
                f"callee participants [{_roles(callee_participants)}] do not appear in order within "
                f"[{_roles(self.proto.participants)}]",
            )
        self.record(stmt, path, index)
        suffix = f" (call {stmt.target}, rec)" if stmt.then_rec else f" (call {stmt.target})"
        self.finish(f"{path}{suffix}", index)


def _repeats(items, key=lambda item: item.name) -> list:
    """The items whose key an earlier item already has, in order."""
    seen = set()
    repeats = []
    for item in items:
        if key(item) in seen:
            repeats.append(item)
        seen.add(key(item))
    return repeats


def _roles(roles: tuple[RoleId, ...]) -> str:
    return ", ".join(r.name for r in roles)


def check_file(file: SourceFile, *, disabled: frozenset[str] = frozenset(), record_steps: bool = False) -> CheckResult:
    """Check every protocol in ``file``; never raises, everything is a diagnostic.

    ``disabled`` suppresses the given diagnostic codes, a testing hook for
    the rule-mutation suite, not part of the CLI surface. ``record_steps``
    fills ``step_log`` with a snapshot after every statement (what
    `explain` prints); without it only ``final_indices`` is kept, and
    checking stays linear in the length of a path.
    """
    return _Checker(file, disabled, record_steps).run()
