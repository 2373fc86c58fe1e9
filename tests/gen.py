"""Seeded random generators shared by the property and acceptance tests.

Two families:

* ``gen_checkable_file`` builds call-free protocol files for exercising the
  checker against the brute-force oracle. Roughly a third of the output
  carries an injected fault so both verdicts occur.
* ``gen_printable_file`` builds arbitrary well-formed ASTs (parameters,
  calls, sugar, every pattern kind) for the parse/print round-trip.
  Printability is the only constraint; the checker may reject them.
"""

from __future__ import annotations

import random
import string

from sessioncheck.model import (
    Arith,
    BaseType,
    BinderRef,
    BoolLit,
    BoolOp,
    Cmp,
    Ctor,
    IntLit,
    NamedType,
    Proj,
    RefinedType,
    RoleId,
    StrLit,
    TupleType,
    UnwrapDep,
    VariantDecl,
    VarId,
    VarRef,
    INT,
    BOOL,
    STR,
)
from sessioncheck.syntax import (
    Arm,
    BoolV,
    Call,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ProtoParam,
    ReadCase,
    Rec,
    RoleDecl,
    Send,
    SourceFile,
    StrV,
    WildPat,
)

ROLE_POOL = ["A", "B", "C", "D"]
SAFE_CHARS = string.ascii_letters + string.digits + " .,!?-_:;'/+*$#@"


# ---------------------------------------------------------------------------
# Checker-oriented generator (call-free, <= 4 roles, <= 8 steps)


def gen_checkable_file(rng: random.Random) -> SourceFile:
    n_parts = rng.randint(1, 4)
    participants = tuple(RoleId(r) for r in ROLE_POOL[:n_parts])
    declared = ROLE_POOL[: min(n_parts + 1, len(ROLE_POOL))]
    variant = VariantDecl("V", tuple(Ctor(t) for t in ("T1", "T2", "T3")[: rng.randint(2, 3)]))
    st = _GenState(rng, participants, declared, variant)
    body = _gen_block(st, budget=rng.randint(1, 8), depth=0, known=[])
    proto = ProtocolDecl("P", (), participants, body)
    return SourceFile(
        roles=tuple(RoleDecl(r) for r in declared),
        variants=(variant,),
        protocols=(proto,),
        entry="P",
    )


class _GenState:
    def __init__(self, rng: random.Random, participants, declared, variant):
        self.rng = rng
        self.participants = participants
        self.declared = declared
        self.variant = variant
        self.counter = 0

    def fresh(self) -> VarId:
        self.counter += 1
        return VarId(f"m{self.counter}")


def _gen_type(rng: random.Random, variant: VariantDecl):
    roll = rng.random()
    if roll < 0.45:
        return INT
    if roll < 0.6:
        return STR
    if roll < 0.75:
        return NamedType(variant.name)
    return TupleType((INT, rng.choice((INT, STR))))


def _gen_block(st: _GenState, budget: int, depth: int, known: list) -> tuple:
    """known: path-local list of (var, type, set of knower names)."""
    rng = st.rng
    known = [(v, t, set(s)) for v, t, s in known]
    stmts = []
    faulty = rng.random() < 0.35

    def pick_role():
        return rng.choice(st.participants)

    def bad_role():
        outsiders = [r for r in st.declared if RoleId(r) not in st.participants]
        return RoleId(rng.choice(outsiders)) if outsiders else pick_role()

    steps = 0
    while steps < budget:
        steps += 1
        choice = rng.random()
        if choice < 0.35 or not known:
            var = st.fresh()
            type_ = _gen_type(rng, st.variant)
            creator = pick_role()
            if faulty and rng.random() < 0.2:
                creator = bad_role()
            if faulty and rng.random() < 0.1 and known:
                var = rng.choice(known)[0]  # duplicate binding
            stmts.append(NewMsg(var, type_, creator))
            known.append((var, type_, {creator.name}))
        elif choice < 0.55:
            var = st.fresh()
            creator = pick_role()
            candidates = [k for k in known if isinstance(k[1], (BaseType, TupleType))]
            if not (faulty and rng.random() < 0.5):
                candidates = [k for k in candidates if creator.name in k[2]]
            dep = rng.choice(candidates) if candidates else None
            pred = _gen_simple_pred(rng, dep)
            rtype = RefinedType(INT, ("v",), pred)
            stmts.append(NewDepMsg(var, rtype, creator))
            known.append((var, rtype, {creator.name}))
        elif choice < 0.8:
            var, _, knowers = rng.choice(known)
            sender = RoleId(rng.choice(sorted(knowers)))
            receiver = pick_role()
            if faulty:
                roll = rng.random()
                if roll < 0.25:
                    sender = pick_role()
                elif roll < 0.4:
                    receiver = sender
                elif roll < 0.5:
                    var = st.fresh()
            if sender == receiver and not faulty:
                others = [r for r in st.participants if r != sender]
                if not others:
                    continue
                receiver = rng.choice(others)
            stmts.append(Send(var, sender, receiver))
            for k in known:
                if k[0] == var:
                    k[2].add(receiver.name)
        else:
            read = _gen_read(st, known, max(budget - steps, 1), depth, faulty)
            if read is None:
                continue
            stmts.append(read)
            return tuple(stmts)
    if faulty and rng.random() < 0.15:
        stmts.append(End())  # becomes a non-tail terminator
    stmts.append(Rec() if rng.random() < 0.2 else End())
    return tuple(stmts)


def _gen_simple_pred(rng: random.Random, dep):
    binder = BinderRef()
    if dep is None:
        return Cmp("==", binder, IntLit(rng.randrange(10)))
    var, type_, _ = dep
    if isinstance(type_, BaseType) and type_.kind == "Int":
        return Cmp("==", binder, Arith("+", VarRef(var), IntLit(1)))
    if isinstance(type_, BaseType) and type_.kind == "Str":
        if rng.random() < 0.3:
            return Cmp("==", binder, VarRef(var))  # Int vs Str: ill-kinded
        return Cmp("!=", VarRef(var), StrLit("x"))
    if isinstance(type_, TupleType):
        idx = rng.randint(1, len(type_.elems))
        proj = Proj(VarRef(var), idx)
        elem = type_.elems[idx - 1]
        if isinstance(elem, BaseType) and elem.kind == "Int":
            return Cmp("<=", proj, binder)
        return Cmp("==", proj, StrLit("y"))
    return Cmp("==", binder, IntLit(0))


def _gen_read(st: _GenState, known: list, budget: int, depth: int, faulty: bool):
    rng = st.rng
    if depth >= 2 or not known:
        return None
    pool = known
    if not faulty:
        pool = [k for k in known if all(r.name in k[2] for r in st.participants)]
        if not pool:
            return None
    var, type_, _ = rng.choice(pool)
    effective = type_.payload if isinstance(type_, RefinedType) else type_
    arms = []
    if isinstance(effective, NamedType):
        tags = list(st.variant.tags())
        cover_all = not (faulty and rng.random() < 0.4)
        for t in tags if cover_all else tags[:-1]:
            arms.append(Arm(CtorPat(t), _gen_block(st, budget, depth + 1, known)))
        if not cover_all and rng.random() < 0.5:
            arms.append(Arm(WildPat(), _gen_block(st, budget, depth + 1, known)))
    else:
        if isinstance(effective, BaseType) and effective.kind == "Int":
            arms.append(Arm(LitPat(IntV(rng.randrange(5))), _gen_block(st, budget, depth + 1, known)))
        elif isinstance(effective, BaseType) and effective.kind == "Str":
            arms.append(Arm(LitPat(StrV("go")), _gen_block(st, budget, depth + 1, known)))
        if not (faulty and arms and rng.random() < 0.4):
            arms.append(Arm(WildPat(), _gen_block(st, budget, depth + 1, known)))
    if not arms:
        return None
    return ReadCase(var, tuple(arms))


# ---------------------------------------------------------------------------
# Printability-oriented generator (round-trip tests)


def gen_printable_file(rng: random.Random) -> SourceFile:
    roles = tuple(RoleDecl(r) for r in ROLE_POOL[: rng.randint(1, 4)])
    variants = tuple(_gen_variant(rng, i) for i in range(rng.randint(0, 2)))
    names = [f"P{i}" for i in range(rng.randint(1, 3))]
    protocols = tuple(_gen_printable_protocol(rng, name, roles, variants, names) for name in names)
    entry = rng.choice([None, rng.choice(names)])
    return SourceFile(roles, variants, protocols, entry)


def _gen_variant(rng: random.Random, i: int) -> VariantDecl:
    ctors = []
    for j in range(rng.randint(1, 3)):
        payload = None
        roll = rng.random()
        if roll < 0.3:
            payload = rng.choice((INT, BOOL, STR))
        elif roll < 0.45:
            payload = TupleType((INT, STR))
        ctors.append(Ctor(f"C{i}{j}", payload))
    return VariantDecl(f"V{i}", tuple(ctors))


def _gen_printable_type(rng: random.Random, variants, depth: int = 0):
    roll = rng.random()
    if roll < 0.5 or depth >= 2:
        return rng.choice((INT, BOOL, STR))
    if roll < 0.7 and variants:
        return NamedType(rng.choice(variants).name)
    return TupleType(tuple(_gen_printable_type(rng, variants, depth + 1) for _ in range(rng.randint(2, 3))))


def _gen_printable_ref(rng: random.Random, labels: tuple[str, ...], vars_: list[str], depth: int = 0):
    """Printable refinement; BinderRef appears directly only when labels name it."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        atom = rng.random()
        if atom < 0.3:
            return IntLit(rng.randint(-20, 20))
        if atom < 0.45:
            return StrLit("".join(rng.choice(SAFE_CHARS) for _ in range(rng.randint(0, 6))))
        if atom < 0.55:
            return BoolLit(rng.random() < 0.5)
        if atom < 0.8 and vars_:
            base = VarRef(VarId(rng.choice(vars_)))
            inner_roll = rng.random()
            if inner_roll < 0.3:
                return Proj(base, rng.randint(1, 3))
            if inner_roll < 0.45:
                return Proj(UnwrapDep(base), rng.randint(1, 3))
            return base
        if labels:
            if len(labels) == 1:
                return BinderRef()
            return Proj(BinderRef(), rng.randrange(len(labels)) + 1)
        return IntLit(rng.randrange(5))
    op = rng.random()
    lhs = _gen_printable_ref(rng, labels, vars_, depth + 1)
    rhs = _gen_printable_ref(rng, labels, vars_, depth + 1)
    if op < 0.3:
        return Arith(rng.choice("+-*"), lhs, rhs)
    if op < 0.6:
        return Cmp(rng.choice(("==", "!=", "<", "<=")), lhs, rhs)
    if op < 0.8:
        return BoolOp(rng.choice(("and", "or")), lhs, rhs)
    inner = _gen_printable_ref(rng, labels, vars_, depth + 1)
    if op < 0.9:
        return Cmp("==", BinderRef(), inner, "literal")
    return Cmp("==", BinderRef(), Arith("+", inner, IntLit(1)), "next")


def _gen_chain(rng: random.Random, vars_: list[str]) -> Arith:
    """A left-nested '+' chain of 100-250 operator-free terms, which the
    printer writes without parentheses. It stays well within the
    500-operator budget: ``==`` on records recurses per level, and the
    round-trip tests compare ASTs with it at the default recursion limit."""
    atoms = [VarRef(VarId(v)) for v in vars_] + [IntLit(k) for k in range(3)]
    expr = rng.choice(atoms)
    for _ in range(rng.randint(99, 249)):
        expr = Arith("+", expr, rng.choice(atoms))
    return expr


def _gen_refined(rng, variants, vars_) -> RefinedType:
    shape = rng.random()
    if shape < 0.02:
        return RefinedType(INT, ("v",), Cmp("==", BinderRef(), _gen_chain(rng, vars_)))
    if shape < 0.35:
        # unlabeled payload: the binder is only reachable through sugar
        return RefinedType(_gen_printable_type(rng, variants), (), _gen_printable_ref(rng, (), vars_))
    if shape < 0.65:
        return RefinedType(_gen_printable_type(rng, variants), ("v",), _gen_printable_ref(rng, ("v",), vars_))
    n = rng.randint(2, 3)
    payload = TupleType(tuple(_gen_printable_type(rng, variants) for _ in range(n)))
    labels = tuple(f"c{k}" for k in range(n))
    return RefinedType(payload, labels, _gen_printable_ref(rng, labels, vars_))


def _gen_printable_protocol(rng, name, roles, variants, names) -> ProtocolDecl:
    params = ()
    if rng.random() < 0.25:
        sig = tuple(RoleId(r.name) for r in roles[: rng.randint(1, len(roles))])
        params = (ProtoParam("q", sig),)
    participants = tuple(RoleId(r.name) for r in roles)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    def gen_block(depth: int) -> tuple:
        stmts = []
        vars_: list[str] = []
        for _ in range(rng.randint(0, 3)):
            v = fresh()
            role = RoleId(rng.choice(roles).name)
            if rng.random() < 0.6:
                stmts.append(NewMsg(VarId(v), _gen_printable_type(rng, variants), role))
            else:
                stmts.append(NewDepMsg(VarId(v), _gen_refined(rng, variants, vars_), role))
            vars_.append(v)
            if rng.random() < 0.5:
                stmts.append(
                    Send(VarId(rng.choice(vars_)), RoleId(rng.choice(roles).name), RoleId(rng.choice(roles).name))
                )
        term = rng.random()
        if term < 0.3 and vars_ and depth < 2:
            arms = []
            for _ in range(rng.randint(1, 3)):
                pat_roll = rng.random()
                if pat_roll < 0.4 and variants:
                    v = rng.choice(variants)
                    pat = CtorPat(rng.choice(v.ctors).tag)
                elif pat_roll < 0.6:
                    pat = LitPat(rng.choice((IntV(rng.randint(-5, 5)), StrV("s"), BoolV(True))))
                else:
                    pat = WildPat()
                arms.append(Arm(pat, gen_block(depth + 1)))
            stmts.append(ReadCase(VarId(rng.choice(vars_)), tuple(arms)))
        elif term < 0.5:
            stmts.append(Rec())
        elif term < 0.7:
            target = rng.choice(names + (["q"] if params else []))
            args = ()
            if rng.random() < 0.3:
                args = tuple(rng.sample(names, k=min(len(names), rng.randint(1, 2))))
            stmts.append(Call(target, args, then_rec=rng.random() < 0.4))
        else:
            stmts.append(End())
        return tuple(stmts)

    return ProtocolDecl(name, params, participants, gen_block(0))
