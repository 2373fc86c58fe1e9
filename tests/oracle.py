"""Brute-force re-derivations used as independent oracles.

``oracle_check`` re-derives every checker obligation for call-free files
by scanning the statement prefix of each construct from scratch, with no
threaded knowledge index, and rebuilds the final indices per path the
same way. ``overlapping_bruteforce`` decides the subsequence relation by
exhaustive enumeration of strictly increasing index maps.
"""

from __future__ import annotations

from itertools import combinations

from sessioncheck.checker import KindError, kind_of_ref
from sessioncheck.model import BaseType, NamedType, RefinedType, free_vars_ordered
from sessioncheck.printer import format_value
from sessioncheck.syntax import (
    Call,
    CtorPat,
    End,
    LitPat,
    NewDepMsg,
    NewMsg,
    ReadCase,
    Rec,
    Send,
    SourceFile,
    WildPat,
    IntV,
    BoolV,
    StrV,
)


def overlapping_bruteforce(sub, super_) -> bool:
    sub = list(sub)
    super_ = list(super_)
    if len(sub) > len(super_):
        return False
    return any(
        all(sub[k] == super_[i] for k, i in enumerate(idxs))
        for idxs in combinations(range(len(super_)), len(sub))
    )


# ---------------------------------------------------------------------------
# Whole-file oracle (call-free)


def _creates(prefix):
    for stmt in prefix:
        if isinstance(stmt, NewMsg):
            yield stmt.var, stmt.type, stmt.creator
        elif isinstance(stmt, NewDepMsg):
            yield stmt.var, stmt.rtype, stmt.creator


def _created(prefix, var) -> bool:
    return any(v == var for v, _, _ in _creates(prefix))


def _created_type(prefix, var):
    for v, t, _ in _creates(prefix):
        if v == var:
            return t
    return None


def _knows(prefix, var, role) -> bool:
    for stmt in prefix:
        if isinstance(stmt, (NewMsg, NewDepMsg)) and stmt.var == var and stmt.creator == role:
            return True
        if isinstance(stmt, Send) and stmt.var == var and stmt.receiver == role:
            return True
    return False


def _arm_label(pattern) -> str:
    if isinstance(pattern, CtorPat):
        return pattern.tag
    if isinstance(pattern, WildPat):
        return "_"
    return format_value(pattern.value)


def _value_kind(v):
    if isinstance(v, IntV):
        return "Int"
    if isinstance(v, BoolV):
        return "Bool"
    if isinstance(v, StrV):
        return "Str"
    return "value"


def _derive_index(path_stmts):
    items: list[tuple] = []
    for stmt in path_stmts:
        if isinstance(stmt, (NewMsg, NewDepMsg)):
            type_ = stmt.type if isinstance(stmt, NewMsg) else stmt.rtype
            for entry in items:
                if entry[0] == stmt.var:
                    if stmt.creator.name not in entry[2]:
                        entry[2].append(stmt.creator.name)
                    break
            else:
                items.append([stmt.var, type_, [stmt.creator.name]])
        elif isinstance(stmt, Send):
            for entry in items:
                if entry[0] == stmt.var and stmt.receiver.name not in entry[2]:
                    entry[2].append(stmt.receiver.name)
    return [(var.name, type_, tuple(knowers)) for var, type_, knowers in items]


def comparable_index(index) -> list[tuple]:
    """Checker KnowledgeIndex -> the oracle's comparison shape."""
    return [(item.var.name, item.type, tuple(r.name for r in item.knowers)) for item in index]


def oracle_check(file: SourceFile):
    """Returns (accepted, final_indices) by prefix-scan re-derivation."""
    ok = [True]
    finals: list[tuple[str, list]] = []
    variants = {v.name: v for v in file.variants}

    def fail():
        ok[0] = False

    def effective(type_):
        return type_.payload if isinstance(type_, RefinedType) else type_

    def coverage(stmt: ReadCase, scrutinee):
        if scrutinee is None:
            return
        eff = effective(scrutinee)
        has_wild = any(isinstance(a.pattern, WildPat) for a in stmt.arms)
        if isinstance(eff, NamedType):
            decl = variants.get(eff.name)
            if decl is None:
                return
            covered = set()
            for arm in stmt.arms:
                if isinstance(arm.pattern, CtorPat):
                    if decl.ctor(arm.pattern.tag) is None:
                        fail()
                    else:
                        covered.add(arm.pattern.tag)
                elif isinstance(arm.pattern, LitPat):
                    fail()
            if not has_wild and set(decl.tags()) - covered:
                fail()
            return
        expected = eff.kind if isinstance(eff, BaseType) else None
        for arm in stmt.arms:
            if isinstance(arm.pattern, CtorPat):
                fail()
            elif isinstance(arm.pattern, LitPat):
                if expected is None or _value_kind(arm.pattern.value) != expected:
                    fail()
        if not has_wild:
            fail()

    def walk(proto, block, prefix, path):
        for i, stmt in enumerate(block):
            last = i == len(block) - 1
            if isinstance(stmt, (Rec, Call, End, ReadCase)) and not last:
                fail()
                if isinstance(stmt, ReadCase):
                    do_read(proto, stmt, prefix, path)
                    return
                continue  # mirror recovery: stray terminator dropped
            if isinstance(stmt, NewMsg):
                if stmt.creator not in proto.participants:
                    fail()
                if _created(prefix, stmt.var):
                    fail()
                prefix = prefix + [stmt]
            elif isinstance(stmt, NewDepMsg):
                if stmt.creator not in proto.participants:
                    fail()
                fvs = free_vars_ordered(stmt.rtype.predicate)
                all_bound = True
                for v in fvs:
                    if not _created(prefix, v):
                        fail()
                        all_bound = False
                    elif not _knows(prefix, v, stmt.creator):
                        fail()
                if all_bound:
                    env = {v.name: t for v, t, _ in _creates(prefix)}
                    try:
                        result = kind_of_ref(stmt.rtype.predicate, env, stmt.rtype.payload)
                        if not (isinstance(result, BaseType) and result.kind == "Bool"):
                            fail()
                    except KindError:
                        fail()
                if _created(prefix, stmt.var):
                    fail()
                prefix = prefix + [stmt]
            elif isinstance(stmt, Send):
                if stmt.sender not in proto.participants or stmt.receiver not in proto.participants:
                    fail()
                if stmt.sender == stmt.receiver:
                    fail()
                if not _created(prefix, stmt.var):
                    fail()
                elif not _knows(prefix, stmt.var, stmt.sender):
                    fail()
                prefix = prefix + [stmt]
            elif isinstance(stmt, ReadCase):
                do_read(proto, stmt, prefix, path)
                return
            elif isinstance(stmt, Rec):
                finals.append((f"{path} (rec)", _derive_index(prefix)))
                return
            elif isinstance(stmt, End):
                finals.append((path, _derive_index(prefix)))
                return
            elif isinstance(stmt, Call):
                raise ValueError("oracle handles call-free protocols only")
        finals.append((path, _derive_index(prefix)))

    def do_read(proto, stmt: ReadCase, prefix, path):
        scrutinee = _created_type(prefix, stmt.var)
        if scrutinee is None:
            fail()
        else:
            for r in proto.participants:
                if not _knows(prefix, stmt.var, r):
                    fail()
                    break
        coverage(stmt, scrutinee)
        for arm in stmt.arms:
            walk(proto, arm.body, prefix, f"{path}/{_arm_label(arm.pattern)}")

    for proto in file.protocols:
        if proto.is_ground:
            walk(proto, proto.body, [], proto.name)

    return ok[0], finals
