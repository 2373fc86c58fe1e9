"""Knowledge-index algebra: unit cases plus the algebraic laws."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessioncheck.model import (
    EMPTY_INDEX,
    INT,
    Arith,
    BinderRef,
    Cmp,
    DuplicateVar,
    IntLit,
    KnowledgeIndex,
    KnowledgeItem,
    NamedType,
    Proj,
    RoleId,
    Span,
    TupleType,
    UnknownVar,
    VarId,
    VarRef,
    add_item,
    add_knower,
    all_know,
    free_vars,
    free_vars_ordered,
    freeze,
    introduce,
    knows,
    learn,
    overlapping,
)
from oracle import overlapping_bruteforce

ALICE, BOB, CHARLIE = RoleId("Alice"), RoleId("Bob"), RoleId("Charlie")
M1, M2 = VarId("m1"), VarId("m2")
PACKET_INT = TupleType((NamedType("Packet"), INT))

roles = st.sampled_from([ALICE, BOB, CHARLIE])
role_lists = st.lists(roles, max_size=5)


class TestIntroduce:
    def test_creates_item_with_creator_only(self):
        idx = introduce(EMPTY_INDEX, M1, PACKET_INT, ALICE)
        assert idx.items == (KnowledgeItem(M1, PACKET_INT, (ALICE,)),)

    def test_duplicate_var_rejected(self):
        idx = introduce(EMPTY_INDEX, M1, PACKET_INT, ALICE)
        with pytest.raises(DuplicateVar):
            introduce(idx, M1, INT, BOB)

    def test_insertion_order_preserved(self):
        idx = introduce(introduce(EMPTY_INDEX, M1, INT, ALICE), M2, INT, BOB)
        assert [item.var for item in idx] == [M1, M2]

    def test_pure(self):
        idx = introduce(EMPTY_INDEX, M1, INT, ALICE)
        introduce(idx, M2, INT, BOB)
        assert len(idx) == 1 and len(EMPTY_INDEX) == 0


class TestLearn:
    def test_adds_receiver(self):
        idx = introduce(EMPTY_INDEX, M1, INT, ALICE)
        assert learn(idx, M1, BOB).lookup(M1).knowers == (ALICE, BOB)

    def test_idempotent(self):
        idx = introduce(EMPTY_INDEX, M1, INT, ALICE)
        assert learn(idx, M1, ALICE) == idx
        assert learn(learn(idx, M1, BOB), M1, BOB) == learn(idx, M1, BOB)

    def test_unknown_var(self):
        with pytest.raises(UnknownVar):
            learn(EMPTY_INDEX, M1, BOB)


class TestKnows:
    def test_creator_knows(self):
        idx = introduce(EMPTY_INDEX, M1, INT, ALICE)
        assert knows(idx, M1, ALICE)

    def test_outsider_does_not(self):
        idx = learn(introduce(EMPTY_INDEX, M1, INT, ALICE), M1, BOB)
        assert not knows(idx, M1, CHARLIE)

    def test_empty_index(self):
        assert not knows(EMPTY_INDEX, M1, ALICE)


class TestAllKnow:
    def test_exact_set(self):
        idx = learn(introduce(EMPTY_INDEX, M1, INT, ALICE), M1, BOB)
        assert all_know(idx, M1, (ALICE, BOB))

    def test_missing_participant(self):
        idx = learn(introduce(EMPTY_INDEX, M1, INT, ALICE), M1, BOB)
        assert not all_know(idx, M1, (ALICE, BOB, CHARLIE))

    def test_singleton(self):
        idx = introduce(EMPTY_INDEX, M1, INT, ALICE)
        assert all_know(idx, M1, (ALICE,))


class TestOverlapping:
    def test_subsequence(self):
        assert overlapping([ALICE, CHARLIE], [ALICE, BOB, CHARLIE])

    def test_order_violated(self):
        assert not overlapping([CHARLIE, ALICE], [ALICE, BOB, CHARLIE])

    def test_empty_sub(self):
        assert overlapping([], [ALICE, BOB, CHARLIE])
        assert overlapping([], [])

    @settings(max_examples=300, derandomize=True)
    @given(role_lists, role_lists)
    def test_agrees_with_bruteforce(self, sub, sup):
        assert overlapping(sub, sup) == overlapping_bruteforce(sub, sup)

    @settings(derandomize=True)
    @given(role_lists)
    def test_reflexive(self, xs):
        assert overlapping(xs, xs)

    @settings(derandomize=True)
    @given(role_lists, role_lists, role_lists)
    def test_transitive(self, a, b, c):
        if overlapping(a, b) and overlapping(b, c):
            assert overlapping(a, c)

    @settings(derandomize=True)
    @given(role_lists, role_lists)
    def test_antisymmetric(self, a, b):
        if overlapping(a, b) and overlapping(b, a):
            assert a == b


class TestFreeVars:
    def test_binder_excluded(self):
        expr = Cmp("==", Arith("+", Proj(VarRef(M1), 2), IntLit(1)), BinderRef())
        assert free_vars(expr) == frozenset({M1})

    def test_literal_has_none(self):
        assert free_vars(IntLit(5)) == frozenset()

    def test_collects_all_in_first_occurrence_order(self):
        expr = Cmp("==", Proj(VarRef(M2), 1), Proj(VarRef(M1), 2))
        assert free_vars(expr) == frozenset({M1, M2})
        assert free_vars_ordered(expr) == (M2, M1)


# ---------------------------------------------------------------------------
# Laws over random op sequences

ops = st.lists(
    st.tuples(st.sampled_from(["introduce", "learn"]), st.sampled_from(["m1", "m2", "m3"]), roles),
    max_size=12,
)


def _apply(script) -> list[KnowledgeIndex]:
    """Run a script, skipping ops whose precondition fails; returns snapshots."""
    idx = EMPTY_INDEX
    out = [idx]
    for op, var, role in script:
        v = VarId(var)
        if op == "introduce" and v not in idx:
            idx = introduce(idx, v, INT, role)
        elif op == "learn" and v in idx:
            idx = learn(idx, v, role)
        out.append(idx)
    return out


@settings(max_examples=300, derandomize=True)
@given(ops)
def test_monotonicity(script):
    snaps = _apply(script)
    for prev, cur in zip(snaps, snaps[1:]):
        assert len(cur) >= len(prev)
        for item in prev:
            after = cur.lookup(item.var)
            assert after is not None
            assert after.knowers[: len(item.knowers)] == item.knowers


@settings(max_examples=300, derandomize=True)
@given(ops, st.sampled_from(["m1", "m2", "m3"]), roles)
def test_learn_knows_adjunction(script, var, role):
    idx = _apply(script)[-1]
    v = VarId(var)
    if v in idx:
        assert knows(learn(idx, v, role), v, role)


@settings(max_examples=300, derandomize=True)
@given(ops, st.sampled_from(["m1", "m2", "m3"]), roles)
def test_send_effect_frame(script, var, role):
    idx = _apply(script)[-1]
    v = VarId(var)
    if v not in idx:
        return
    after = learn(idx, v, role)
    changed = [(a, b) for a, b in zip(idx, after) if a != b]
    assert len(changed) <= 1
    for a, b in changed:
        assert b.var == a.var == v and b.type == a.type
        assert b.knowers == a.knowers + (role,)


@settings(max_examples=300, derandomize=True)
@given(ops)
@example([("introduce", "m1", ALICE), ("introduce", "m1", BOB), ("learn", "m2", BOB),
          ("learn", "m1", BOB), ("learn", "m1", BOB), ("learn", "m1", ALICE)])
def test_in_place_helpers_match_pure_api(script):
    idx = EMPTY_INDEX
    working: dict = {}
    for op, var, role in script:
        v = VarId(var)
        pure, in_place = (introduce, add_item) if op == "introduce" else (learn, add_knower)
        args = (v, INT, role) if op == "introduce" else (v, role)
        try:
            idx = pure(idx, *args)
        except (DuplicateVar, UnknownVar) as err:
            with pytest.raises(type(err)):
                in_place(working, *args)
        else:
            in_place(working, *args)
        assert tuple(working.values()) == idx.items
        assert freeze(working) == idx



sends = st.lists(st.tuples(st.sampled_from([M1, M2, VarId("m3")]), roles), max_size=20)


@settings(max_examples=300, derandomize=True)
@given(sends)
def test_add_knower_then_freeze_equals_learn(sends):
    """``add_knower`` builds its item without ``KnowledgeItem.__post_init__``;
    every snapshot must still equal ``learn``'s, which checks its items."""
    working: dict = {}
    for i, (var, creator) in enumerate(((M1, ALICE), (M2, BOB), (VarId("m3"), CHARLIE))):
        add_item(working, var, PACKET_INT, creator, Span(i + 1, 1))
    idx = KnowledgeIndex(tuple(working.values()))
    for var, role in sends:
        idx = learn(idx, var, role)
        add_knower(working, var, role)
        snapshot = freeze(working)
        assert snapshot == idx and hash(snapshot) == hash(idx)
        assert [it.origin for it in snapshot] == [it.origin for it in idx]
        for it in snapshot:
            assert KnowledgeItem(it.var, it.type, it.knowers, it.origin) == it  # passes the skipped check


def test_item_invariants():
    with pytest.raises(ValueError):
        KnowledgeItem(M1, INT, ())
    with pytest.raises(ValueError):
        KnowledgeItem(M1, INT, (ALICE, ALICE))
    with pytest.raises(ValueError):
        KnowledgeIndex((KnowledgeItem(M1, INT, (ALICE,)), KnowledgeItem(M1, INT, (BOB,))))


def test_identifier_rules():
    with pytest.raises(ValueError):
        RoleId("")
    with pytest.raises(ValueError):
        RoleId("1abc")
    with pytest.raises(ValueError):
        VarId("has space")
    assert RoleId("Alice") == RoleId("Alice")
    assert RoleId("A_1").name == "A_1"
