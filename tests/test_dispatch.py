"""The refinement walkers against their ``isinstance`` ladders (``ladders``).

Each walker picks a node's branch once by its exact type, which names
the branch because records are final (``sessioncheck.records``). On
seeded refinements from ``gen``, each must return what its ladder
returns, or raise the same exception with the same message: an
``EvalError`` when a value does not fit, a ``KindError`` when a type
does not.
"""

from __future__ import annotations

import random

import gen
import ladders
from sessioncheck.checker import KindError, kind_of_ref
from sessioncheck.model import BaseType, NamedType, RefinedType, TupleType, free_vars_ordered
from sessioncheck.simulator import EvalError, eval_ref
from sessioncheck.syntax import BoolV, ConV, IntV, StrV, TupleV, format_ref

VARS = ["a", "b", "c"]
SEEDS, PER_SEED = 4, 500


def _value(rng: random.Random, t, variants):
    """A value of type ``t``, or, one time in ten at each level, of another."""
    if rng.random() < 0.1:
        t = gen._gen_printable_type(rng, variants)
    if isinstance(t, RefinedType):
        return _value(rng, t.payload, variants)
    if isinstance(t, TupleType):
        return TupleV(tuple(_value(rng, e, variants) for e in t.elems))
    if isinstance(t, NamedType):
        ctor = rng.choice(next(v for v in variants if v.name == t.name).ctors)
        return ConV(ctor.tag, None if ctor.payload is None else _value(rng, ctor.payload, variants))
    assert isinstance(t, BaseType)
    return {"Int": lambda: IntV(rng.randint(-3, 3)), "Bool": lambda: BoolV(rng.random() < 0.5),
            "Str": lambda: StrV(rng.choice(("", "s", "t")))}[t.kind]()


def _outcome(walk, *args):
    try:
        return walk(*args)
    except (EvalError, KindError) as err:
        return type(err), str(err)


def _refinements(seed: int):
    """``PER_SEED`` refinements, each with the payload type and labels of its
    binder, the types of its variables and their values, some left out."""
    rng = random.Random(f"dispatch:{seed}")
    variants = tuple(gen._gen_variant(rng, i) for i in range(2))
    for _ in range(PER_SEED):
        types = {v: gen._gen_refined(rng, variants, []) if rng.random() < 0.3 else gen._gen_printable_type(rng, variants)
                 for v in VARS if rng.random() < 0.95}
        values = {v: _value(rng, t, variants) for v, t in types.items() if rng.random() < 0.95}
        if rng.random() < 0.5:
            refined = gen._gen_refined(rng, variants, VARS)
        else:
            labels = rng.choice([(), ("v",), ("c0", "c1")])
            payload = TupleType((gen._gen_printable_type(rng, variants),) * 2) if len(labels) == 2 else gen._gen_printable_type(rng, variants)
            refined = RefinedType(payload, labels, gen._gen_printable_ref(rng, labels, VARS))
        binder = None if rng.random() < 0.05 else refined.payload
        yield refined, types, values, binder, None if binder is None else _value(rng, binder, variants)


def test_dispatched_walkers_match_their_ladders():
    seen = set()  # the outcomes met: the kinds and values found, and the errors raised
    for seed in range(SEEDS):
        for refined, types, values, binder, binder_value in _refinements(seed):
            pred, labels = refined.predicate, refined.labels
            assert free_vars_ordered(pred) == ladders.free_vars_ordered(pred), seed
            assert format_ref(pred, labels) == ladders.format_ref(pred, labels), seed
            for walk, ladder, args in ((kind_of_ref, ladders.kind_of_ref, (types, binder)),
                                       (eval_ref, ladders.eval_ref, (values, binder_value))):
                out = _outcome(walk, pred, *args)
                assert out == _outcome(ladder, pred, *args), seed
                seen.add(out[0] if isinstance(out, tuple) else out)
    assert {KindError, EvalError, BoolV(True), BoolV(False)} <= seen
