"""The contract every AST, model and report record keeps.

Records are found by walking the package's modules, so a new record class
fails ``test_every_record_has_a_sample`` until it is given a sample here and
with it every check below.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import sessioncheck
from conftest import CORPUS, fresh_python
from sessioncheck import check_file, parse, parse_trace, run_trace
from sessioncheck.diagnostics import Diagnostic
from sessioncheck.model import (
    INT, BaseType, KnowledgeIndex, KnowledgeItem, RoleId, Span, TupleType, VarId, VariantDecl, VarRef, add_item, add_knower,
)
from sessioncheck.simulator import Completed, ProtocolEvent, RunReport, Sent
from sessioncheck.syntax import SourceFile

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import workloads  # noqa: E402


def _records() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(sessioncheck.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sessioncheck.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "__eq__" in vars(obj):
                found[name] = obj
    return found


RECORDS = _records()


def _samples(m: dict[str, type]) -> dict[str, tuple]:
    """Valid positional arguments for each record, every optional field set."""
    s1, s2 = m["Span"](1, 2, [0, 2, 6]), m["Span"](4, 5)
    x, a, b = m["VarId"]("x"), m["RoleId"]("A"), m["RoleId"]("B")
    one, two = m["IntLit"](1), m["IntLit"](2)
    pred = m["Cmp"]("==", m["BinderRef"](), one)
    refined = m["RefinedType"](INT, ("v",), pred)
    item = m["KnowledgeItem"](x, INT, (a,))
    index = m["KnowledgeIndex"]((item,))
    end = m["End"]()
    return {
        "Span": (1, 2, [0, 2, 6]),
        "RoleId": ("A",),
        "VarId": ("x",),
        "BaseType": ("Int", s1),
        "TupleType": ((INT, INT), s1),
        "NamedType": ("T", s1),
        "RefinedType": (INT, ("v",), pred, s1),
        "Ctor": ("C", INT, s1),
        "VariantDecl": ("T", (m["Ctor"]("C"),), s1),
        "IntLit": (1, s1),
        "BoolLit": (True, s1),
        "StrLit": ("s", s1),
        "VarRef": (x, s1),
        "BinderRef": (s1,),
        "Proj": (m["BinderRef"](), 1, s1),
        "UnwrapDep": (m["VarRef"](x), s1),
        "Arith": ("+", one, two, s1),
        "Cmp": ("<", one, two, "next", s1),
        "BoolOp": ("and", pred, pred, s1),
        "KnowledgeItem": (x, INT, (a, b), s1),
        "KnowledgeIndex": ((item,),),
        "IntV": (1,),
        "BoolV": (True,),
        "StrV": ("s",),
        "TupleV": ((m["IntV"](1), m["IntV"](2)),),
        "ConV": ("C", m["IntV"](1)),
        "CtorPat": ("C", s1),
        "LitPat": (m["IntV"](1), s1),
        "WildPat": (s1,),
        "NewMsg": (x, INT, a, s1),
        "NewDepMsg": (x, refined, a, s1),
        "Send": (x, a, b, s1),
        "Arm": (m["WildPat"](), (end,), s1),
        "ReadCase": (x, (m["Arm"](m["WildPat"](), (end,)),), s1),
        "Rec": (s1,),
        "Call": ("P", ("Q",), True, s1),
        "End": (s1,),
        "RoleDecl": ("A", s1),
        "ProtoParam": ("Q", (a, b), s1),
        "ProtocolDecl": ("P", (), (a, b), (end,), s1),
        "SourceFile": ((m["RoleDecl"]("A"),), (), (), "P"),
        "TraceBinding": (x, m["IntV"](1)),
        "Trace": ((m["TraceBinding"](x, m["IntV"](1)),),),
        "Diagnostic": ("E001", "error", s1, "unresolved", s2),
        "StepRecord": ("P", "P", s1, "end", index),
        "CheckResult": ((), (), ()),
        "MsgCreated": ("x", m["IntV"](1), "A"),
        "RefinementChecked": ("x", "x == 1", True, (("x", m["IntV"](1)),)),
        "Sent": ("x", "A", "B", index, s1, (a, b)),
        "CaseTaken": ("x", "C"),
        "ProtocolEvent": ("called", "P"),
        "Completed": (),
        "RefinementViolated": ("x", s1),
        "TraceExhausted": ("x", "note"),
        "TraceMismatch": ("x", "Int", m["IntV"](1), "note"),
        "RunReport": ((), m["Completed"]()),
    }


SAMPLES = _samples(RECORDS)

# The steps rec, call and end were the records Recursed, Called and Ended;
# each is now a ProtocolEvent kind and keeps a contract case of its own.
CASES = {name: (RECORDS[name], args) for name, args in SAMPLES.items()}
CASES |= {old: (ProtocolEvent, (kind, "P")) for old, kind in
          (("Recursed", "recursed"), ("Called", "called"), ("Ended", "ended"))}


def _fields(cls: type) -> list[inspect.Parameter]:
    return list(inspect.signature(cls).parameters.values())


# The name tables a record builds in ``__post_init__``: each table field,
# the field it indexes and the attribute it is keyed by.
TABLES = {
    SourceFile: {"_variant_table": ("variants", "name"), "_protocol_table": ("protocols", "name")},
    VariantDecl: {"_ctor_table": ("ctors", "tag")},
}


def _quiet(cls: type) -> set[str]:
    """Fields left out of ==, hash and repr: every optional span, Sent's
    knowers, a span's line table and the name tables."""
    quiet = {p.name for p in _fields(cls) if p.name in ("span", "origin") and p.default is None}
    return quiet | {Sent: {"knowers"}, Span: {"line_starts"}}.get(cls, set()) | set(TABLES.get(cls, ()))


def _first_match(record, table: str) -> dict:
    """What a scan over the indexed tuple finds first for each of its keys."""
    field, key = TABLES[type(record)][table]
    found: dict = {}
    for item in getattr(record, field):
        found.setdefault(getattr(item, key), item)
    return found


def _clone(record, into: type | None = None, **changes):
    """A copy of ``record``, as an ``into`` and with ``changes``, built without checks."""
    copy = object.__new__(into or type(record))
    for p in _fields(type(record)):
        object.__setattr__(copy, p.name, changes.get(p.name, getattr(record, p.name)))
    return copy


def test_every_record_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)
    assert {name for name, cls in RECORDS.items() if cls.__hash__ is None} == set()


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_contract(name):
    cls, args = CASES[name]
    names = [p.name for p in _fields(cls)]
    record = cls(*args)
    assert record == cls(**dict(zip(names, args)))
    assert [getattr(record, n) for n in names[: len(args)]] == list(args)
    assert hash(record) == hash(cls(*args))
    for n in names:
        if n in _quiet(cls):
            changed = _clone(record, **{n: [0, 99] if n == "line_starts" else Span(99, 99)})
            assert changed == record and repr(changed) == repr(record), n
            assert hash(changed) == hash(record), n
        else:
            assert _clone(record, **{n: object()}) != record, n
    assert record != tuple(args) and tuple(args) != record
    with pytest.raises(TypeError):
        type("Twin", (cls,), {})
    for other in RECORDS.values():
        if other is not cls and [p.name for p in _fields(other)] == names:
            assert record != _clone(record, other), other.__name__
    for n in names:
        with pytest.raises(AttributeError):
            setattr(record, n, getattr(record, n))
        with pytest.raises(AttributeError):
            delattr(record, n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_methods_keep_their_contract(name, monkeypatch):
    """Each class's methods, made from templates shared by shape, still
    hash as the tuple of shown fields, take keywords and defaults, and
    end in the class's own ``__post_init__``."""
    cls, args = CASES[name]
    fields = _fields(cls)
    record = cls(*args)
    assert hash(record) == hash(tuple(getattr(record, p.name) for p in fields if p.name not in _quiet(cls)))
    required = {p.name: a for p, a in zip(fields, args) if p.default is p.empty}
    bare = cls(**required)
    assert bare == cls(*(required.get(p.name, p.default) for p in fields))
    assert all(getattr(bare, p.name) is p.default for p in fields if p.name not in required and p.name not in TABLES.get(cls, ()))
    for table in TABLES.get(cls, ()):  # filled from the other fields, whatever it was given
        assert getattr(bare, table) == _first_match(bare, table)
        assert getattr(cls(*args, **{table: {"stale": None}}), table) == _first_match(record, table), table
    if "__post_init__" in vars(cls):
        seen = []
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self))
        assert cls(**dict(zip((p.name for p in fields), args))) is seen[0]


def test_importing_every_module_makes_one_exec_per_template_shape():
    out = fresh_python(
        "import builtins, sys\n"
        "made, real = [], builtins.exec\n"
        "def counting(*args):\n"
        "    made.append(sys._getframe(1).f_globals['__name__'])\n"
        "    return real(*args)\n"
        "builtins.exec = counting\n"
        "import sessioncheck.cli, sessioncheck.jsonout\n"
        "print(made.count('sessioncheck.records'))"
    )
    inits = {(len(_fields(cls)), "__post_init__" in vars(cls)) for cls in RECORDS.values()}
    compares = {len(_fields(cls)) - len(_quiet(cls)) for cls in RECORDS.values()}
    assert int(out) <= len(inits) + len(compares) < len(RECORDS) // 2


def test_records_keep_their_fields_in_slots():
    for name, cls in RECORDS.items():
        assert cls.__slots__ == tuple(p.name for p in _fields(cls)), name
        assert not hasattr(cls(*SAMPLES[name]), "__dict__"), name
    # `add_knower` builds the grown item without its constructor.
    x, a, b = VarId("x"), RoleId("A"), RoleId("B")
    working: dict = {}
    add_item(working, x, INT, a, Span(0, 1))
    add_knower(working, x, b)
    built = KnowledgeItem(x, INT, (a, b))
    assert working["x"] == built and hash(working["x"]) == hash(built)
    assert working["x"].origin == Span(0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: VarId("9x"),
        lambda: BaseType("Float"),
        lambda: TupleType((INT,)),
        lambda: KnowledgeIndex((KnowledgeItem(VarId("x"), INT, (RoleId("A"),)),) * 2),
        lambda: Diagnostic("E999", "error", Span(0, 1), "no such code"),
        lambda: ProtocolEvent("entered", "P"),
    ],
)
def test_construction_still_checks(build):
    with pytest.raises(ValueError):
        build()


def test_repr_leaves_out_spans_and_knowers():
    assert repr(Span(1, 2, [0, 2, 6])) == "Span(offset=1, length=2)"
    assert repr(VarRef(VarId("x"), Span(0, 1))) == "VarRef(var=VarId(name='x'))"
    sent = Sent("m", "A", "B", KnowledgeIndex(), Span(0, 1), (RoleId("A"),))
    assert repr(sent) == "Sent(var='m', sender='A', receiver='B', index_after=KnowledgeIndex(items=()))"


def test_records_holding_lists_compare_by_value():
    events = [ProtocolEvent("recursed", "P"), ProtocolEvent("called", "P"), ProtocolEvent("ended", "P")]
    assert RunReport(events, Completed()) == RunReport(list(events), Completed())
    assert RunReport(events, Completed()) != RunReport(events[:1], Completed())


def _every_field(obj):
    """``obj`` with each record unfolded into its class name and every field,
    quiet ones included, so that spans and knowers are compared too."""
    if type(obj) in RECORDS.values():
        return (type(obj).__name__, *(_every_field(getattr(obj, n)) for n in type(obj).__slots__))
    if isinstance(obj, (list, tuple)):
        return [_every_field(item) for item in obj]
    return obj


@pytest.mark.parametrize(
    "copy_", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["copy", "deepcopy", "pickle"]
)
def test_records_survive_copy_deepcopy_and_pickle(corpus, copy_):
    file = parse((corpus / "tcp.ssn").read_text())
    trace = parse_trace((corpus / "tcp_good.trace").read_text())
    report = run_trace(file, trace)
    assert report.completed and file.protocols[0].span is not None
    working: dict = {}
    add_item(working, VarId("x"), INT, RoleId("A"), Span(0, 1))  # an item built without its constructor
    for record in (Span(1, 2, [0, 2, 6]), file, trace, check_file(file, record_steps=True), report, working["x"]):
        copied = copy_(record)
        assert type(copied) is type(record) and copied == record
        assert _every_field(copied) == _every_field(record)


DUPLICATES = """roles A, B

type T = X | Y | X(Int)
type U = W
type T = Z

protocol P [A, B] { end }
protocol Q [A, B] { end }
protocol P [A, B] {
  msg m : Int by A;
  send m A -> B;
  end
}

entry P
"""


@pytest.mark.parametrize(
    "copy_",
    [lambda r: r, copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["parsed", "copy", "deepcopy", "pickle"],
)
def test_name_lookups_find_the_first_declaration_through_copies(copy_):
    """Each lookup answers as a first-match scan over the record's own tuple,
    for every declared name and a missing one, also after a copy, which
    builds its tables afresh."""
    file = parse(DUPLICATES)
    assert [d.code for d in check_file(file).diagnostics] == ["E001"] * 3
    copied = copy_(file)
    for name in ("T", "U", "P", "Q", "missing"):
        assert copied.variant(name) is next((v for v in copied.variants if v.name == name), None), name
        assert copied.protocol(name) is next((p for p in copied.protocols if p.name == name), None), name
    for variant in copied.variants:
        for tag in ("X", "Y", "Z", "W", "missing"):
            assert variant.ctor(tag) is next((c for c in variant.ctors if c.tag == tag), None), tag
    assert copied.variant("T").ctor("X").payload is None and len(copied.protocol("P").body) == 1
    for record, original in zip((copied, *copied.variants), (file, *file.variants)):
        for table in TABLES[type(record)]:
            assert getattr(record, table) == _first_match(record, table)
            if record is not original:  # a shallow copy shares the variants themselves
                assert getattr(record, table) is not getattr(original, table), table


def _spans(obj):
    """Every span under ``obj``, field by field."""
    if isinstance(obj, Span):
        yield obj
    elif type(obj) in RECORDS.values():
        for n in type(obj).__slots__:
            yield from _spans(getattr(obj, n))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _spans(item)


def test_a_parsed_file_keeps_one_line_table_through_deepcopy_and_pickle():
    text = workloads.deep_path(1, CORPUS).files["deep.ssn"]
    file = parse(text)
    table = file.protocols[0].span.line_starts
    blob = pickle.dumps(file)
    for copied in (copy.deepcopy(file), pickle.loads(blob)):
        found = list(_spans(copied))
        assert len(found) == len(list(_spans(file))) > 6000
        assert all(span.line_starts is found[0].line_starts for span in found)
        assert found[0].line_starts == table and found[0].line_starts is not table
    # A table per span would take at least one byte per entry per span.
    assert len(blob) < len(found) * len(table) // 10
