"""The `--format json` writers, one per report.

Each renders its report byte for byte as ``json.dumps(doc, indent=2) +
"\n"`` prints the report's reference ``doc``: ``RunReport.to_json()``,
``cli._explain_json(result)``, or the diagnostics' JSON records from
``Diagnostic.to_json`` and ``cli._parse_error_json``. It renders straight
from the report's records with static indentation, and writes one event,
step or diagnostic at a time, so only one element's text is held at once.

A renderer's ``indent`` is the newline and indentation of the line its
value starts on; the fields or elements of an object or list go two
spaces deeper. Strings go through the stdlib's C escaper, as in
``json.dumps``.
"""

from __future__ import annotations

import json
import sys

from .checker import CheckResult, StepRecord
from .model import KnowledgeIndex
from .printer import format_type
from .simulator import (
    CaseTaken,
    Called,
    Completed,
    Ended,
    MsgCreated,
    Recursed,
    RefinementChecked,
    RefinementViolated,
    RunReport,
    Sent,
    TraceExhausted,
    TraceMismatch,
)
from .syntax import BoolV, ConV, IntV, StrV, TupleV, Value

__all__ = ["write_report", "write_explain", "write_diagnostics"]

_json_str = json.encoder.encode_basestring_ascii

# Every report puts its lists of events, steps, final indices or
# diagnostics at the same depths:
_TOP = "\n  "  # the report's own fields
_ELEM = _TOP + "  "  # an event, step or final index
_FIELD = _ELEM + "  "  # its fields, among them its index
_ITEM = _FIELD + "  "  # an index item


def _json_obj(indent: str, fields) -> str:
    """An object from (key, rendered value) pairs."""
    inner = indent + "  "
    parts = [_json_str(k) + ": " + v for k, v in fields]
    return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"


def _json_list(texts: list[str], indent: str) -> str:
    """A list of rendered elements."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]" if texts else "[]"


def _shape(indent: str, *keys: str, kind: str | None = None) -> str:
    """A format string of an object with the given keys, a ``%s`` slot for
    each value, after a fixed ``kind`` field if one is given."""
    fixed = [("kind", _json_str(kind))] if kind else []
    return _json_obj(indent, fixed + [(k, "%s") for k in keys])


def _json_value(v: Value, indent: str) -> str:
    """``value_to_json(v)``."""
    inner = indent + "  "
    if isinstance(v, IntV):
        body = '"int": ' + int.__repr__(v.value)
    elif isinstance(v, StrV):
        body = '"str": ' + _json_str(v.value)
    elif isinstance(v, BoolV):
        body = '"bool": ' + ("true" if v.value else "false")
    elif isinstance(v, TupleV):
        body = '"tuple": ' + _json_list([_json_value(x, inner + "  ") for x in v.items], inner)
    elif isinstance(v, ConV):
        arg = "null" if v.arg is None else _json_value(v.arg, inner)
        body = '"con": ' + _json_str(v.tag) + "," + inner + '"arg": ' + arg
    else:
        raise TypeError(f"not a value: {v!r}")
    return "{" + inner + body + indent + "}"


_ITEM_SHAPE = _shape(_ITEM, "var", "type", "knowers")


def _json_index(index: KnowledgeIndex, items: dict[int, str]) -> str:
    """``index_to_json(index)`` as the value of a field at ``_FIELD``.

    ``items`` maps an item's id to its text. ``freeze`` shares every item
    whose knowers did not change, so most items appear in many snapshots,
    and each is rendered once per report. The report keeps every item alive
    while it is written, so no id is reused meanwhile.
    """
    texts = []
    for item in index:
        text = items.get(id(item))
        if text is None:
            knowers = _json_list([_json_str(r.name) for r in item.knowers], _ITEM + "  ")
            text = items[id(item)] = _ITEM_SHAPE % (_json_str(item.var.name), _json_str(format_type(item.type)), knowers)
        texts.append(text)
    return _json_list(texts, _FIELD)


_SENT = _shape(_ELEM, "var", "sender", "receiver", "index_after", kind="sent")
_MSG_CREATED = _shape(_ELEM, "var", "value", "creator", kind="msg_created")
_REFINEMENT_CHECKED = _shape(_ELEM, "var", "predicate", "verdict", "witness", kind="refinement_checked")
_CASE_TAKEN = _shape(_ELEM, "var", "arm", kind="case_taken")
_PROTOCOL_EVENT = {
    Recursed: _shape(_ELEM, "protocol", kind="recursed"),
    Called: _shape(_ELEM, "protocol", kind="called"),
    Ended: _shape(_ELEM, "protocol", kind="ended"),
}


def _json_event(e, items: dict[int, str]) -> str:
    """``simulator._event_json(e)``."""
    if isinstance(e, Sent):
        return _SENT % (_json_str(e.var), _json_str(e.sender), _json_str(e.receiver), _json_index(e.index_after, items))
    if isinstance(e, MsgCreated):
        return _MSG_CREATED % (_json_str(e.var), _json_value(e.value, _FIELD), _json_str(e.creator))
    if isinstance(e, RefinementChecked):
        # As in a dict, a repeated name keeps its first place and its last value.
        witness = _json_obj(_FIELD, [(k, _json_value(v, _FIELD + "  ")) for k, v in dict(e.witness).items()])
        verdict = "true" if e.verdict else "false"
        return _REFINEMENT_CHECKED % (_json_str(e.var), _json_str(e.predicate), verdict, witness)
    if isinstance(e, CaseTaken):
        return _CASE_TAKEN % (_json_str(e.var), _json_str(e.arm))
    if type(e) in _PROTOCOL_EVENT:
        return _PROTOCOL_EVENT[type(e)] % _json_str(e.protocol)
    raise TypeError(f"not an event: {e!r}")


def _json_status(s) -> str:
    """``simulator._status_json(s)`` as the value of a field at ``_TOP``."""
    if isinstance(s, Completed):
        fields = [("kind", '"completed"')]
    elif isinstance(s, RefinementViolated):
        fields = [("kind", '"refinement_violated"'), ("var", _json_str(s.var))]
        if s.span is not None:
            fields += [("line", int.__repr__(s.span.line)), ("col", int.__repr__(s.span.col))]
    elif isinstance(s, TraceExhausted):
        var = "null" if s.var is None else _json_str(s.var)
        fields = [("kind", '"trace_exhausted"'), ("var", var), ("note", _json_str(s.note))]
    elif isinstance(s, TraceMismatch):
        fields = [
            ("kind", '"trace_mismatch"'),
            ("var", _json_str(s.var)),
            ("expected", _json_str(s.expected)),
            ("got", "null" if s.got is None else _json_value(s.got, _ELEM)),
            ("note", _json_str(s.note)),
        ]
    else:
        raise TypeError(f"not a status: {s!r}")
    return _json_obj(_TOP, fields)


def _json_record(record: dict, indent: str) -> str:
    """A diagnostic's JSON record (``Diagnostic.to_json`` or
    ``_parse_error_json``): str and int fields, and ``related``, an object
    of ints."""
    fields = []
    for k, v in record.items():
        if isinstance(v, dict):
            fields.append((k, _json_record(v, indent + "  ")))
        else:
            fields.append((k, _json_str(v) if isinstance(v, str) else int.__repr__(v)))
    return _json_obj(indent, fields)


def _write_json_list(texts, indent: str) -> None:
    """Write a list whose elements' texts come from the iterable ``texts``,
    one write per element, so only one element's text is held at a time."""
    write = sys.stdout.write
    inner = indent + "  "
    sep = "[" + inner
    for text in texts:
        write(sep + text)
        sep = "," + inner
    write("[]" if sep[0] == "[" else indent + "]")


def write_report(report: RunReport) -> None:
    """``simulate --format json``: ``report.to_json()``."""
    items: dict[int, str] = {}
    sys.stdout.write('{\n  "status": ' + _json_status(report.status) + ',\n  "events": ')
    _write_json_list((_json_event(e, items) for e in report.events), _TOP)
    sys.stdout.write("\n}\n")


_STEP = _shape(_ELEM, "protocol", "path", "line", "col", "statement", "index_after")
_FINAL = _shape(_ELEM, "path", "index")


def _json_step(rec: StepRecord, items: dict[int, str]) -> str:
    """One element of ``cli._explain_json(result)["steps"]``."""
    line, col = int.__repr__(rec.span.line), int.__repr__(rec.span.col)
    index = _json_index(rec.index_after, items)
    return _STEP % (_json_str(rec.protocol), _json_str(rec.path), line, col, _json_str(rec.text), index)


def write_explain(result: CheckResult) -> None:
    """``explain --format json``: ``cli._explain_json(result)``."""
    items: dict[int, str] = {}  # shared: steps and final indices put their items at one depth
    sys.stdout.write('{\n  "steps": ')
    _write_json_list((_json_step(rec, items) for rec in result.step_log), _TOP)
    sys.stdout.write(',\n  "final_indices": ')
    finals = (_FINAL % (_json_str(label), _json_index(index, items)) for label, index in result.final_indices)
    _write_json_list(finals, _TOP)
    sys.stdout.write("\n}\n")


def write_diagnostics(diags: list[dict]) -> None:
    """``check --format json``: the list of diagnostics' JSON records."""
    _write_json_list((_json_record(d, "\n  ") for d in diags), "\n")
    sys.stdout.write("\n")
