"""The `--format json` writers, one per report.

Each renders its report byte for byte as ``json.dumps(doc, indent=2) +
"\n"`` prints the report's reference ``doc``: ``RunReport.to_json()``,
``cli._explain_json(result)``, or the diagnostics' JSON records from
``Diagnostic.to_json``, parse errors and checker findings alike. It
renders straight from the report's records with static indentation, and
writes one event, step or diagnostic at a time, so only one element's
text is held at once. A run's status is the one part written from its
reference builder: the plain data of ``simulator.status_to_json`` goes
through the same generic writer as a diagnostic's record.

The three writers share one list writer. An element's text starts with
the comma, newline and indentation that come before it in the list, and
the list writer writes each text as it is, one write per element; only
the first is copied, to open the list.

A loop's run logs one shared event object wherever a round repeats what
an earlier round logged: a ``Sent``, ``CaseTaken`` or ``ProtocolEvent``,
and a ``MsgCreated`` or ``RefinementChecked`` of the same value objects
(see ``simulator.RunReport``). ``write_report`` keys every event by its id,
as ``_json_index`` keys items, and looks its text up before it renders: an
event is rendered at most twice per report, whatever the number of rounds,
as its text is kept from its second sight on, so the text of an event
logged once is never held. From its third sight on, a repeated event is
written as that same string object: no text is built for it, and a
stream that keeps what it is given, such as an ``io.StringIO`` before
``getvalue``, keeps one more reference, not one more copy.

A renderer's ``indent`` is the newline and indentation of the line its
value starts on; the fields or elements of an object or list go two
spaces deeper. Strings go through the stdlib's C escaper, as in
``json.dumps``.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from .syntax import BoolV, ConV, IntV, StrV, TupleV, Value, format_type

if TYPE_CHECKING:
    from .checker import CheckResult, StepRecord
    from .model import KnowledgeIndex
    from .simulator import RunReport

__all__ = ["write_report", "write_explain", "write_diagnostics"]

_json_str = json.encoder.encode_basestring_ascii

# Every report puts its lists of events, steps, final indices or
# diagnostics at the same depths:
_TOP = "\n  "  # the report's own fields
_ELEM = _TOP + "  "  # an event, step or final index
_FIELD = _ELEM + "  "  # its fields, among them its index
_ITEM = _FIELD + "  "  # an index item
# An element's text starts with the separator before it (see _write_json_list):
_TOP_SEP = "," + _TOP  # a diagnostic
_ELEM_SEP = "," + _ELEM  # an event, step or final index


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
    kind = type(v)
    if kind is IntV:
        body = '"int": ' + int.__repr__(v.value)
    elif kind is StrV:
        body = '"str": ' + _json_str(v.value)
    elif kind is BoolV:
        body = '"bool": ' + ("true" if v.value else "false")
    elif kind is TupleV:
        body = '"tuple": ' + _json_list([_json_value(x, inner + "  ") for x in v.items], inner)
    elif kind is ConV:
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


_SENT = _ELEM_SEP + _shape(_ELEM, "var", "sender", "receiver", "index_after", kind="sent")
_MSG_CREATED = _ELEM_SEP + _shape(_ELEM, "var", "value", "creator", kind="msg_created")
_REFINEMENT_CHECKED = _ELEM_SEP + _shape(_ELEM, "var", "predicate", "verdict", "witness", kind="refinement_checked")
_CASE_TAKEN = _ELEM_SEP + _shape(_ELEM, "var", "arm", kind="case_taken")
_PROTOCOL_EVENT = _ELEM_SEP + _shape(_ELEM, "kind", "protocol")


def _json_record(record, indent: str) -> str:
    """``json.dumps(record, indent=2)`` of plain data, on a line that starts
    with ``indent``: a diagnostic's JSON record (``Diagnostic.to_json``)
    or a run's status (``status_to_json``)."""
    if isinstance(record, str):
        return _json_str(record)
    if isinstance(record, bool):  # before int: int.__repr__(True) is '1'
        return "true" if record else "false"
    if isinstance(record, int):
        return int.__repr__(record)
    if isinstance(record, dict):
        return _json_obj(indent, [(k, _json_record(v, indent + "  ")) for k, v in record.items()])
    if isinstance(record, list):
        return _json_list([_json_record(v, indent + "  ") for v in record], indent)
    if record is None:
        return "null"
    raise TypeError(f"not JSON data: {record!r}")


def _write_json_list(texts, sep: str) -> None:
    """Write a list whose elements' texts come from the iterable ``texts``,
    each starting with ``sep``, a comma and the newline and indentation of
    an element: one write per element, so only one element's text is held
    at a time, and each text written as the object given but the first,
    whose comma becomes ``[``. The list closes two spaces left of ``sep``."""
    write = sys.stdout.write
    texts = iter(texts)
    first = next(texts, None)
    if first is None:
        write("[]")
        return
    write("[" + first[1:])
    for text in texts:
        write(text)
    write(sep[1:-2] + "]")


def write_report(report: RunReport) -> None:
    """``simulate --format json``: ``report.to_json()``.

    Only this writer needs the simulator's records, so ``check`` and
    ``explain`` load no simulator; it imports them when it runs."""
    from .simulator import CaseTaken, MsgCreated, ProtocolEvent, RefinementChecked, Sent, status_to_json

    def json_event(e) -> str:
        """``simulator._event_json(e)`` after its separator, for an event
        whose text ``texts`` does not hold; ``texts`` maps the id of an
        index item or of an event seen before to its text, ``None`` after
        a first sight."""
        kind = type(e)
        if kind is MsgCreated:
            text = _MSG_CREATED % (_json_str(e.var), _json_value(e.value, _FIELD), _json_str(e.creator))
        elif kind is RefinementChecked:
            # As in a dict, a repeated name keeps its first place and its last value.
            witness = _json_obj(_FIELD, [(k, _json_value(v, _FIELD + "  ")) for k, v in dict(e.witness).items()])
            verdict = "true" if e.verdict else "false"
            text = _REFINEMENT_CHECKED % (_json_str(e.var), _json_str(e.predicate), verdict, witness)
        elif kind is Sent:
            index = _json_index(e.index_after, texts)
            text = _SENT % (_json_str(e.var), _json_str(e.sender), _json_str(e.receiver), index)
        elif kind is CaseTaken:
            text = _CASE_TAKEN % (_json_str(e.var), _json_str(e.arm))
        elif kind is ProtocolEvent:
            text = _PROTOCOL_EVENT % (_json_str(e.kind), _json_str(e.protocol))
        else:
            raise TypeError(f"not an event: {e!r}")
        texts[id(e)] = text if id(e) in texts else None
        return text

    texts: dict[int, str | None] = {}
    sys.stdout.write('{\n  "status": ' + _json_record(status_to_json(report.status), _TOP) + ',\n  "events": ')
    _write_json_list((texts.get(id(e)) or json_event(e) for e in report.events), _ELEM_SEP)
    sys.stdout.write("\n}\n")


_STEP = _ELEM_SEP + _shape(_ELEM, "protocol", "path", "line", "col", "statement", "index_after")
_FINAL = _ELEM_SEP + _shape(_ELEM, "path", "index")


def _json_step(rec: StepRecord, items: dict[int, str]) -> str:
    """One element of ``cli._explain_json(result)["steps"]``, after its separator."""
    line, col = map(int.__repr__, rec.span.line_col)
    index = _json_index(rec.index_after, items)
    return _STEP % (_json_str(rec.protocol), _json_str(rec.path), line, col, _json_str(rec.text), index)


def write_explain(result: CheckResult) -> None:
    """``explain --format json``: ``cli._explain_json(result)``."""
    items: dict[int, str] = {}  # shared: steps and final indices put their items at one depth
    sys.stdout.write('{\n  "steps": ')
    _write_json_list((_json_step(rec, items) for rec in result.step_log), _ELEM_SEP)
    sys.stdout.write(',\n  "final_indices": ')
    finals = (_FINAL % (_json_str(label), _json_index(index, items)) for label, index in result.final_indices)
    _write_json_list(finals, _ELEM_SEP)
    sys.stdout.write("\n}\n")


def write_diagnostics(diags: list[dict]) -> None:
    """``check --format json``: the list of diagnostics' JSON records."""
    _write_json_list((_TOP_SEP + _json_record(d, _TOP) for d in diags), _TOP_SEP)
    sys.stdout.write("\n")
