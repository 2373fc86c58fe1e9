"""Text reports: a ``simulate`` run's events and status, and ``explain``'s
knowledge index after every step.

Only text ``simulate`` and text ``explain`` load this module; ``explain``
never loads the simulator, so ``print_report`` imports its event and
status records when it runs.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .syntax import TERMINATOR_WORDS, Call, End, Rec, format_type, format_value

if TYPE_CHECKING:
    from .checker import CheckResult
    from .model import KnowledgeIndex
    from .simulator import RunReport

__all__ = ["print_report", "print_explain"]

# The keyword of the statement behind each protocol event.
_STEP_WORDS = {"recursed": TERMINATOR_WORDS[Rec], "called": TERMINATOR_WORDS[Call], "ended": TERMINATOR_WORDS[End]}


def print_report(report: RunReport) -> None:
    from .simulator import (
        CaseTaken, Completed, MsgCreated, ProtocolEvent, RefinementChecked, RefinementViolated, Sent, TraceExhausted,
        TraceMismatch,
    )

    write = sys.stdout.write  # one write per line: print makes two
    for e in report.events:
        kind = type(e)
        if kind is Sent:
            knowers = ", ".join(r.name for r in e.knowers)
            write(f"sent     {e.var} {e.sender} -> {e.receiver}; known to {knowers}\n")
        elif kind is MsgCreated:
            write(f"created  {e.var} = {format_value(e.value)} by {e.creator}\n")
        elif kind is RefinementChecked:
            verdict = "holds" if e.verdict else "FAILS"
            write(f"refined  {e.var}: {e.predicate} {verdict}\n")
        elif kind is CaseTaken:
            write(f"case     {e.var} => {e.arm}\n")
        elif kind is ProtocolEvent:
            write(f"{_STEP_WORDS[e.kind]:<8} {e.protocol}\n")
        else:
            raise TypeError(f"not an event: {e!r}")
    s = report.status
    kind = type(s)
    if kind is Completed:
        write("status: completed\n")
    elif kind is RefinementViolated:
        write(f"status: refinement violated on '{s.var}'\n")
    elif kind is TraceExhausted:
        where = f" at '{s.var}'" if s.var else ""
        write(f"status: trace exhausted{where} ({s.note})\n")
    elif kind is TraceMismatch:
        got = format_value(s.got) if s.got is not None else "nothing"
        write(f"status: trace mismatch on '{s.var}': expected {s.expected}, got {got} ({s.note})\n")
    else:
        raise TypeError(f"not a status: {s!r}")


def _index_table(index: KnowledgeIndex, indent: str, cells: dict[int, tuple[str, str, str]]) -> str:
    """The text table of ``index``. ``cells`` maps an item's id to its row:
    ``freeze`` shares unchanged items between snapshots, so each is rendered
    once per report, and the report keeps them alive, so no id is reused."""
    if not len(index):
        return f"{indent}(no messages)"
    rows = []
    for item in index:
        row = cells.get(id(item))
        if row is None:
            row = cells[id(item)] = (item.var.name, format_type(item.type), ", ".join(r.name for r in item.knowers))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows + [("var", "type", "knowers")]) for i in range(3)]
    lines = [f"{indent}{'var'.ljust(widths[0])} | {'type'.ljust(widths[1])} | knowers"]
    lines += [f"{indent}{r[0].ljust(widths[0])} | {r[1].ljust(widths[1])} | {r[2]}" for r in rows]
    return "\n".join(lines)


def print_explain(result: CheckResult) -> None:
    cells: dict[int, tuple[str, str, str]] = {}
    label = None
    for rec in result.step_log:  # an error-free log holds each protocol's steps together
        if rec.protocol != label:
            if label is not None:
                print()
            label, step = rec.protocol, 0
            print(f"protocol {label}")
        step += 1
        print(f"  step {step} [{rec.path}]: {rec.text}\n{_index_table(rec.index_after, '    ', cells)}")
    if label is not None:
        print()
    print("final indices:")
    for path, index in result.final_indices:
        print(f"  {path}:\n{_index_table(index, '    ', cells)}")
