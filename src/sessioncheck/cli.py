"""Command-line interface: check, simulate, explain, and fmt.

Exit codes are stable for CI use: 0 success, 1 the tool ran but found
errors (diagnostics, a failed run, or fmt --check differences) or stdout
was closed before the output was written, 2 an input could not be read or
parsed (and, for simulate, a file that fails the checker or has no
protocol to run).
"""

from __future__ import annotations

import argparse
import functools
import json  # perfbench/tracing.py wraps cli.json.dumps
import os
import sys
from dataclasses import dataclass

from .checker import CheckResult, StepRecord, check_file, resolve_entry
from .diagnostics import ERROR
from .model import KnowledgeIndex
from .parser import ParseError, ParseFailure, parse, parse_trace
from .printer import format_source, format_type, format_value
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
    index_to_json,
    run_trace,
)

__all__ = ["main"]


@dataclass
class _Style:
    on: bool

    def paint(self, text: str, code: str) -> str:
        return f"\x1b[{code}m{text}\x1b[0m" if self.on else text

    def error(self, text: str) -> str:
        return self.paint(text, "31")

    def warning(self, text: str) -> str:
        return self.paint(text, "33")


def _want_color(choice: str) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    if choice == "always":
        return True
    if choice == "never":
        return False
    return sys.stdout.isatty()


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at devnull after its reader went
    away, so its pending output and the flush at interpreter exit cannot
    fail again ("Note on SIGPIPE" in the signal module docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _warn(text: str) -> None:
    """Print a line to stderr. A closed stderr drops it and leaves the exit
    code as it would have been."""
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        _warn(f"sessioncheck: cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        _warn(f"sessioncheck: cannot read {path}: not UTF-8 text ({err.reason} at byte {err.start})")
    return None


def _parse_error_json(file: str, e: ParseError) -> dict:
    return {
        "code": "parse",
        "severity": "error",
        "file": file,
        "line": e.line,
        "col": e.col,
        "len": 1,
        "message": e.message,
    }


def _diag_text(d: dict, style: _Style) -> str:
    """The text line of one diagnostic, checker or parse, from its JSON record."""
    tag = f"{d['severity']}[{d['code']}]"
    tag = style.error(tag) if d["severity"] == ERROR else style.warning(tag)
    return f"{d['file']}:{d['line']}:{d['col']}: {tag}: {d['message']}"


def _load_checked(path: str, diags: list[dict], record_steps: bool = False):
    """Read, parse, and check one file, appending its diagnostics' JSON records
    to ``diags``. Returns (file, result) or an exit code."""
    text = _read(path)
    if text is None:
        return 2
    try:
        file = parse(text)
    except ParseFailure as fail:
        diags.extend(_parse_error_json(path, e) for e in fail.errors)
        return 2
    result = check_file(file, record_steps=record_steps)
    diags.extend(d.to_json(path) for d in result.diagnostics)
    return file, result


def _cmd_check(args, style: _Style) -> int:
    worst = 0
    diags: list[dict] = []
    for path in args.files:
        loaded = _load_checked(path, diags)
        if loaded == 2:
            worst = 2
            continue
        _, result = loaded
        if result.errors:
            worst = max(worst, 1)
    if args.format == "json":
        from .jsonout import write_diagnostics  # only JSON runs load the writers

        write_diagnostics(diags)
    else:
        for d in diags:
            print(_diag_text(d, style))
    return worst


def _cmd_simulate(args, style: _Style) -> int:
    diags: list[dict] = []
    loaded = _load_checked(args.files[0], diags)
    for d in diags:
        _warn(_diag_text(d, style))
    if loaded == 2:
        return 2
    file, result = loaded
    if result.errors:
        return 2  # a file that fails the checker is never executed
    if resolve_entry(file) is None:  # it passed the checker, so it declares no protocol
        _warn(f"sessioncheck: {args.files[0]}: no entry protocol to simulate")
        return 2
    trace_text = _read(args.trace)
    if trace_text is None:
        return 2
    try:
        trace = parse_trace(trace_text)
    except ParseFailure as fail:
        for e in fail.errors:
            _warn(_diag_text(_parse_error_json(args.trace, e), style))
        return 2
    report = run_trace(file, trace, max_steps=args.max_steps)
    if args.format == "json":
        from .jsonout import write_report  # only JSON runs load the writers

        write_report(report)
    else:
        _print_report(report)
    return 0 if report.completed else 1


def _print_report(report: RunReport) -> None:
    for e in report.events:
        if isinstance(e, MsgCreated):
            print(f"created  {e.var} = {format_value(e.value)} by {e.creator}")
        elif isinstance(e, RefinementChecked):
            verdict = "holds" if e.verdict else "FAILS"
            print(f"refined  {e.var}: {e.predicate} {verdict}")
        elif isinstance(e, Sent):
            knowers = ", ".join(r.name for r in e.knowers)
            print(f"sent     {e.var} {e.sender} -> {e.receiver}; known to {knowers}")
        elif isinstance(e, CaseTaken):
            print(f"case     {e.var} => {e.arm}")
        elif isinstance(e, Recursed):
            print(f"rec      {e.protocol}")
        elif isinstance(e, Called):
            print(f"call     {e.protocol}")
        elif isinstance(e, Ended):
            print(f"end      {e.protocol}")
    s = report.status
    if isinstance(s, Completed):
        print("status: completed")
    elif isinstance(s, RefinementViolated):
        print(f"status: refinement violated on '{s.var}'")
    elif isinstance(s, TraceExhausted):
        where = f" at '{s.var}'" if s.var else ""
        print(f"status: trace exhausted{where} ({s.note})")
    elif isinstance(s, TraceMismatch):
        got = format_value(s.got) if s.got is not None else "nothing"
        print(f"status: trace mismatch on '{s.var}': expected {s.expected}, got {got} ({s.note})")


def _cmd_explain(args, style: _Style) -> int:
    diags: list[dict] = []
    loaded = _load_checked(args.files[0], diags, record_steps=True)
    for d in diags:
        _warn(_diag_text(d, style))
    if loaded == 2:
        return 2
    _, result = loaded
    if result.errors:
        return 1
    if args.format == "json":
        from .jsonout import write_explain  # only JSON runs load the writers

        write_explain(result)
        return 0
    _print_explain(result)
    return 0


def _index_table(index: KnowledgeIndex, indent: str) -> list[str]:
    if not len(index):
        return [f"{indent}(no messages)"]
    rows = [(item.var.name, format_type(item.type), ", ".join(r.name for r in item.knowers)) for item in index]
    widths = [max(len(r[i]) for r in rows + [("var", "type", "knowers")]) for i in range(3)]
    out = [f"{indent}{'var'.ljust(widths[0])} | {'type'.ljust(widths[1])} | knowers"]
    for r in rows:
        out.append(f"{indent}{r[0].ljust(widths[0])} | {r[1].ljust(widths[1])} | {r[2]}")
    return out


def _print_explain(result: CheckResult) -> None:
    by_proto: dict[str, list[StepRecord]] = {}
    for rec in result.step_log:
        by_proto.setdefault(rec.protocol, []).append(rec)
    for proto, recs in by_proto.items():
        print(f"protocol {proto}")
        for i, rec in enumerate(recs, start=1):
            print(f"  step {i} [{rec.path}]: {rec.text}")
            for line in _index_table(rec.index_after, "    "):
                print(line)
        print()
    print("final indices:")
    for label, index in result.final_indices:
        print(f"  {label}:")
        for line in _index_table(index, "    "):
            print(line)


def _explain_json(result: CheckResult) -> dict:
    return {
        "steps": [
            {
                "protocol": rec.protocol,
                "path": rec.path,
                "line": rec.span.line,
                "col": rec.span.col,
                "statement": rec.text,
                "index_after": index_to_json(rec.index_after),
            }
            for rec in result.step_log
        ],
        "final_indices": [
            {"path": label, "index": index_to_json(index)} for label, index in result.final_indices
        ],
    }


def _cmd_fmt(args, style: _Style) -> int:
    worst = 0
    for path in args.files:
        text = _read(path)
        if text is None:
            worst = 2
            continue
        try:
            file = parse(text)
        except ParseFailure as fail:
            for e in fail.errors:
                _warn(_diag_text(_parse_error_json(path, e), style))
            worst = 2
            continue
        formatted = format_source(file)
        if formatted == text:
            continue
        if args.check:
            print(f"would reformat {path}")
            worst = max(worst, 1)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formatted)
            print(f"reformatted {path}")
    return worst


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than an in-process ``check`` of a small file, and parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="sessioncheck", description="Check and simulate value-dependent global session descriptions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, multi_files: bool):
        p.add_argument("files", nargs="+" if multi_files else 1, help="input .ssn files")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--color", choices=["auto", "always", "never"], default="auto")

    p_check = sub.add_parser("check", help="statically check session files")
    common(p_check, multi_files=True)

    p_sim = sub.add_parser("simulate", help="run a checked file against a value trace")
    common(p_sim, multi_files=False)
    p_sim.add_argument("--trace", required=True, help="trace file of var = value bindings")
    p_sim.add_argument("--max-steps", type=int, default=10_000)
    p_sim.add_argument("--report", choices=["text", "json"], dest="format", help="alias for --format")

    p_explain = sub.add_parser("explain", help="show the knowledge index after every step")
    common(p_explain, multi_files=False)

    p_fmt = sub.add_parser("fmt", help="rewrite files in canonical form")
    common(p_fmt, multi_files=True)
    p_fmt.add_argument("--check", action="store_true", help="exit 1 if any file would change")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "simulate" and args.max_steps < 0:
        ap.error(f"argument --max-steps: must be 0 or more, got {args.max_steps}")
    style = _Style(_want_color(args.color))
    command = {"check": _cmd_check, "simulate": _cmd_simulate, "explain": _cmd_explain, "fmt": _cmd_fmt}
    try:
        code = command[args.command](args, style)
        sys.stdout.flush()  # a closed pipe must show here, not at interpreter exit
    except BrokenPipeError:  # stdout's: _warn absorbs stderr's
        # The reader went away (`... | head`): exit 1 without a traceback.
        _to_devnull(sys.stdout)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
