"""Command-line interface: check, simulate, explain, and fmt.

Exit codes are stable for CI use: 0 success, 1 the tool ran but found
errors (diagnostics, a failed run, or fmt --check differences) or stdout
was closed before the output was written, 2 an input could not be read or
parsed, or fmt could not write a file back (and, for simulate, a file that
fails the checker or has no protocol to run).

Each command loads only the modules it runs: ``check`` and ``explain``
never load the simulator, ``fmt`` loads neither the checker nor the
simulator, and only ``--format json`` loads the JSON writers (and with
them both). None loads argparse for an argument list that ``_plain_args``
reads: options written out in full, each value in the next word, and one
run of files. ``check_file`` and ``run_trace`` are thin functions here
that import the real one when called, so the commands call them, and
tests and the benchmark's tracer replace them, by their names in this
module.

``main`` runs with the cyclic garbage collector off, because a run's data
is acyclic (tests/test_cycles.py), and restores the caller's setting.
"""

from __future__ import annotations

import errno
import functools
import gc
import os
import stat
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .diagnostics import ERROR
from .parser import ParseFailure, parse, parse_trace
from .printer import format_source, format_type, format_value

if TYPE_CHECKING:  # each command loads the checker and simulator only if it runs them
    import argparse

    from .checker import CheckResult
    from .model import KnowledgeIndex
    from .simulator import RunReport

__all__ = ["main"]


def __getattr__(name: str):
    # No command needs json; perfbench/tracing.py wraps cli.json.dumps.
    if name == "json":
        import json

        return json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_file(file, **options):
    """``checker.check_file``, which the commands call by this name: ``fmt``
    never loads the checker."""
    from .checker import check_file as check

    return check(file, **options)


def run_trace(file, trace, **options):
    """``simulator.run_trace``, which ``simulate`` calls by this name: only
    ``simulate`` loads the simulator."""
    from .simulator import run_trace as run

    return run(file, trace, **options)


def _want_color(choice: str, stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    if choice == "always":
        return True
    if choice == "never":
        return False
    return stream.isatty()


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
            # A leading byte-order mark is no text. ("utf-8-sig" would count a bad
            # byte's offset from past the mark, and read a cut-off mark as empty.)
            return fh.read().removeprefix("\ufeff")
    except OSError as err:
        _warn(f"sessioncheck: cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        _warn(f"sessioncheck: cannot read {path}: not UTF-8 text ({err.reason} at byte {err.start})")
    return None


def _diag_text(d: dict, color: bool) -> str:
    """The text line of one diagnostic, checker or parse, from its JSON record;
    ``color`` paints its tag red for an error, yellow for a warning."""
    tag = f"{d['severity']}[{d['code']}]"
    if color:
        tag = f"\x1b[{'31' if d['severity'] == ERROR else '33'}m{tag}\x1b[0m"
    return f"{d['file']}:{d['line']}:{d['col']}: {tag}: {d['message']}"


def _load(path: str, parse_fn, emit):
    """Read ``path`` and parse its text with ``parse_fn``, passing each parse
    error's JSON record to ``emit``. Returns (text, tree), or None if the
    file could not be read or parsed."""
    text = _read(path)
    if text is None:
        return None
    try:
        return text, parse_fn(text)
    except ParseFailure as fail:
        for e in fail.errors:
            emit(e.to_json(path))
        return None


def _load_checked(path: str, emit, record_steps: bool = False):
    """Read, parse, and check one file, passing its diagnostics' JSON records
    to ``emit``. Returns (file, result), or None if the file could not be
    read or parsed."""
    loaded = _load(path, parse, emit)
    if loaded is None:
        return None
    file = loaded[1]
    result = check_file(file, record_steps=record_steps)
    for d in result.diagnostics:
        emit(d.to_json(path))
    return file, result


def _warner(color: bool):
    """An ``emit`` that prints each diagnostic to stderr as it comes."""
    return lambda d: _warn(_diag_text(d, color))


def _cmd_check(args, color: bool) -> int:
    worst = 0
    diags: list[dict] = []
    for path in args.files:
        loaded = _load_checked(path, diags.append)
        if loaded is None:
            worst = 2
        elif loaded[1].errors:
            worst = max(worst, 1)
    if args.format == "json":
        from .jsonout import write_diagnostics  # only JSON runs load the writers

        write_diagnostics(diags)
    else:
        for d in diags:
            print(_diag_text(d, color))
    return worst


def _cmd_simulate(args, color: bool) -> int:
    from .checker import resolve_entry

    loaded = _load_checked(args.files[0], _warner(color))
    if loaded is None or loaded[1].errors:
        return 2  # a file that fails the checker is never executed
    file = loaded[0]
    if resolve_entry(file) is None:  # it passed the checker, so it declares no protocol
        _warn(f"sessioncheck: {args.files[0]}: no entry protocol to simulate")
        return 2
    loaded = _load(args.trace, parse_trace, _warner(color))
    if loaded is None:
        return 2
    # Only the JSON report prints each send's index; the text one prints its knowers.
    report = run_trace(file, loaded[1], max_steps=args.max_steps, snapshots=args.format == "json")
    if args.format == "json":
        from .jsonout import write_report  # only JSON runs load the writers

        write_report(report)
    else:
        _print_report(report)
    return 0 if report.completed else 1


_STEP_WORDS = {"recursed": "rec", "called": "call", "ended": "end"}


def _print_report(report: RunReport) -> None:
    from .simulator import (
        CaseTaken,
        Completed,
        MsgCreated,
        ProtocolEvent,
        RefinementChecked,
        RefinementViolated,
        Sent,
        TraceExhausted,
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


def _cmd_explain(args, color: bool) -> int:
    loaded = _load_checked(args.files[0], _warner(color), record_steps=True)
    if loaded is None:
        return 2
    result = loaded[1]
    if result.errors:
        return 1
    if args.format == "json":
        from .jsonout import write_explain  # only JSON runs load the writers

        write_explain(result)
        return 0
    _print_explain(result)
    return 0


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


def _print_explain(result: CheckResult) -> None:
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


def _explain_json(result: CheckResult) -> dict:
    from .simulator import index_to_json

    return {
        "steps": [
            {
                "protocol": rec.protocol,
                "path": rec.path,
                "line": line,
                "col": col,
                "statement": rec.text,
                "index_after": index_to_json(rec.index_after),
            }
            for rec in result.step_log
            for line, col in [rec.span.line_col]  # one lookup for both
        ],
        "final_indices": [
            {"path": label, "index": index_to_json(index)} for label, index in result.final_indices
        ],
    }


def _replace_text(path: str, text: str) -> None:
    """Write ``text`` in full beside the file ``path`` points to, then move it
    over that file with the file's mode, so a failed write leaves the original."""
    target = os.path.realpath(path)  # a link stays a link, to the new text
    if not os.access(target, os.W_OK):  # a read-only file stays as it is
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_fmt(args, color: bool) -> int:
    worst = 0
    for path in args.files:
        loaded = _load(path, parse, _warner(color))
        if loaded is None:
            worst = 2
            continue
        text, file = loaded
        formatted = format_source(file)
        if formatted == text:
            continue
        if args.check:
            print(f"would reformat {path}")
            worst = max(worst, 1)
        else:
            try:
                _replace_text(path, formatted)
            except OSError as err:
                _warn(f"sessioncheck: cannot write {path}: {err.strerror or err}")
                worst = 2
                continue
            print(f"reformatted {path}")
    return worst


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built only for an argument list that
    ``_plain_args`` does not read, and then once per process: building it
    costs more than an in-process ``check`` of a small file, and parsing
    leaves it unchanged. It alone words help and usage errors."""
    import argparse

    ap = argparse.ArgumentParser(prog="sessioncheck", description="Check and simulate value-dependent global session descriptions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, multi_files: bool, formats: bool = True):
        p.add_argument("files", nargs="+" if multi_files else 1, help="input .ssn files")
        if formats:
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
    common(p_fmt, multi_files=True, formats=False)
    p_fmt.add_argument("--check", action="store_true", help="exit 1 if any file would change")

    return ap


def _choice(*words: str):
    return lambda word: word if word in words else None


def _steps(word: str) -> int | None:
    # int() takes any run of up to 640 ASCII digits, whatever its digit limit
    # is set to (sys.int_info.str_digits_check_threshold). isdigit alone
    # would pass "²", which int() refuses.
    return int(word) if word.isascii() and word.isdigit() and len(word) <= 640 else None


_FORMAT = ("format", _choice("text", "json"))
_COLOR = ("color", _choice("auto", "always", "never"))
# Per command: whether it takes more than one file, the values argparse
# gives when no option is written, and each option's dest and value reader
# (None for a flag). A reader returns None for a value it leaves to argparse.
_PLAIN = {
    "check": (True, {"format": "text", "color": "auto"}, {"--format": _FORMAT, "--color": _COLOR}),
    "explain": (False, {"format": "text", "color": "auto"}, {"--format": _FORMAT, "--color": _COLOR}),
    "simulate": (
        False,
        {"format": "text", "color": "auto", "max_steps": 10_000},
        {"--format": _FORMAT, "--report": _FORMAT, "--color": _COLOR, "--max-steps": ("max_steps", _steps),
         "--trace": ("trace", lambda word: None if word.startswith("-") else word)},
    ),
    "fmt": (True, {"color": "auto", "check": False}, {"--color": _COLOR, "--check": ("check", None)}),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` gives for a plain ``argv``,
    without loading argparse; None for any other, which argparse reads. A
    plain ``argv`` is a command, then options spelled out in full, each value
    in the next word, and one unbroken run of files around them."""
    if not argv or argv[0] not in _PLAIN:
        return None
    multi, defaults, options = _PLAIN[argv[0]]
    args = {"command": argv[0], **defaults}
    files: list[str] = []
    ended = False  # an option after a file ends the run of files
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if ended:  # argparse takes the first run of files only
                return None
            files.append(word)
            continue
        if word not in options:
            return None
        dest, read = options[word]
        value = True if read is None else read(next(words, "-"))  # a missing value reads as a bad one
        if value is None:
            return None
        args[dest] = value  # a repeated option: the last wins
        ended = bool(files)
    if not files or (len(files) > 1 and not multi) or (argv[0] == "simulate" and "trace" not in args):
        return None
    return SimpleNamespace(**args, files=files)


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # a run makes no reference cycles for it to free
    try:
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            ap = _build_parser()
            args = ap.parse_args(argv)
            if args.command == "simulate" and args.max_steps < 0:
                ap.error(f"argument --max-steps: must be 0 or more, got {args.max_steps}")
        color = _want_color(args.color, sys.stdout if args.command == "check" else sys.stderr)  # where diagnostics go
        command = {"check": _cmd_check, "simulate": _cmd_simulate, "explain": _cmd_explain, "fmt": _cmd_fmt}
        try:
            code = command[args.command](args, color)
            sys.stdout.flush()  # a closed pipe must show here, not at interpreter exit
        except BrokenPipeError:  # stdout's: _warn absorbs stderr's
            # The reader went away (`... | head`): exit 1 without a traceback.
            _to_devnull(sys.stdout)
            return 1
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
