"""Command-line interface: check, simulate, explain, and fmt.

Exit codes are stable for CI use: 0 success, 1 the tool ran but found
errors (diagnostics, a failed run, or fmt --check differences) or stdout
was closed before the output was written, 2 an input could not be read or
parsed, or fmt could not write a file back (and, for simulate, a file that
fails the checker or has no protocol to run).

Each command loads only the modules it runs: ``check`` and ``explain``
never load the simulator, in either format, ``fmt`` loads neither the
checker nor the simulator, and only ``--format json`` loads the JSON
writers. Only ``simulate`` loads the trace reader, only ``fmt`` and
``explain`` the source layout, and only text ``simulate`` and ``explain``
the text reports. Each function a command calls in one of those layers is
made here by ``_later``, which imports it at its first call, so the
commands call it, and tests and the benchmark's tracer replace it, by its
name in this module.

``_COMMANDS`` is the one statement of the command line: each command's
help, how many files it takes and its options, as argparse's keywords.
``_plain_args`` reads from it, without loading argparse, an argument list
of options spelled out in full, each value in the next word, and one run
of files. ``_build_parser`` builds argparse from it for any other: help,
abbreviations, ``--opt=value`` forms and usage errors.

``main`` runs with the cyclic garbage collector off, because a run's data
is acyclic (tests/test_cycles.py), and restores the caller's setting;
``python -m sessioncheck`` has it off from before its first import.
"""

from __future__ import annotations

import errno
import functools
import gc
import os
import stat
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .diagnostics import ERROR
from .parser import ParseFailure, parse

if TYPE_CHECKING:  # each command loads the checker and simulator only if it runs them
    import argparse

    from .checker import CheckResult

__all__ = ["main"]


def __getattr__(name: str):
    # No command needs json; perfbench/tracing.py wraps cli.json.dumps.
    if name == "json":
        import json

        return json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _later(module: str, name: str):
    """A function named ``name`` that imports ``name`` from this package's
    ``module`` at its first call, keeps it, and calls it."""
    found = None

    def call(*args, **kwargs):
        nonlocal found
        if found is None:
            found = getattr(import_module(f".{module}", __package__), name)
        return found(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


check_file = _later("checker", "check_file")
resolve_entry = _later("checker", "resolve_entry")
run_trace = _later("simulator", "run_trace")
parse_trace = _later("traces", "parse_trace")
format_source = _later("printer", "format_source")
_print_report = _later("reports", "print_report")
_print_explain = _later("reports", "print_explain")
write_diagnostics = _later("jsonout", "write_diagnostics")
write_report = _later("jsonout", "write_report")
write_explain = _later("jsonout", "write_explain")


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
        write_diagnostics(diags)
    else:
        for d in diags:
            print(_diag_text(d, color))
    return worst


def _cmd_simulate(args, color: bool) -> int:
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
        write_report(report)
    else:
        _print_report(report)
    return 0 if report.completed else 1


def _cmd_explain(args, color: bool) -> int:
    loaded = _load_checked(args.files[0], _warner(color), record_steps=True)
    if loaded is None:
        return 2
    result = loaded[1]
    if result.errors:
        return 1
    if args.format == "json":
        write_explain(result)
    else:
        _print_explain(result)
    return 0


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


_FORMAT = ("--format", {"choices": ["text", "json"], "default": "text"})
_COLOR = ("--color", {"choices": ["auto", "always", "never"], "default": "auto"})
# Per command, in help order: its help, how many files it takes, and each
# option with argparse's keywords for it (an ``action`` is a flag).
_COMMANDS = {
    "check": ("statically check session files", "+", [_FORMAT, _COLOR]),
    "simulate": ("run a checked file against a value trace", 1, [
        _FORMAT,
        _COLOR,
        ("--trace", {"required": True, "help": "trace file of var = value bindings"}),
        ("--max-steps", {"type": int, "default": 10_000}),
        ("--report", {"choices": ["text", "json"], "dest": "format", "help": "alias for --format"}),
    ]),
    "explain": ("show the knowledge index after every step", 1, [_FORMAT, _COLOR]),
    "fmt": ("rewrite files in canonical form", "+", [
        _COLOR,
        ("--check", {"action": "store_true", "help": "exit 1 if any file would change"}),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built only for an argument list that
    ``_plain_args`` does not read, and then once per process: building it
    costs more than an in-process ``check`` of a small file, and parsing
    leaves it unchanged. It alone words help and usage errors."""
    import argparse

    ap = argparse.ArgumentParser(prog="sessioncheck", description="Check and simulate value-dependent global session descriptions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, nargs, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("files", nargs=nargs, help="input .ssn files")
        for option, spec in options:
            p.add_argument(option, **spec)
    return ap


def _value(spec: dict, word: str):
    """What argparse gives for ``word`` as the value of an option with the
    keywords ``spec``, or None for a word that this reader leaves to it."""
    if "choices" in spec:
        return word if word in spec["choices"] else None
    if spec.get("type") is int:
        # int() takes any run of up to 640 ASCII digits, whatever its digit limit
        # is set to (sys.int_info.str_digits_check_threshold). isdigit alone
        # would pass "²", which int() refuses.
        return int(word) if word.isascii() and word.isdigit() and len(word) <= 640 else None
    return None if word.startswith("-") else word


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` gives for a plain ``argv``,
    without loading argparse; None for any other, which argparse reads. A
    plain ``argv`` is a command, then options spelled out in full, each value
    in the next word, and one unbroken run of files around them."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, nargs, options = _COMMANDS[argv[0]]
    args, named, required = {"command": argv[0]}, {}, set()
    for option, spec in options:
        dest = spec.get("dest", option[2:].replace("-", "_"))
        args.setdefault(dest, spec.get("default", False if "action" in spec else None))  # the first of a dest wins
        named[option] = dest, spec
        if spec.get("required"):
            required.add(option)
    files: list[str] = []
    ended = False  # an option after a file ends the run of files
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if ended:  # argparse takes the first run of files only
                return None
            files.append(word)
            continue
        if word not in named:
            return None
        dest, spec = named[word]
        value = True if "action" in spec else _value(spec, next(words, "-"))  # a missing value reads as a bad one
        if value is None:
            return None
        args[dest] = value  # a repeated option: the last wins
        required.discard(word)
        ended = bool(files)
    if not files or (len(files) > 1 and nargs == 1) or required:
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
