"""Any input ends in a documented exit code, never a Python traceback.

Arbitrary bytes and mutated corpus files go through `check`, `explain`,
`fmt --check` and `simulate`, in text and JSON, by calling the CLI's
`main` in this process, so an uncaught exception fails the test directly.
Exit codes: 0 success, 1 the tool ran and found a problem, 2 an input
could not be read or parsed (for `simulate`, also a file that fails
`check` or has no protocol to run).
"""

from __future__ import annotations

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessioncheck.cli import main

from conftest import CORPUS

PAIRS = {
    "tcp.ssn": ("tcp_good.trace", "tcp_bad_m2.trace", "tcp_bad_m3.trace"),
    "server.ssn": ("server_quit.trace", "server_echo.trace", "server_math.trace"),
    "hoppy.ssn": ("hoppy_grant.trace", "hoppy_deny.trace"),
    "charlie.ssn": ("tcp_good.trace",),
}

# Fragments a mutation inserts: keywords, punctuation, names, limits.
SNIPPETS = [
    "roles", "type", "protocol", "entry", "msg", "dep", "send", "read", "rec", "call", "end",
    "then", "where", "by", "literal(", "next(", "{", "}", "(", ")", "[", "]", "<", ">", ";", ",",
    ":", "=>", "->", "|", "=", "_", "!", ".1", ".0", "+", "-", "*", "==", "<=", "and", "or",
    "Int", "Bool", "Str", "A", "B", "m1", "Quit", '"', '"s\\', "\\", "--", "\n", "\t", "\x00",
    "é", "9" * 4400, "(" * 120, "read m1 { _ => " * 110, "Con(" * 120, "\r", "\x0b",
]

mutation = st.tuples(
    st.sampled_from(["delete", "duplicate", "insert", "truncate"]),
    st.integers(0, 10**6),
    st.integers(0, 200),
    st.sampled_from(SNIPPETS),
)


def mutate(text: str, ops) -> str:
    for kind, at, length, snippet in ops:
        i = at % (len(text) + 1)
        if kind == "delete":
            text = text[:i] + text[i + length :]
        elif kind == "duplicate":
            text = text[:i] + text[i : i + length] + text[i:]
        elif kind == "insert":
            text = text[:i] + snippet + text[i:]
        else:
            text = text[:i]
    return text


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def unreadable_or_unparsable(text: str) -> bool:
    return "sessioncheck: cannot read " in text or "error[parse]" in text


def check_static_commands(ssn: pathlib.Path) -> int:
    """Run `check`, `explain` and `fmt --check` on ``ssn``, check that each
    exit code means what the CLI documents, and return `check`'s."""
    code, out, err = run("check", "--color", "never", str(ssn))
    assert code in (0, 1, 2)
    if code == 2:
        assert unreadable_or_unparsable(out + err)
    else:
        assert ("error[E" in out) == (code == 1) and "error[parse]" not in out and err == ""
    check_code = code

    code, out, err = run("check", "--format", "json", str(ssn))
    assert code == check_code
    if err == "":
        diags = json.loads(out)
        assert any(d["code"] == "parse" for d in diags) == (code == 2)
        assert any(d["severity"] == "error" for d in diags) == (code != 0)

    for fmt in ("text", "json"):
        code, out, err = run("explain", "--color", "never", "--format", fmt, str(ssn))
        assert code == check_code
        if code == 0:
            assert out != "" and "error[" not in err
            if fmt == "json":
                assert set(json.loads(out)) == {"steps", "final_indices"}
        else:
            assert out == ""
            assert (code == 2) == unreadable_or_unparsable(err)

    code, out, err = run("fmt", "--check", "--color", "never", str(ssn))
    assert code in (0, 1, 2)
    assert (code == 2) == unreadable_or_unparsable(err)
    assert out == ("" if code != 1 else f"would reformat {ssn}\n")
    return check_code


def check_simulate(ssn: pathlib.Path, trace: pathlib.Path, check_code: int) -> None:
    """Run `simulate` in text and JSON; ``check_code`` is `check`'s exit code on ``ssn``."""
    for fmt in ("text", "json"):
        code, out, err = run("simulate", "--color", "never", "--format", fmt, str(ssn), "--trace", str(trace))
        assert code in (0, 1, 2)
        if code == 2:  # nothing ran: unreadable, unparsable, failing check or nothing to run
            assert out == "" and err != ""
            assert check_code != 0 or unreadable_or_unparsable(err) or "no entry protocol to simulate" in err
        else:
            assert check_code == 0
            status = json.loads(out)["status"]["kind"] if fmt == "json" else out.splitlines()[-1]
            assert (status in ("completed", "status: completed")) == (code == 0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.binary(max_size=400), st.sampled_from(["tcp.ssn", "server.ssn", "hoppy.ssn"]))
@example(b"", "tcp.ssn")
@example(b"roles A\n", "tcp.ssn")
@example(b"roles A\n\xff\xfe\n", "tcp.ssn")
def test_arbitrary_bytes_never_raise(data, corpus_ssn):
    # ``corpus_ssn`` passes check; the bytes are read as a file and as its trace
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_bytes(data)
        check_simulate(path, CORPUS / PAIRS[corpus_ssn][0], check_static_commands(path))
        check_simulate(CORPUS / corpus_ssn, path, 0)


@st.composite
def mutated_pair(draw):
    ssn = draw(st.sampled_from(sorted(PAIRS)))
    trace = draw(st.sampled_from(PAIRS[ssn]))
    ssn_text = mutate((CORPUS / ssn).read_text(), draw(st.lists(mutation, max_size=4)))
    trace_text = mutate((CORPUS / trace).read_text(), draw(st.lists(mutation, max_size=3)))
    return ssn_text, trace_text


@settings(max_examples=120, derandomize=True, deadline=None)
@given(mutated_pair())
def test_mutated_corpus_files_never_raise(pair):
    ssn_text, trace_text = pair
    with tempfile.TemporaryDirectory() as tmp:
        ssn, trace = pathlib.Path(tmp) / "p.ssn", pathlib.Path(tmp) / "p.trace"
        ssn.write_text(ssn_text, encoding="utf-8")
        trace.write_text(trace_text, encoding="utf-8")
        check_simulate(ssn, trace, check_static_commands(ssn))
