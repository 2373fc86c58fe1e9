"""The benchmark harness still runs against this tree.

Builds each workload of ``perfbench/`` at one seed and runs every
in-process operation through ``cli.main``, checking each answer the way
``perfbench/run.py`` does. A change that breaks an answer check, an
import or a hook name the harness relies on fails here first. The front
end is also checked token by token on small copies of the two long
inputs, a ``deep_path`` protocol and a ``long_trace`` trace.
"""

from __future__ import annotations

import random
import re
import sys

import pytest

from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from sessioncheck import cli  # noqa: E402
from sessioncheck.lexer import tokenize  # noqa: E402
from sessioncheck.parser import parse, parse_trace  # noqa: E402
from sessioncheck.printer import format_source, format_value  # noqa: E402
from sessioncheck.syntax import NewDepMsg, NewMsg, ReadCase  # noqa: E402

# Hooks on the pure knowledge-index functions, which the checker and the
# simulator no longer import; the harness reports them as not traced.
STALE_HOOKS = {
    "sessioncheck.checker.introduce",
    "sessioncheck.checker.learn",
    "sessioncheck.checker.knows",
    "sessioncheck.checker.all_know",
    "sessioncheck.simulator.introduce",
    "sessioncheck.simulator.learn",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_op_gives_its_expected_answer(name, tmp_path, monkeypatch, capsys):
    plan = workloads.WORKLOADS[name](1, CORPUS)
    for file_name, text in plan.files.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ops = [op for op in plan.ops if op.kind != "cold"]
    assert ops
    for op in ops:
        code = cli.main(op.argv)
        out, _ = capsys.readouterr()
        assert op.expect(code, out) is None, op.argv


def test_no_hook_goes_stale_beyond_the_known_ones():
    assert set(tracing.missing_hooks()) <= STALE_HOOKS


# Token texts of the benchmark's inputs, which hold no comments and no
# string escapes.
WORDS = re.compile(r'[A-Za-z][A-Za-z0-9_]*|[0-9]+|"[^"\n]*"|->|=>|==|!=|<=|\S')


def lex_checked(text: str, first: tuple, last: str) -> list:
    """Tokens of ``text``, checked against ``WORDS`` and at both ends."""
    tokens, errors = tokenize(text)
    assert errors == []
    assert len(tokens) == len(WORDS.findall(text)) + 1
    assert [t.text for t in tokens[:-1]] == WORDS.findall(text)
    for t in tokens:
        assert text.startswith(t.text, t.offset)
        assert (t.line, t.col) == (text.count("\n", 0, t.offset) + 1, t.offset - text.rfind("\n", 0, t.offset))
    lines = text.splitlines()
    assert tokens[0] == first
    assert (tokens[-2].text, tokens[-2].line, tokens[-2].col) == (last, len(lines), len(lines[-1]) - len(last) + 1)
    assert tokens[-1] == ("eof", "", None, len(lines) + 1, 1, len(text))
    return tokens


def test_front_end_on_a_deep_path_protocol():
    pairs = 60
    text, trace, forks = workloads._deep(random.Random("deep_path:1"), pairs)
    assert len(lex_checked(text, ("roles", "roles", None, 1, 1, 0), "Deep")) > 20 * pairs
    file = parse(text)
    assert format_source(file) == text
    stmts, reads, block = [], 0, file.protocols[0].body
    while block:
        stmts += block
        reads += isinstance(block[-1], ReadCase)
        block = block[-1].arms[-1].body if isinstance(block[-1], ReadCase) else ()
    assert [s.var.name for s in stmts if isinstance(s, (NewMsg, NewDepMsg))] == [f"m{i}" for i in range(pairs)]
    assert reads == forks > 0
    assert [b.var.name for b in parse_trace(trace).bindings] == [f"m{i}" for i in range(pairs)]


def test_front_end_on_a_long_trace():
    lines, _ = workloads._long(random.Random("long_trace:1"), 200)
    text = "\n".join(lines) + "\n"
    assert len(lex_checked(text, ("ident", "cmd", "cmd", 1, 1, 0), "Quit")) > 3 * len(lines)
    trace = parse_trace(text)
    assert [f"{b.var.name} = {format_value(b.value)}" for b in trace.bindings] == lines
