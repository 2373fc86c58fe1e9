"""Every command's work grows linearly with its input: guards by instruction count and memory.

The first input is the ``deep_path`` benchmark's protocol (``perfbench/
workloads.py``), the others the shapes of ``shapes.py``, each at three
sizes. For each, a test counts the bytecode instructions that ``parse``,
``check_file`` or ``run_trace`` executes (``sys.settrace`` with
``f_trace_opcodes``; work done inside C functions, such as the lexer's
regex scan, is not counted) and fits the exponent ``k`` of
``count ~ size ** k`` by least squares on the logarithms. A count is
exact and does not depend on the host's speed, so one run is enough. The
counts differ between Python versions, as the compiler emits different
instructions, so only the exponents are compared, never the counts.
A rule that scans back over what it has already read, or a name lookup
that scans the declarations, turns the exponent quadratic, far above the
bound. A copy made in C, such as a snapshot of the index at every send,
runs no instruction, so the text ``simulate`` guard bounds the growth of
its peak traced memory instead.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tracemalloc

import pytest
from conftest import CORPUS

import shapes
from sessioncheck import check_file, cli, parse_trace, run_trace
from sessioncheck.lexer import tokenize
from sessioncheck.parser import parse

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import workloads  # noqa: E402

SIZES = (50, 100, 200)  # message pairs of the deep_path chain, or the n of a shape


def exponent(sizes, values) -> float:
    """The least-squares slope of log(value) over log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def instructions(fn, *args):
    """The number of bytecode instructions ``fn(*args)`` executes, and its result."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return count, result


def second_count(fn, *args):
    """``instructions(fn, *args)`` of the second of two runs in a row. On
    Python 3.12 and 3.13 a function's first traced run after an untraced one
    misses instructions (on 3.12.1, all of them)."""
    instructions(fn, *args)
    return instructions(fn, *args)


def statements(block) -> int:
    return sum(1 + sum(statements(arm.body) for arm in getattr(s, "arms", ())) for s in block)


def test_parse_instructions_tokens_and_statements_grow_linearly():
    sized = workloads.deep_path(1, CORPUS).sized
    texts = [sized(n)[0][0] for n in SIZES]
    counts, tokens, stmts = [], [], []
    for text in texts:
        count, file = second_count(parse, text)
        counts.append(count)
        tokens.append(len(tokenize(text)[0]))
        stmts.append(sum(statements(p.body) for p in file.protocols))
    assert counts[0] < counts[1] < counts[2]
    assert 0.9 <= exponent(SIZES, tokens) <= 1.1, tokens
    assert 0.9 <= exponent(SIZES, stmts) <= 1.1, stmts
    assert exponent(SIZES, counts) <= 1.10, counts


@pytest.mark.parametrize(
    "shape, command",
    [("call_chain", "check"), ("call_chain", "run"), ("parametric_chain", "check"), ("parametric_chain", "run"),
     ("wide_variant", "check"), ("wide_variant", "run"), ("many_params", "check")],
)
def test_check_and_run_instructions_grow_linearly_on_every_shape(shape, command):
    counts, events = [], []
    for n in SIZES:
        text, trace = shapes.SHAPES[shape](n)
        file = parse(text)
        if command == "check":
            count, result = second_count(check_file, file)
            assert result.ok, result.diagnostics[:3]
        else:
            count, result = second_count(run_trace, file, parse_trace(trace))
            assert result.completed, result.status
            events.append(len(result.events))
        counts.append(count)
    assert counts[0] < counts[1] < counts[2]
    if command == "run" and shape.endswith("chain"):  # a wide read logs the same events at every size
        assert 0.9 <= exponent(SIZES, events) <= 1.1, events
    assert exponent(SIZES, counts) <= 1.10, counts


def test_text_simulate_memory_grows_linearly(tmp_path):
    """The peak traced memory of a text ``simulate`` of a fork-free chain, with
    its output bytes and events, grows linearly in the chain's length."""
    sizes = (300, 600, 1200)
    ssn, trace = tmp_path / "chain.ssn", tmp_path / "chain.trace"
    argv = ["simulate", str(ssn), "--trace", str(trace)]

    def simulate(n: int, traced: bool) -> tuple[int, str]:
        text, bindings = shapes.fork_free_chain(n)
        ssn.write_text(text)
        trace.write_text(bindings)
        out = io.StringIO()
        if traced:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue().endswith("status: completed\n")
        return peak, out.getvalue()

    simulate(sizes[0], traced=False)  # so that no size pays for loading a module
    peaks, out_bytes, events = [], [], []
    for n in sizes:
        peak, out = simulate(n, traced=True)
        peaks.append(peak)
        out_bytes.append(len(out))
        events.append(out.count("\n") - 1)  # one line per event, then the status
    assert 0.9 <= exponent(sizes, out_bytes) <= 1.1, out_bytes
    assert 0.9 <= exponent(sizes, events) <= 1.1, events
    assert exponent(sizes, peaks) <= 1.10, peaks
