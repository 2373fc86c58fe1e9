"""Parse time grows linearly with the protocol: a guard by instruction count.

The input is the ``deep_path`` benchmark's protocol (``perfbench/
workloads.py``) at three sizes. For each, the test counts the bytecode
instructions that ``parse`` executes (``sys.settrace`` with
``f_trace_opcodes``; work done inside C functions, such as the lexer's
regex scan, is not counted) and fits the exponent ``k`` of
``count ~ size ** k`` by least squares on the logarithms. A count is
exact and does not depend on the host's speed, so one run is enough. The
counts differ between Python versions, as the compiler emits different
instructions, so only the exponents are compared, never the counts.
A rule that scans back over what it has already read turns the exponent
quadratic, far above the bound.
"""

from __future__ import annotations

import math
import sys

from conftest import CORPUS

from sessioncheck.lexer import tokenize
from sessioncheck.parser import parse

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import workloads  # noqa: E402

SIZES = (50, 100, 200)  # message pairs of the chain


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


def statements(block) -> int:
    return sum(1 + sum(statements(arm.body) for arm in getattr(s, "arms", ())) for s in block)


def test_parse_instructions_tokens_and_statements_grow_linearly():
    sized = workloads.deep_path(1, CORPUS).sized
    texts = [sized(n)[0][0] for n in SIZES]
    counts, tokens, stmts = [], [], []
    for text in texts:
        # On Python 3.12 and 3.13 a function's first traced run after an
        # untraced one misses instructions (on 3.12.1, all of them), so each
        # text is parsed twice in a row and the second count is kept.
        instructions(parse, text)
        count, file = instructions(parse, text)
        counts.append(count)
        tokens.append(len(tokenize(text)[0]))
        stmts.append(sum(statements(p.body) for p in file.protocols))
    assert counts[0] < counts[1] < counts[2]
    assert 0.9 <= exponent(SIZES, tokens) <= 1.1, tokens
    assert 0.9 <= exponent(SIZES, stmts) <= 1.1, stmts
    assert exponent(SIZES, counts) <= 1.10, counts
