"""The direct trace reader against the token parser it falls back to.

``parse_trace`` reads a trace straight from its text and, where that reader
gives up, parses the text again from its tokens. For every input here
``parse_trace`` must give the same ``Trace`` as the token path, or the same
``ParseFailure`` errors. The reader itself, not the fallback, must accept
every well-formed trace the corpus and the benchmark use.
"""

from __future__ import annotations

import random
import re
import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest
from conftest import CORPUS

from sessioncheck import cli, lexer
from sessioncheck.jsonout import write_report
from sessioncheck.parser import ParseFailure, _MAX_NESTING, parse
from sessioncheck.simulator import run_trace
from sessioncheck.syntax import BoolV, ConV, IntV, StrV, TupleV, format_value
from sessioncheck.traces import _parse_trace_tokens, _read_trace, parse_trace

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import workloads  # noqa: E402

TRACES = sorted(CORPUS.glob("*.trace"))


def outcome(parse, text: str):
    """The trace ``parse`` gives, or the errors it raises."""
    try:
        return parse(text)
    except ParseFailure as failure:
        return failure.errors


def assert_read_directly(text: str) -> None:
    trace = _read_trace(text)
    assert trace is not None, text[:200]
    assert trace == _parse_trace_tokens(text)


@pytest.mark.parametrize("path", TRACES, ids=lambda p: p.name)
def test_the_reader_accepts_every_corpus_trace(path):
    assert_read_directly(path.read_text())


def test_the_reader_accepts_a_long_trace():
    lines, _ = workloads._long(random.Random("reader"), 300)
    assert_read_directly("\n".join(lines) + "\n")


def test_the_reader_shares_repeated_flat_values_and_bindings():
    text = 'cmd = Echo\nrequest = "hi"\nreply = "hi"\nn = -3\nop = Mul(1, 2)\n' * 2 + "cmd = Echo\nok = true\nok = true\n"
    trace = _read_trace(text)
    assert trace == _parse_trace_tokens(text)
    first, second, last = trace.bindings[:5], trace.bindings[5:10], trace.bindings[10:]
    # one binding per repeated name and flat value, and one value per flat token
    for a, b in zip(first[:4], second[:4]):
        assert a is b
    assert first[0] is last[0] and last[1] is last[2]
    assert first[1] is not first[2] and first[1].value is first[2].value == StrV("hi")
    assert first[3].value == IntV(-3)
    # a compound value is built each time
    assert first[4] is not second[4] and first[4].value is not second[4].value
    assert first[4].value == second[4].value == ConV("Mul", TupleV((IntV(1), IntV(2))))


def test_a_long_trace_runs_alike_from_either_reader(corpus):
    file = parse((corpus / "server.ssn").read_text())
    lines, _ = workloads._long(random.Random("shared"), 300)
    text = "\n".join(lines) + "\n"
    shared, fresh = parse_trace(text), _parse_trace_tokens(text)
    assert len({id(b) for b in shared.bindings}) < len({id(b) for b in fresh.bindings}) == len(lines)
    reports = [run_trace(file, trace) for trace in (shared, fresh)]
    assert reports[0] == reports[1] and reports[0].completed
    for render in (write_report, cli._print_report):
        outputs = []
        for report in reports:
            buf = StringIO()
            with redirect_stdout(buf):
                render(report)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 4 else 3)
    if kind == 0:
        return IntV(rng.randint(-10**6, 10**6))
    if kind == 1:
        return StrV("".join(rng.choice('ab "\\-(),é\t') for _ in range(rng.randrange(6))))
    if kind == 2:
        return BoolV(rng.random() < 0.5)
    if kind == 3:
        return ConV(rng.choice(["A", "Tag", "t_1", "Quit"]))
    items = tuple(random_value(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    if kind == 4:
        return TupleV(items)
    return ConV("Op", items[0] if rng.random() < 0.5 else TupleV(items))


def test_the_reader_reads_back_printed_values():
    rng = random.Random("printed")
    values = [random_value(rng) for _ in range(400)]
    text = "".join(f"v{i} = {format_value(v)}\n" for i, v in enumerate(values))
    assert_read_directly(text)
    assert [b.value for b in parse_trace(text).bindings] == values


# Each text stops the reader at one of its give-up points; the token path reports it.
GIVE_UPS = {
    "no match": "x = (1 2)\n",
    "no equals sign": "x 1\n",
    "sign without digits": "x = -y\n",
    "bad character": "x = @\n",
    "trailing text": "x = 1 )\n",
    "keyword variable": "end = 1\n",
    "keyword value": "x = rec\n",
    "keyword tag": "x = true(1)\n",
    "bad escape": 'x = "a\\q"\n',
    "unterminated string": 'x = "abc\ny = 1\n',
    "long int": "x = " + "9" * 5000 + "\n",
    "one-item tuple": "x = (1)\n",
    "nesting": "x = " + "T(" * _MAX_NESTING + "1" + ")" * _MAX_NESTING + "\n",
    # A gap is taken whole: the value is not the tail of the comment, and a
    # failed match does not try every split of the whitespace run.
    "comment tail": "x = -- 5\n",
    "long gap": "x =" + " \t\r\n" * 2000 + ")\n",
}


@pytest.mark.parametrize("text", GIVE_UPS.values(), ids=GIVE_UPS)
def test_each_give_up_falls_back_to_the_token_errors(text):
    assert _read_trace(text) is None
    with pytest.raises(ParseFailure) as failure:
        parse_trace(text)
    assert failure.value.errors == outcome(_parse_trace_tokens, text)


def test_the_patterns_use_no_syntax_newer_than_python_3_10():
    # possessive quantifiers and atomic groups came to `re` in Python 3.11;
    # the lexer's scan is the one pattern both readers use
    assert re.search(r"[*+?}]\+|\(\?>", lexer._MASTER.pattern) is None, lexer._MASTER.pattern


def test_the_deepest_value_the_cap_allows_is_read_directly():
    depth = _MAX_NESTING - 1
    assert_read_directly("x = " + "T(" * depth + "1" + ")" * depth + "\n")
    assert_read_directly("x = " + "(1, " * depth + "1" + ")" * depth + "\n")


# Text the mutations insert: comment starts, escapes, quotes, tuple syntax,
# signs, keywords and non-ASCII.
ALPHABET = ["--", "\\", '"', "(", ")", ",", "-", "=", " ", "\n", "\r\n", "true", "false", "end", "é", "7", "x", "T"]


def test_mutated_traces_match_the_token_path():
    rng = random.Random("mutations")
    seeds = [p.read_text() for p in TRACES] + ['x = Add(1, -2)\ny = ((1, "a\\"b"), T(true, false), U) -- c\n']
    for _ in range(3000):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            cut = rng.randrange(3)
            text = text[:at] + rng.choice(ALPHABET) * (cut != 1) + text[at + cut:]
        assert outcome(parse_trace, text) == outcome(_parse_trace_tokens, text), text
