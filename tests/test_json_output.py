"""The `--format json` writers: byte identity with the stdlib's
``json.dumps(doc, indent=2)`` of each report's reference dict, streaming,
and every JSON command."""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import gen_checkable_file
from sessioncheck import check_file, parse
from sessioncheck.cli import _explain_json, _parse_error_json, main
from sessioncheck.diagnostics import CODES, ERROR, WARNING, Diagnostic
from sessioncheck.jsonout import write_diagnostics, write_explain, write_report
from sessioncheck.model import KnowledgeIndex, KnowledgeItem, RoleId, Span, VarId
from sessioncheck.parser import ParseError, ParseFailure, parse_trace
from sessioncheck.simulator import (
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
    run_trace,
)
from sessioncheck.syntax import BoolV, ConV, IntV, StrV, TupleV


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def written(write, *args) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        write(*args)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Simulate reports, against RunReport.to_json()

strings = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\t\n\r\b\f", "é", "😀 \U0010ffff", "\ud800", "a\udfffb", ""]
)
BIG = 10**4299  # 4,300 digits, the parser's and int.__repr__'s limit
ints = st.integers() | st.sampled_from([BIG, -BIG, -1, 0])
values = st.recursive(
    st.builds(IntV, ints) | st.builds(BoolV, st.booleans()) | st.builds(StrV, strings),
    lambda inner: st.builds(lambda xs: TupleV(tuple(xs)), st.lists(inner, max_size=3))
    | st.builds(ConV, strings, st.none() | inner),
    max_leaves=8,
)
spans = st.builds(Span, st.integers(1, 10**6), st.integers(1, 10**6))
ROLES = [RoleId(n) for n in ("Alice", "Bob", "Charlie", "D_1")]
# Types of every kind the printer renders: base, tuple, named and refined.
TYPED = r"""roles A, B
type T = X | Y(Int)
protocol P [A, B] {
  msg a : Int by A;
  msg b : (T, Str, Bool) by A;
  dep c : (n : Int, s : Str) where n == a + 1 and s == "q\"" by A;
  msg d : T by A;
  end
}
"""
TYPES = [item.type for _, index in check_file(parse(TYPED), record_steps=True).final_indices for item in index]


@st.composite
def items(draw) -> list[KnowledgeItem]:
    # a repeated name stands for one message whose knowers grew between sends
    names = draw(st.lists(st.sampled_from(["m", "x1", "reply", "y_2", "cmd", "op", "Z"]), max_size=6))
    return [
        KnowledgeItem(VarId(n), draw(st.sampled_from(TYPES)), tuple(draw(st.permutations(ROLES))[: draw(st.integers(1, 4))]))
        for n in names
    ]


@st.composite
def reports(draw) -> RunReport:
    pool = draw(items())  # items that Sent events share, as freeze's snapshots do
    sent = st.builds(
        Sent,
        strings,
        strings,
        strings,
        st.lists(st.sampled_from(pool), unique_by=lambda item: item.var).map(lambda xs: KnowledgeIndex(tuple(xs))) if pool else st.just(KnowledgeIndex()),
    )
    witness = st.lists(st.tuples(st.sampled_from(["a", "b", "é\"", "c"]) | strings, values), max_size=4)
    event = st.one_of(
        sent,
        st.builds(MsgCreated, strings, values, strings),
        st.builds(RefinementChecked, strings, strings, st.booleans(), witness.map(tuple)),
        st.builds(CaseTaken, strings, strings),
        st.builds(Recursed, strings),
        st.builds(Called, strings),
        st.builds(Ended, strings),
    )
    status = st.one_of(
        st.just(Completed()),
        st.builds(RefinementViolated, strings, st.none() | spans),
        st.builds(TraceExhausted, st.none() | strings, strings),
        st.builds(TraceMismatch, strings, strings, st.none() | values, strings),
    )
    return RunReport(draw(st.lists(event, max_size=8)), draw(status))


A, B = ROLES[:2]
SHARED = KnowledgeItem(VarId("m"), TYPES[1], (A, B))
EVERY_KIND = [
    MsgCreated("m", TupleV((ConV("Add", TupleV((IntV(BIG), BoolV(False)))), ConV("Quit"), TupleV(()))), "Alice"),
    RefinementChecked("n", "n == m!.2 + 1", True, (("m", IntV(1)), ("k", StrV("\ud800")), ("m", BoolV(True)))),
    Sent("m", "Alice", "Bob", KnowledgeIndex((SHARED,))),
    Sent("m", "Bob", "Alice", KnowledgeIndex()),
    Sent("m", "Bob", "Alice", KnowledgeIndex((KnowledgeItem(VarId("m"), TYPES[1], (A,)),))),
    Sent("k", "Alice", "Bob", KnowledgeIndex((SHARED, KnowledgeItem(VarId("k"), TYPES[2], (B,))))),
    CaseTaken("cmd", "Math"),
    Called("DoMath"),
    Recursed("Server"),
    Ended("Server"),
]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(reports())
@example(RunReport([], Completed()))
@example(RunReport(EVERY_KIND, TraceMismatch("reply", "Str", None, "")))
@example(RunReport(EVERY_KIND, TraceMismatch("op", "MathsCMD", ConV("Add", TupleV((IntV(-BIG), StrV('"\\')))), "bad")))
@example(RunReport(EVERY_KIND, TraceExhausted(None, "step limit of 0 exceeded")))
@example(RunReport(EVERY_KIND, RefinementViolated("reply", Span(3, 7))))
@example(RunReport(EVERY_KIND, RefinementViolated("reply")))
def test_report_writer_is_the_stdlib_rendering(report):
    assert written(write_report, report) == stdlib(report.to_json())


# ---------------------------------------------------------------------------
# explain, against _explain_json(result), and diagnostics, against their records


def test_explain_writer_is_the_stdlib_rendering():
    rng = random.Random(6)
    for _ in range(150):
        result = check_file(gen_checkable_file(rng), record_steps=True)
        assert written(write_explain, result) == stdlib(_explain_json(result))


diagnostics = st.builds(
    lambda code, severity, span, message, related: Diagnostic(code, severity, span, message, related).to_json("f.ssn"),
    st.sampled_from(sorted(CODES)),
    st.sampled_from([ERROR, WARNING]),
    st.builds(Span, st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 99)),
    strings,
    st.none() | spans,
)
parse_errors = st.builds(
    lambda file, line, col, message: _parse_error_json(file, ParseError(line, col, message)),
    strings,
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    strings,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(diagnostics | parse_errors, max_size=6))
@example([])
def test_diagnostics_writer_is_the_stdlib_rendering(records):
    assert written(write_diagnostics, records) == stdlib(records)


def test_writer_streams_list_elements_at_depth_0_and_1():
    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes: list[int] = []

        def write(self, s):
            self.sizes.append(len(s))
            return super().write(s)

    index = KnowledgeIndex(tuple(KnowledgeItem(VarId(f"m{i}"), TYPES[0], (A, B)) for i in range(20)))
    report = RunReport([Sent("m0", "Alice", "Bob", index)] * 50, Completed())
    records = [Diagnostic("E003", ERROR, Span(i + 1, 1), "sender does not know m").to_json("f.ssn") for i in range(50)]
    for write, obj, reference in ((write_report, report, report.to_json()), (write_diagnostics, records, records)):
        out = Recorder()
        with redirect_stdout(out):
            write(obj)
        assert out.getvalue() == stdlib(reference)
        # one write per event or diagnostic, so no write holds more than a small part of the document
        assert len(out.sizes) >= 50
        assert max(out.sizes) < len(out.getvalue()) / 25


# ---------------------------------------------------------------------------
# Every JSON command, against the stdlib rendering of the same objects


def run_main(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_json_is_the_stdlib_rendering(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.ssn"
    bad.write_text("roles A, B\nprotocol P [A, B] {\n  msg m : Int by A;\n  send m A -> C;\n  end\n}\n")
    broken = tmp_path / "broken.ssn"
    broken.write_text('roles A\nprotocol P [A] {\n  msg m : Str by A;\n  read m { "é\\"\\\\" => end; 1.5 => end }\n}\n')
    protocols = sorted(str(p) for p in corpus.glob("*.ssn"))
    runs = [[p] for p in protocols] + [[str(bad)], [str(broken)], protocols + [str(bad), str(broken)]]
    for paths in runs:
        diags: list[dict] = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            try:
                diags.extend(d.to_json(path) for d in check_file(parse(text)).diagnostics)
            except ParseFailure as fail:
                diags.extend(_parse_error_json(path, e) for e in fail.errors)
        _, out = run_main(capsys, "check", "--format", "json", *paths)
        assert out == stdlib(diags), paths
    assert '"code": "parse"' in out and '"code": "E001"' in out


def test_explain_json_is_the_stdlib_rendering(corpus, capsys):
    for path in sorted(corpus.glob("*.ssn")):
        result = check_file(parse(path.read_text()), record_steps=True)
        code, out = run_main(capsys, "explain", "--format", "json", str(path))
        assert out == ("" if result.errors else stdlib(_explain_json(result))), path.name


def test_simulate_json_is_the_stdlib_rendering(corpus, capsys):
    pairs = 0
    for ssn in sorted(corpus.glob("*.ssn")):
        file = parse(ssn.read_text())
        failing = bool(check_file(file).errors)
        for trace in sorted(corpus.glob("*.trace")):
            code, out = run_main(capsys, "simulate", "--format", "json", str(ssn), "--trace", str(trace))
            if failing:
                assert (code, out) == (2, ""), (ssn.name, trace.name)
                continue
            report = run_trace(file, parse_trace(trace.read_text()))
            assert out == stdlib(report.to_json()), (ssn.name, trace.name)
            assert code == (0 if report.completed else 1)
            pairs += 1
    assert pairs == 3 * 8


def server_rounds(rng: random.Random, rounds: int) -> tuple[list[str], list[int]]:
    """Bindings for `corpus/server.ssn`: Math and Echo rounds, then Quit, and
    the line of every Echo reply."""
    lines: list[str] = []
    replies: list[int] = []
    for _ in range(rounds):
        if rng.random() < 0.5:
            a, b = rng.randrange(1000), rng.randrange(1000)
            op, result = rng.choice([("Add", a + b), ("Mul", a * b)])
            lines += ["cmd = Math", f"op = {op}({a}, {b})", f"result = {result}"]
        else:
            request = "".join(rng.choice('ab yz09"\\é') for _ in range(rng.randint(0, 12))).replace("\\", "\\\\").replace('"', '\\"')
            lines += ["cmd = Echo", 'welcome = "Welcome to Echo!"', f'request = "{request}"']
            replies.append(len(lines))
            lines.append(f'reply = "{request}"')
    return lines + ["cmd = Quit"], replies


def test_simulate_json_of_a_long_trace_is_the_stdlib_rendering(corpus, tmp_path, capsys):
    ssn = corpus / "server.ssn"
    file = parse(ssn.read_text())
    good, replies = server_rounds(random.Random(6), 300)
    broken = good[: replies[-3] + 1]
    broken[-1] = broken[-1][:-1] + '?"'
    statuses = set()
    for name, lines, max_steps in (("good", good, "100000"), ("broken", broken, "100000"), ("limited", good, "2000")):
        trace = tmp_path / f"{name}.trace"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run_main(capsys, "simulate", "--format", "json", "--max-steps", max_steps, str(ssn), "--trace", str(trace))
        report = run_trace(file, parse_trace(trace.read_text(encoding="utf-8")), max_steps=int(max_steps))
        assert out == stdlib(report.to_json()), name
        assert code == (0 if report.completed else 1)
        statuses.add(type(report.status).__name__)
    assert statuses == {"Completed", "RefinementViolated", "TraceExhausted"}
