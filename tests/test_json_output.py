"""The streamed `--format json` writer: byte identity with the stdlib's
``json.dumps(obj, indent=2)``, its type contract, and every JSON command."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessioncheck import check_file, parse
from sessioncheck.cli import _explain_json, _parse_error_json, _print_json, main
from sessioncheck.parser import ParseFailure, parse_trace
from sessioncheck.simulator import run_trace


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def written(obj) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        _print_json(obj)
    return buf.getvalue()


def nested(depth: int):
    obj: object = ["leaf", -1, None]
    for i in range(depth):
        obj = {"k": obj, "n": i} if i % 2 else [obj, True, ""]
    return obj


strings = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\t\n\r\b\f", "é 😀", "\ud800"])
ints = st.integers() | st.sampled_from([10**3999, -(10**3999) + 7, -1, 0])
leaves = st.none() | st.booleans() | ints | strings
documents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(strings, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(documents)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example(nested(250))
@example({"events": [{"index_after": [{"knowers": ["A", "B"]}]}] * 3, "status": {"kind": "completed"}})
def test_writer_matches_json_dumps_indent_2(obj):
    assert written(obj) == stdlib(obj)


@pytest.mark.parametrize(
    "obj, what",
    [
        (1.5, "float"),
        ((1, 2), "tuple"),
        ({"a": [0.0]}, "float"),
        ([{"ok": 1}, {1: "x"}], "int"),
        ({("a",): 1}, "tuple"),
    ],
)
def test_writer_rejects_other_types(obj, what):
    with pytest.raises(TypeError, match=what), redirect_stdout(io.StringIO()):
        _print_json(obj)


def test_writer_streams_list_elements_at_depth_0_and_1():
    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes: list[int] = []

        def write(self, s):
            self.sizes.append(len(s))
            return super().write(s)

    event = {"kind": "sent", "index_after": [{"var": f"m{i}", "knowers": ["A", "B"]} for i in range(20)]}
    doc = {"status": {"kind": "completed"}, "events": [event] * 50}
    out = Recorder()
    with redirect_stdout(out):
        _print_json(doc)
    assert out.getvalue() == stdlib(doc)
    # one write per event, so no write holds more than a small part of the document
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
