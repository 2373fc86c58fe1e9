"""Reports pinned byte for byte against files under ``tests/golden/``.

Each run keeps its stdout in ``<name>.stdout``, its stderr in
``<name>.stderr`` and its exit code in ``exit_codes.json``. The runs are
text ``explain`` of the four corpus protocols, text and JSON ``simulate``
of the eight corpus traces, JSON ``check`` of the four corpus protocols,
text ``explain`` of a 60-pair ``deep_path`` protocol, and the error paths:
text, JSON and coloured ``check`` of three files with parse errors between
two corpus protocols (which pins the order of parse and checker
diagnostics), ``explain`` and ``fmt --check`` of one of them,
``simulate`` against a trace that does not parse, and text and JSON
``check`` of the three participant-order (E008) inputs of
``differential.PARTICIPANTS``. The JSON files
pin the writers' bytes apart from the reference builders they are tested
against elsewhere. After an intended change of the output, rewrite the
files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import shutil
import sys

import pytest

from sessioncheck import check_file, cli, parse, reports

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CORPUS = HERE.parent / "corpus"

sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402
from differential import PARTICIPANTS  # noqa: E402

PROTOCOLS = ("tcp", "server", "hoppy", "charlie")

# Inputs with lex and parse errors, each beside a protocol that would pass.
BAD_INPUTS = {
    "tuple1.ssn": "roles A, B\n\nprotocol P [A, B] {\n  msg x : (Int) by A;\n  send x A -> B;\n  end\n}\n\nentry P\n",
    "escape.ssn": (
        "roles A, B\n\nprotocol P [A, B] {\n  msg s : Str by A;\n  send s A -> B;\n"
        '  read s {\n    "a\\q" => end;\n    _ => end\n  } @\n}\n\nentry P\n'
    ),
    "entry2.ssn": "roles A, B\n\nprotocol P [A, B] {\n  msg x : Int by A;\n  send x A -> B;\n  end\n}\n\nentry P\nentry P\n",
    "bad_tuple.trace": "x = (1 2)\n",
}
MIXED = ["tcp.ssn", "tuple1.ssn", "charlie.ssn", "escape.ssn", "entry2.ssn"]
RUNS = {
    **{f"explain_{p}": ["explain", f"{p}.ssn"] for p in PROTOCOLS},
    **{f"check_json_{p}": ["check", "--format", "json", f"{p}.ssn"] for p in PROTOCOLS},
    **{
        f"simulate_{name.removesuffix('.trace')}": ["simulate", proto, "--trace", name]
        for name, (proto, _, _) in workloads.CORPUS_TRACES.items()
    },
    **{
        f"simulate_json_{name.removesuffix('.trace')}": ["simulate", "--format", "json", proto, "--trace", name]
        for name, (proto, _, _) in workloads.CORPUS_TRACES.items()
    },
    "explain_deep": ["explain", "deep.ssn"],
    "check_errors": ["check", *MIXED],
    "check_json_errors": ["check", "--format", "json", *MIXED],
    "check_color_errors": ["check", "--color", "always", *MIXED],
    "explain_escape": ["explain", "escape.ssn"],
    "fmt_check_escape": ["fmt", "--check", "escape.ssn"],
    "simulate_bad_trace": ["simulate", "tcp.ssn", "--trace", "bad_tuple.trace"],
    "check_participants": ["check", *PARTICIPANTS],
    "check_json_participants": ["check", "--format", "json", *PARTICIPANTS],
}


def deep_text() -> str:
    """A 60-pair protocol of the ``deep_path`` workload's shape."""
    text, _, _ = workloads._deep(random.Random("deep_path:1"), 60)
    return text


def write_inputs(directory: pathlib.Path) -> None:
    for path in CORPUS.iterdir():
        if path.suffix in (".ssn", ".trace"):
            shutil.copy(path, directory / path.name)
    (directory / "deep.ssn").write_text(deep_text(), encoding="utf-8")
    for name, text in {**BAD_INPUTS, **PARTICIPANTS}.items():
        (directory / name).write_text(text, encoding="utf-8")


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process ``cli.main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> pathlib.Path:
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(RUNS))
def test_text_report_matches_its_golden_file(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    out, err, code = run(RUNS[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


def test_text_explain_formats_each_item_once(inputs, monkeypatch):
    result = check_file(parse((inputs / "deep.ssn").read_text()), record_steps=True)
    indices = [rec.index_after for rec in result.step_log] + [index for _, index in result.final_indices]
    distinct = {id(item) for index in indices for item in index}
    calls = []
    format_type = reports.format_type

    def counting_format_type(t):
        calls.append(t)
        return format_type(t)

    monkeypatch.setattr(reports, "format_type", counting_format_type)
    monkeypatch.chdir(inputs)
    out, _, code = run(["explain", "deep.ssn"])
    assert code == 0 and out
    assert 0 < len(calls) <= len(distinct)


def main() -> None:
    """Rewrite every golden file from the code on ``sys.path``."""
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in sorted(RUNS.items()):
                out, err, codes[name] = run(argv)
                (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
                (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")
        finally:
            os.chdir(cwd)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
