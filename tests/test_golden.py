"""Text reports pinned byte for byte against files under ``tests/golden/``.

Each run keeps its stdout in ``<name>.stdout``, its stderr in
``<name>.stderr`` and its exit code in ``exit_codes.json``. The runs are
text ``explain`` of the four corpus protocols, text ``simulate`` of the
eight corpus traces, and text ``explain`` of a 60-pair ``deep_path``
protocol. After an intended change of the text output, rewrite the files
with ``PYTHONPATH=src python tests/test_golden.py``.
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

from sessioncheck import check_file, cli, parse

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CORPUS = HERE.parent / "corpus"

sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

RUNS = {
    **{f"explain_{p}": ["explain", f"{p}.ssn"] for p in ("tcp", "server", "hoppy", "charlie")},
    **{
        f"simulate_{name.removesuffix('.trace')}": ["simulate", proto, "--trace", name]
        for name, (proto, _, _) in workloads.CORPUS_TRACES.items()
    },
    "explain_deep": ["explain", "deep.ssn"],
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
    format_type = cli.format_type

    def counting_format_type(t):
        calls.append(t)
        return format_type(t)

    monkeypatch.setattr(cli, "format_type", counting_format_type)
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
