"""Every command ends without cyclic garbage.

The data of a run is acyclic by construction: immutable ASTs, frozen
index snapshots and event lists. With the collector off, each CLI run
must leave nothing for ``gc.collect()`` to find, so that running a
command with the collector switched off cannot grow memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import shutil
import sys

import pytest

from conftest import CORPUS
from gen import gen_checkable_file, gen_printable_file
from sessioncheck import cli
from sessioncheck.printer import format_source

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import workloads  # noqa: E402

COMMANDS = {
    "check": ["check"],
    "check_json": ["check", "--format", "json"],
    "explain": ["explain"],
    "explain_json": ["explain", "--format", "json"],
    "fmt_check": ["fmt", "--check"],
}
SIMULATE = {"simulate": [], "simulate_json": ["--format", "json"]}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Protocol files and (protocol, trace) pairs in one directory."""
    d = tmp_path_factory.mktemp("cycle_inputs")
    for path in CORPUS.iterdir():
        if path.suffix in (".ssn", ".trace"):
            shutil.copy(path, d / path.name)
    for seed in range(8):
        (d / f"chk{seed}.ssn").write_text(format_source(gen_checkable_file(random.Random(seed))))
        (d / f"prn{seed}.ssn").write_text(format_source(gen_printable_file(random.Random(seed))))
    deep, deep_trace, _ = workloads._deep(random.Random("deep_path:1"), 30)
    (d / "deep.ssn").write_text(deep)
    (d / "deep.trace").write_text(deep_trace)
    long_lines, _ = workloads._long(random.Random("long_trace:1"), 40)
    (d / "long.trace").write_text("\n".join(long_lines) + "\n")
    (d / "cut.ssn").write_text((CORPUS / "server.ssn").read_text()[:300])  # a parse error
    protocols = sorted(p.name for p in d.glob("*.ssn"))
    pairs = [(proto, name) for name, (proto, _, _) in workloads.CORPUS_TRACES.items()]
    pairs += [("deep.ssn", "deep.trace"), ("server.ssn", "long.trace")]
    return d, protocols, pairs


def _argvs(name: str, protocols, pairs) -> list[list[str]]:
    if name in COMMANDS:
        return [COMMANDS[name] + [p] for p in protocols]
    return [["simulate", p, "--trace", t, *SIMULATE[name]] for p, t in pairs]


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


@pytest.mark.parametrize("name", [*COMMANDS, *SIMULATE])
def test_command_leaves_no_cyclic_garbage(name, inputs, monkeypatch):
    directory, protocols, pairs = inputs
    monkeypatch.chdir(directory)
    argvs = _argvs(name, protocols, pairs)
    _run(argvs[0])  # warm up: lazy imports and the argument parser
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            _run(argv)
            assert gc.collect() == 0, argv
    finally:
        if was_enabled:
            gc.enable()
