"""Every command ends without cyclic garbage.

The data of a run is acyclic by construction: immutable ASTs, frozen
index snapshots and event lists. ``cli.main`` therefore runs each command
with the cyclic collector off. This test is what keeps that from growing
memory: each CLI run, error exits included, must leave nothing for
``gc.collect()`` to find. The runs below are read by ``cli._plain_args``,
except those of ``ARGPARSE``, which only argparse reads. An argument error
is the one exception, because argparse leaves a few cyclic objects behind;
there the collector must be back on once ``main`` returns.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
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
# server.ssn over many `call ... then rec` rounds, each of which reuses what
# the round before built (`simulator._run` keeps that per run)
LOOPING = {
    "simulate_loop": ["simulate", "server.ssn", "--trace", "long.trace", "--format", "text"],
    "simulate_loop_json": ["simulate", "server.ssn", "--trace", "long.trace", "--format", "json"],
}
# argument lists that argparse reads and takes
ARGPARSE = {"argparse": [["check", "--form", "json", "tcp.ssn"], ["check", "--format=json", "tcp.ssn"]]}
# error exits: the exit code each run must give, and its argument lists
ERRORS = {
    "missing_file": (2, [["check", "missing.ssn"], ["explain", "missing.ssn"], ["fmt", "missing.ssn"],
                         ["simulate", "missing.ssn", "--trace", "tcp_good.trace"]]),
    "missing_trace": (2, [["simulate", "tcp.ssn", "--trace", "missing.trace"]]),
    "trace_parse_error": (2, [["simulate", "tcp.ssn", "--trace", "cut.trace"]]),
    "simulate_parse_error": (2, [["simulate", "cut.ssn", "--trace", "tcp_good.trace"]]),
    "max_steps": (1, [["simulate", "server.ssn", "--trace", "long.trace", "--max-steps", "3"]]),
    "fmt_read_only": (2, [["fmt", "read_only.ssn"]]),
}


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
    (d / "cut.trace").write_text("m1 = (SYN,")
    (d / "read_only.ssn").write_text("roles  A\nprotocol P [A] {  end  }")  # fmt would change it
    os.chmod(d / "read_only.ssn", 0o444)
    return d, protocols, pairs


def _argvs(name: str, protocols, pairs) -> list[list[str]]:
    if name in COMMANDS:
        return [COMMANDS[name] + [p] for p in protocols]
    if name in ERRORS:
        return ERRORS[name][1]
    if name in LOOPING:
        return [LOOPING[name]]
    if name in ARGPARSE:
        return ARGPARSE[name]
    return [["simulate", p, "--trace", t, *SIMULATE[name]] for p, t in pairs]


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", [*COMMANDS, *SIMULATE, *LOOPING, *ARGPARSE, *ERRORS])
def test_command_leaves_no_cyclic_garbage(name, inputs, monkeypatch):
    directory, protocols, pairs = inputs
    monkeypatch.chdir(directory)
    if name == "fmt_read_only":
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)  # as for a non-root user on this 0444 file
    argvs = _argvs(name, protocols, pairs)
    _run(argvs[0])  # warm up: lazy imports, and the argument parser if argparse reads the argv
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            code = _run(argv)
            assert gc.collect() == 0, argv
            if name in ERRORS:
                assert code == ERRORS[name][0], argv
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "argv",
    [["check", "--nope", "tcp.ssn"], ["simulate", "tcp.ssn", "--trace", "tcp_good.trace", "--max-steps", "-1"]],
    ids=["unknown_option", "negative_max_steps"],
)
def test_an_argument_error_hands_its_garbage_back_to_the_collector(argv, inputs, monkeypatch):
    monkeypatch.chdir(inputs[0])
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        with pytest.raises(SystemExit):
            _run(argv)
        assert gc.isenabled()
    finally:
        if not was_enabled:
            gc.disable()
