"""The benchmark harness still runs against this tree.

Builds each workload of ``perfbench/`` at one seed and runs every
in-process operation through ``cli.main``, checking each answer the way
``perfbench/run.py`` does. A change that breaks an answer check, an
import or a hook name the harness relies on fails here first.
"""

from __future__ import annotations

import sys

import pytest

from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from sessioncheck import cli  # noqa: E402

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
