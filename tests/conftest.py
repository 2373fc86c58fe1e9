from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus() -> pathlib.Path:
    return CORPUS


def run_cli(*args: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sessioncheck", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def check_source(text: str, **kwargs):
    from sessioncheck import check_file, parse

    return check_file(parse(text), **kwargs)


# An operator token of a refinement, as the parser's operator budget counts them.
OPERATOR = re.compile(r"==|\+|!|\.\d|literal|next")


def nth_operator_col(text: str, n: int) -> int:
    """Column of the ``n``-th operator on line 4, the refinement's line in ``differential.refinement``."""
    return list(OPERATOR.finditer(text.splitlines()[3]))[n - 1].start() + 1
