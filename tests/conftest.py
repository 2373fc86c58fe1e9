from __future__ import annotations

import pathlib
import re
import subprocess
import sys
from typing import NamedTuple

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


def fresh_python(code: str, *argv: str) -> str:
    """The stdout of ``python -c code argv...`` in a fresh interpreter, which must exit 0."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, check=True).stdout


class Tok(NamedTuple):
    """One token of ``tokenize``'s parallel lists, with its line and column."""

    kind: str
    text: str
    line: int
    col: int
    offset: int


def lexed(text: str) -> tuple[list[Tok], list]:
    """The tokens of ``text``, one ``Tok`` each, and its lex errors."""
    from sessioncheck.lexer import tokenize
    from sessioncheck.model import position

    kinds, texts, offsets, errors, starts = tokenize(text)
    tokens = [Tok(k, t, *position(starts, o), o) for k, t, o in zip(kinds, texts, offsets)]
    return tokens, errors


def check_source(text: str, **kwargs):
    from sessioncheck import check_file, parse

    return check_file(parse(text), **kwargs)


# An operator token of a refinement, as the parser's operator budget counts them.
OPERATOR = re.compile(r"==|\+|!|\.\d|literal|next")


def nth_operator_col(text: str, n: int) -> int:
    """Column of the ``n``-th operator on line 4, the refinement's line in ``differential.refinement``."""
    return list(OPERATOR.finditer(text.splitlines()[3]))[n - 1].start() + 1
