"""The parse errors around each construct that the parser takes in one step.

The parser reads a well-formed statement, type or operand by checking its
token kinds in place and building the node at once; only a construct that
misses its shape goes through the per-token helpers, which word the error.
This file pins that fallback. Each template below is a file with one such
construct. Every token of the construct is deleted in turn, and replaced in
turn with ``;``, ``)`` and an identifier; a seeded draw adds pairs of such
edits. Each edited file's parse result must equal the one recorded in
``golden/parse_shapes.json``: for a failure, every error's line, column and
message; for a success, a digest of the tree and of every span in it.

Rewrite the table from the code on ``sys.path`` (only when an error is
meant to change) with ``PYTHONPATH=src python tests/test_parse_shapes.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from sessioncheck.lexer import tokenize
from sessioncheck.model import Span
from sessioncheck.parser import ParseFailure, parse

TABLE = pathlib.Path(__file__).resolve().parent / "golden" / "parse_shapes.json"

HEAD = "roles A, B\n\nprotocol P [A, B] {\n  msg m0 : Int by A;\n  send m0 A -> B;\n  "
TAIL = ";\n  end\n}\n\nentry P\n"

# name -> (text before the construct, the construct, text after it)
TEMPLATES = {
    "msg_base": (HEAD, "msg m : Int by A", TAIL),
    "msg_tuple": (HEAD, "msg m : (Int, Str) by A", TAIL),
    "dep_no_label": (HEAD, "dep m : Int where m0 < 5 by B", TAIL),
    "dep_one_label": (HEAD, "dep m : (x : Int) where x == m0! + 1 by B", TAIL),
    "dep_two_labels": (HEAD, "dep m : (x : Int, y : Str) where x < m0 by A", TAIL),
    "send": (HEAD, "send m0 B -> A", TAIL),
    "read_arm": (HEAD + "read m0 {\n    ", '-1 => send m0 B -> A; end;\n    "s" => end', ";\n    _ => end\n  }\n}\n\nentry P\n"),
}
EDITS = ("", ";", ")", "z")  # the empty edit deletes the token
PAIRS = 12  # seeded two-token edits per template


def _name(index: int, edit: str) -> str:
    return f"#{index} {repr(edit) if edit else 'deleted'}"


def cases(name: str) -> dict[str, str]:
    """Each edited text of template ``name``, by the edits that made it."""
    before, shape, after = TEMPLATES[name]
    _, texts, offsets, _, _ = tokenize(shape)
    tokens = list(zip(offsets, texts))[:-1]  # not the end

    def edited(changes: list[tuple[int, str]]) -> str:
        text = shape
        for index, edit in sorted(changes, reverse=True):  # right to left, so offsets hold
            offset, token = tokens[index]
            text = text[:offset] + edit + text[offset + len(token):]
        return before + text + after

    out = {_name(i, edit): edited([(i, edit)]) for i in range(len(tokens)) for edit in EDITS}
    rng = random.Random(f"parse_shapes:{name}")
    for _ in range(PAIRS):
        changes = [(i, rng.choice(EDITS)) for i in sorted(rng.sample(range(len(tokens)), 2))]
        out[" + ".join(_name(*c) for c in changes)] = edited(changes)
    return out


def _spans(node, out: list) -> list:
    if isinstance(node, Span):
        out.append((node.offset, node.length))
    elif isinstance(node, tuple):
        for item in node:
            _spans(item, out)
    elif hasattr(type(node), "_shown"):  # a record
        for field in type(node).__slots__:
            _spans(getattr(node, field), out)
    return out


def result(text: str):
    """Every parse error as [line, col, message], or a digest of the tree and its spans."""
    try:
        file = parse(text)
    except ParseFailure as failure:
        return [[e.span.line, e.span.col, e.message] for e in failure.errors]
    return "ok " + hashlib.sha256(repr((file, _spans(file, []))).encode()).hexdigest()[:16]


def table() -> dict[str, dict]:
    return {name: {case: result(text) for case, text in cases(name).items()} for name in TEMPLATES}


@pytest.fixture(scope="module")
def expected() -> dict[str, dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TEMPLATES)
def test_each_edit_gives_the_recorded_errors(name, expected):
    got = {case: result(text) for case, text in cases(name).items()}
    assert got.keys() == expected[name].keys()
    wrong = {case: (got[case], expected[name][case]) for case in got if got[case] != expected[name][case]}
    assert not wrong


def test_each_template_parses_and_most_edits_fail(expected):
    for name, results in expected.items():
        before, shape, after = TEMPLATES[name]
        assert isinstance(result(before + shape + after), str)
        assert sum(isinstance(r, list) for r in results.values()) > len(results) // 2


if __name__ == "__main__":
    # One line per case.
    TABLE.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(f" {json.dumps(case)}: {json.dumps(r)}" for case, r in sorted(results.items())) + "\n}"
            for name, results in table().items()
        ) + "\n}\n",
        encoding="utf-8",
    )
