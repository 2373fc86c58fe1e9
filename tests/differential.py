"""Fingerprints of every CLI run on a fixed set of inputs, for comparing two checkouts.

It writes the inputs to a temporary directory: the corpus, 100
``tests/gen.py`` files at a fixed seed, each corpus file cut after every
line, the seed-1 inputs of the three benchmark workloads (from
``perfbench/workloads.py``), each shape of ``tests/shapes.py`` at
``SHAPE_SIZE`` (or at its ``shapes.CAPPED_SIZES``) with its trace,
files with lex, parse, nesting, long-literal, non-UTF-8 and
operator-budget errors, the three forms of a participant-order error
(E008), traces at each point
where the direct trace reader gives up and a CRLF trace, CRLF and
tab-indented copies of ``corpus/server.ssn`` (run against the corpus's
server traces too), and long operator chains, flat and in parentheses,
near the budget. Besides the argument lists that ``cli._plain_args``
reads, it runs those of ``ARGUMENTS``: help, abbreviations, ``--opt=value``
forms and usage errors, which argparse reads. It then runs every
command in every format on them in-process through ``cli.main``, with
``fmt`` on copies, each followed by ``fmt --check`` of the rewritten copy
(exit 2 if it no longer parses), and prints one line per run: the argv,
the exit code, and the sha256 of stdout, of stderr and of each file the run
rewrote. JSON ``explain`` of the ``deep_path`` protocol (72 MB) is skipped.

The ``sessioncheck`` on ``PYTHONPATH`` is the one measured, so two
checkouts are compared by running this one script against each::

    PYTHONPATH=src python tests/differential.py > after.txt
    PYTHONPATH=../other/src python tests/differential.py > before.txt
    diff before.txt after.txt

pytest does not collect this file; ``tests/test_cli.py`` runs it on the
corpus alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import shapes  # noqa: E402
import workloads  # noqa: E402
from gen import gen_checkable_file, gen_printable_file  # noqa: E402

from sessioncheck import cli  # noqa: E402
from sessioncheck.printer import format_source  # noqa: E402

GENERATED = 100
SHAPE_SIZE = 300
SKIPPED = {("explain", "--format", "json", "deep_path/deep.ssn")}


REFINED = "roles A, B\n\nprotocol P [A, B] {\n  dep n : (v : Int) where v == %s by A;\n  send n A -> B;\n  end\n}\n\nentry P\n"


def refinement(operators: int) -> tuple[str, str]:
    """A protocol whose one refinement has ``operators`` operators, nested
    in groups of 100 terms, and a trace that satisfies it."""
    expr, terms = "1", 1
    left = operators - 1  # the '==' is one
    while left:
        step = min(left, 99)
        expr, terms, left = "(" + " + ".join([expr] + ["1"] * step) + ")", terms + step, left - step
    return REFINED % expr, f"n = {terms}\n"


def chain(terms: int, grouped: int = 0) -> tuple[str, str]:
    """A protocol whose refinement sums ``terms`` ones, the first ``grouped``
    of them in parentheses (which ``fmt`` drops), and a trace that
    satisfies it."""
    ones = ["1"] * terms
    if grouped:
        ones[:grouped] = ["(" + " + ".join(ones[:grouped]) + ")"]
    return REFINED % " + ".join(ones), f"n = {terms}\n"


ROLES = "roles A, B\n\nprotocol P [A, B] {\n  msg x : Int by A;\n  send x A -> B;\n  %s\n}\n\nentry P\n"
ERRORS = {
    "lex.ssn": ROLES % "end @ $",
    "parse.ssn": ROLES % "send x A B;\n  end",
    "nesting.ssn": ROLES.replace("Int", "(" * 150 + "Int" + ")" * 150) % "end",
    "literal.ssn": ROLES % ("read x { " + "9" * 5000 + " => end; _ => end }"),
    "bad.trace": "x = (1 2)\n",
    "literal.trace": "x = " + "9" * 5000 + "\n",
    # where the direct trace reader gives up, past the two above
    "trailing.trace": "x = 1 )\n",
    "keyword_var.trace": "end = 1\n",
    "keyword_value.trace": "x = rec\n",
    "keyword_tag.trace": "x = true(1)\n",
    "escape.trace": 'x = "a\\q"\n',
    "unterminated.trace": 'x = "abc\ny = 1\n',
    "one_tuple.trace": "x = (1)\n",
    "nesting.trace": "x = " + "T(" * 100 + "1" + ")" * 100 + "\n",
    # a sign, a comment and '=' next to other tokens
    "sign.trace": "x = - -- c\n5",
    "comment_tail.trace": "x = -- 5\n",
    "double_eq.trace": "x == 1\n",
    "eq_minus.trace": "x =- 1\n",
}
# E008: a callee's participants out of order, a protocol argument whose
# participants differ from its parameter's, and the same argument beside a
# knowledge error (E003) in the parametric body, which the refused
# instantiation leaves to be checked as declared.
PARTICIPANTS = {
    "order.ssn": "roles A, B\nprotocol Sub [B, A] { end }\nprotocol P [A, B] { call Sub }\nentry P\n",
    "argument.ssn": "roles A, B\nprotocol Q [B, A] { end }\nprotocol R<X : protocol[A, B]> [A, B] { call X }\n"
    "protocol P [A, B] { call R(Q) }\nentry P\n",
    "instance.ssn": "roles A, B\nprotocol Q [B, A] { end }\n"
    "protocol R<X : protocol[A, B]> [A, B] { msg m : Int by A; send m B -> A; call X }\n"
    "protocol P [A, B] { call R(Q) }\nentry P\n",
}

TRACE = ["--trace", "tcp_good.trace"]
ARGUMENTS = [
    ["-h"], ["check", "-h"], ["simulate", "-h"], ["explain", "-h"], ["fmt", "-h"],
    ["check", "--form", "json", "tcp.ssn"], ["check", "--format=json", "tcp.ssn"],
    ["check", "--col", "always", "charlie.ssn"], ["check", "--color=always", "charlie.ssn"],
    ["explain", "--form=json", "tcp.ssn"], ["simulate", "tcp.ssn", "--tr", "tcp_good.trace"],
    ["simulate", "tcp.ssn", "--trace=tcp_good.trace", "--max", "3"], ["simulate", "tcp.ssn", *TRACE, "--rep", "json"],
    ["fmt", "--che", "tcp.ssn"], ["fmt", "--c", "tcp.ssn"],
    ["check", "tcp.ssn", "--format", "json", "charlie.ssn"], ["explain", "tcp.ssn", "charlie.ssn"],
    ["check", "--format", "xml", "tcp.ssn"], ["frobnicate", "tcp.ssn"], ["check", "--nope", "tcp.ssn"],
    ["check"], ["simulate", "tcp.ssn"],
    ["simulate", "tcp.ssn", *TRACE, "--max-steps", "-1"], ["simulate", "tcp.ssn", *TRACE, "--max-steps", "\u0663"],
    ["simulate", "tcp.ssn", *TRACE, "--max-steps", "5_000"], ["simulate", "tcp.ssn", *TRACE, "--max-steps", "\u00b2"],
    ["simulate", "tcp.ssn", *TRACE, "--report", "json"],
    ["check", "--format", "json", "--format", "text", "charlie.ssn"],
    ["simulate", "tcp.ssn", "--trace", "missing.trace", *TRACE, "--format", "json", "--report", "text"],
    ["fmt", "--check", "--check", "tcp.ssn"],
    ["check", "--", "tcp.ssn"], ["simulate", *TRACE, "--", "tcp.ssn"], ["check", "-"],
]


def write_inputs(root: Path, full: bool = True) -> list[list[str]]:
    """Write the inputs under ``root`` and return the argv of every run, in order."""
    protocols: list[str] = []
    runs: list[list[str]] = []

    def put(name: str, data: str | bytes) -> str:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        if name.endswith(".ssn"):
            protocols.append(name)
        return name

    def simulate(protocol: str, trace: str) -> None:
        runs.extend([["simulate", protocol, "--trace", trace], ["simulate", "--format", "json", protocol, "--trace", trace]])

    corpus = sorted(p for p in CORPUS.iterdir() if p.suffix in (".ssn", ".trace"))
    for path in corpus:
        put(path.name, path.read_bytes())
        if path.suffix == ".trace":
            simulate(workloads.CORPUS_TRACES[path.name][0], path.name)
    if full:
        rng = random.Random("differential:1")
        for i in range(GENERATED):
            make = gen_checkable_file if i % 2 == 0 else gen_printable_file
            put(f"gen/g{i:03d}.ssn", format_source(make(rng)))
        for path in corpus:
            lines = path.read_bytes().splitlines(keepends=True)
            for k in range(len(lines)):
                name = put(f"cut/{path.stem}_{k:02d}{path.suffix}", b"".join(lines[:k]))
                if path.suffix == ".trace":
                    simulate(workloads.CORPUS_TRACES[path.name][0], name)
        for workload, make_plan in sorted(workloads.WORKLOADS.items()):
            plan = make_plan(1, CORPUS)
            for name in sorted(plan.files):
                put(f"{workload}/{name}", plan.files[name])
            for op in plan.ops:
                if op.kind == "simulate":  # as the benchmark runs it, then at the default step limit
                    argv = [f"{workload}/{a}" if a.endswith((".ssn", ".trace")) else a for a in op.argv]
                    runs.append(argv)
                    simulate(*(a for a in argv if a.endswith((".ssn", ".trace"))))
        for name, make in shapes.SHAPES.items():
            for n in shapes.CAPPED_SIZES.get(name, (SHAPE_SIZE,)):
                text, trace = make(n)
                simulate(put(f"shapes/{name}_{n}.ssn", text), put(f"shapes/{name}_{n}.trace", trace))
        for name, text in ERRORS.items():
            put(f"errors/{name}", text)
        for name, text in PARTICIPANTS.items():
            put(f"participants/{name}", text)
        put("errors/utf8.ssn", b"roles A\n\xff\xfe\n")
        put("errors/utf8.trace", b"x = \xff\n")
        put("errors/crlf.trace", (CORPUS / "tcp_good.trace").read_bytes().replace(b"\n", b"\r\n"))
        for trace in sorted(name for name in ERRORS if name.endswith(".trace")) + ["utf8.trace", "crlf.trace"]:
            simulate("tcp.ssn", f"errors/{trace}")
        # Lines and columns after other line ends and indents.
        server = (CORPUS / "server.ssn").read_bytes()
        tabbed = re.sub(rb"(?m)^(?:  )+", lambda m: b"\t" * (len(m[0]) // 2), server)
        for name, text in (("crlf", server.replace(b"\n", b"\r\n")), ("tabs", tabbed)):
            protocol = put(f"layout/server_{name}.ssn", text)
            for trace, (target, *_) in sorted(workloads.CORPUS_TRACES.items()):
                if target == "server.ssn":
                    simulate(protocol, trace)
        for name, operators in (("budget", 500), ("past", 501), ("deep", 991)):
            text, trace = refinement(operators)
            simulate(put(f"errors/{name}.ssn", text), put(f"errors/{name}.trace", trace))
        for name, terms, grouped in (("c102", 102, 0), ("c120", 120, 60), ("c200", 200, 200), ("c500", 500, 0), ("c501", 501, 0)):
            text, trace = chain(terms, grouped)
            simulate(put(f"chains/{name}.ssn", text), put(f"chains/{name}.trace", trace))
        put("-", (CORPUS / "tcp.ssn").read_bytes())  # a file named like standard input
        runs += ARGUMENTS

    for name in protocols:
        copy = f"fmt/{name}"
        (root / copy).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(root / name, root / copy)
        runs += [["check", name], ["check", "--format", "json", name], ["check", "--color", "always", name]]
        runs += [["explain", name], ["explain", "--format", "json", name], ["fmt", "--check", name], ["fmt", copy]]
        runs.append(["fmt", "--check", copy])
    return [argv for argv in runs if tuple(argv) not in SKIPPED]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def fingerprint(argv: list[str]) -> str:
    """One run's line: argv, exit code (or the exception it raised), and hashes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a crash is a result to compare, not a reason to stop
            code = f"raised {type(exc).__name__}"
    hashes = [_sha(out.getvalue()), _sha(err.getvalue())]
    if argv[0] == "fmt" and "--check" not in argv and Path(argv[-1]).is_file():  # not for `fmt -h`
        hashes.append(_sha(Path(argv[-1]).read_bytes()))
    return "\t".join([" ".join(argv), code, *hashes])


def lines(full: bool = True) -> list[str]:
    """Every run's line, on freshly written inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = write_inputs(Path(tmp), full)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            return [fingerprint(argv) for argv in runs]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for line in lines():
        print(line)
