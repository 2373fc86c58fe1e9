"""Seeded inputs for the three workloads, and the answer each command must give.

Each workload function returns a Plan: the input files to write, one
pass of CLI operations in the order they run, and a ``sized`` function
that rebuilds the workload's protocols and traces at another size for
the growth fit. Every choice is drawn from
``random.Random(f"{workload}:{seed}")``, so one seed always gives the
same bytes.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import gen_checkable_file
from oracle import oracle_check
from sessioncheck.model import INT, Arith, BinderRef, Cmp, IntLit, RefinedType, RoleId, UnwrapDep, VarId, VarRef
from sessioncheck.printer import format_source
from sessioncheck.syntax import (
    Arm,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    ProtocolDecl,
    ReadCase,
    RoleDecl,
    Send,
    SourceFile,
    WildPat,
)

# Returns None when the output is right, else what was wrong with it.
Expect = Callable[[int, str], "str | None"]


@dataclass
class Op:
    kind: str  # check, simulate, explain, fmt, or cold (a fresh `python -m sessioncheck check`)
    argv: list[str]
    expect: Expect
    lines: int = 0  # .ssn lines a check op reads
    bindings: int = 0  # trace bindings a simulate op consumes


@dataclass
class Plan:
    files: dict[str, str]
    ops: list[Op]
    size: int
    # size -> (protocol texts to check, (protocol, trace) texts to simulate)
    sized: Callable[[int], tuple[list[str], list[tuple[str, str]]]]
    notes: dict  # sizes worth printing beside the figures


# ---------------------------------------------------------------------------
# Known answers


def expect_check_json(accepted: bool, codes: list[str] | None = None) -> Expect:
    def check(code: int, out: str) -> str | None:
        errors = [d["code"] for d in json.loads(out) if d["severity"] == "error"]
        if code != (0 if accepted else 1):
            return f"exit {code}"
        if accepted != (not errors):
            return f"error diagnostics {errors}"
        if codes is not None and errors != codes:
            return f"error codes {errors}, expected {codes}"
        return None

    return check


def expect_check_text(accepted: bool, codes: list[str] | None = None) -> Expect:
    def check(code: int, out: str) -> str | None:
        errors = [line.split("error[", 1)[1].split("]", 1)[0] for line in out.splitlines() if ": error[" in line]
        if code != (0 if accepted else 1):
            return f"exit {code}"
        if accepted != (not errors) or (codes is not None and errors != codes):
            return f"error codes {errors}"
        return None

    return check


def expect_explain_json(accepted: bool, finals: list | None) -> Expect:
    """finals: the oracle's (path, [(var, type, knowers)]) per path, where the oracle applies."""

    def check(code: int, out: str) -> str | None:
        if not accepted:
            return None if code == 1 and out == "" else f"exit {code} on a rejected file"
        if code != 0:
            return f"exit {code}"
        doc = json.loads(out)
        if not doc["steps"]:
            return "no steps"
        if finals is not None:
            got = [(p["path"], [(i["var"], tuple(i["knowers"])) for i in p["index"]]) for p in doc["final_indices"]]
            if got != [(path, [(var, knowers) for var, _, knowers in index]) for path, index in finals]:
                return "final indices differ from the oracle"
        return None

    return check


def expect_fmt(code: int, out: str) -> str | None:
    return None if code == 0 and out == "" else f"exit {code}: {out[:80]!r}"


def expect_sim_text(status_line: str, created: int) -> Expect:
    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != (0 if status_line == "status: completed" else 1):
            return f"exit {code}"
        if not lines or lines[-1] != status_line:
            return f"last line {lines[-1:]!r}"
        made = sum(1 for line in lines if line.startswith("created "))
        return None if made == created else f"{made} messages created, expected {created}"

    return check


def expect_sim_json(status: dict, created: int) -> Expect:
    def check(code: int, out: str) -> str | None:
        doc = json.loads(out)
        if code != (0 if status["kind"] == "completed" else 1):
            return f"exit {code}"
        got = {k: doc["status"].get(k) for k in status}
        if got != status:
            return f"status {doc['status']}"
        made = sum(1 for e in doc["events"] if e["kind"] == "msg_created")
        return None if made == created else f"{made} messages created, expected {created}"

    return check


# ---------------------------------------------------------------------------
# deep_path: one long refinement chain over three roles, forked by reads


DEEP_PAIRS = 600
DEEP_ROLES = ("A", "B", "C")


def _deep(rng: random.Random, pairs: int) -> tuple[str, str, int]:
    """Protocol text, a trace taking the long arm of every fork, and the fork count.

    Message m{i} is made by the role that last received m{i-1} and is
    refined to be one more than it, so the trace is m0 + i at step i.
    Before each fork the scrutinee goes to the third role, because a
    `read` needs every participant to know its value.
    """
    roles = [RoleId(r) for r in DEEP_ROLES]
    start = rng.randrange(1_000_000)
    holder = roles[0]
    tail: list = []  # statements of the innermost open block
    blocks: list[list] = [tail]
    next_fork = rng.randint(9, 13)
    forks = 0
    for i in range(pairs):
        var = VarId(f"m{i}")
        if i == 0:
            tail.append(NewMsg(var, INT, holder))
        else:
            prev = VarRef(VarId(f"m{i - 1}"))
            value = prev if i == 1 else UnwrapDep(prev)
            pred = Cmp("==", BinderRef(), Arith("+", value, IntLit(1)))
            tail.append(NewDepMsg(var, RefinedType(INT, ("x",), pred), holder))
        receiver = rng.choice([r for r in roles if r != holder])
        tail.append(Send(var, holder, receiver))
        if i + 1 == next_fork and i + 1 < pairs:
            third = next(r for r in roles if r not in (holder, receiver))
            tail.append(Send(var, receiver, third))
            tail = []
            blocks.append(tail)
            next_fork += rng.randint(9, 13)
            forks += 1
        holder = receiver
    body: tuple = tuple(blocks[-1]) + (End(),)
    for k in range(len(blocks) - 2, -1, -1):
        scrutinee = [s for s in blocks[k] if isinstance(s, Send)][-1].var
        side = Arm(LitPat(IntV(-rng.randint(1, 9))), (End(),))
        body = tuple(blocks[k]) + (ReadCase(scrutinee, (side, Arm(WildPat(), body))),)
    file = SourceFile(
        roles=tuple(RoleDecl(r) for r in DEEP_ROLES),
        protocols=(ProtocolDecl("Deep", (), tuple(roles), body),),
        entry="Deep",
    )
    trace = "".join(f"m{i} = {start + i}\n" for i in range(pairs))
    return format_source(file), trace, forks


def deep_path(seed: int, corpus: Path) -> Plan:
    text, trace, forks = _deep(random.Random(f"deep_path:{seed}"), DEEP_PAIRS)
    lines = text.count("\n")
    ops = [
        Op("check", ["check", "deep.ssn"], expect_check_text(True), lines=lines),
        Op("fmt", ["fmt", "--check", "deep.ssn"], expect_fmt),
        Op("simulate", ["simulate", "deep.ssn", "--trace", "deep.trace"],
           expect_sim_text("status: completed", DEEP_PAIRS), bindings=DEEP_PAIRS),
        Op("cold", ["check", "deep.ssn"], expect_check_text(True)),
    ]

    def sized(n: int):
        t, tr, _ = _deep(random.Random(f"deep_path:{seed}"), n)
        return [t], [(t, tr)]

    return Plan({"deep.ssn": text, "deep.trace": trace}, ops, DEEP_PAIRS, sized,
                {"pairs": DEEP_PAIRS, "forks": forks, "lines": lines})


# ---------------------------------------------------------------------------
# small_files: the corpus plus generated files of the size people write


SMALL_GENERATED = 300

# Corpus answers, as documented in corpus/README.md.
CORPUS_CHECK = {"tcp.ssn": None, "server.ssn": None, "hoppy.ssn": None, "charlie.ssn": ["E004"]}
CORPUS_TRACES = {
    "tcp_good.trace": ("tcp.ssn", "status: completed", 3),
    "tcp_bad_m2.trace": ("tcp.ssn", "status: refinement violated on 'm2'", 2),
    "tcp_bad_m3.trace": ("tcp.ssn", "status: refinement violated on 'm3'", 3),
    "server_quit.trace": ("server.ssn", "status: completed", 1),
    "server_echo.trace": ("server.ssn", "status: completed", 5),
    "server_math.trace": ("server.ssn", "status: completed", 4),
    "hoppy_grant.trace": ("hoppy.ssn", "status: completed", 3),
    "hoppy_deny.trace": ("hoppy.ssn", "status: completed", 2),
}


def _generated(seed: int, count: int) -> list[tuple[str, bool, list]]:
    rng = random.Random(f"small_files:{seed}")
    out = []
    for _ in range(count):
        file = gen_checkable_file(rng)
        accepted, finals = oracle_check(file)
        out.append((format_source(file), accepted, finals))
    return out


def _file_ops(name: str, text: str, accepted: bool, codes: list[str] | None, finals: list | None) -> list[Op]:
    return [
        Op("check", ["check", "--format", "json", name], expect_check_json(accepted, codes), lines=text.count("\n")),
        Op("explain", ["explain", "--format", "json", name], expect_explain_json(accepted, finals)),
        Op("fmt", ["fmt", "--check", name], expect_fmt),
    ]


def _interleave(main: list[list[Op]], extras: list[list[Op]]) -> list[Op]:
    """Flatten ``main`` and spread each list of ``extras`` evenly through it."""
    slots: list[list[Op]] = [list(group) for group in main]
    for extra in extras:
        for k, op in enumerate(extra):
            slots[(2 * k + 1) * len(slots) // (2 * len(extra))].append(op)
    return [op for group in slots for op in group]


def small_files(seed: int, corpus: Path) -> Plan:
    files: dict[str, str] = {}
    per_file: list[list[Op]] = []
    for name, codes in CORPUS_CHECK.items():
        files[name] = (corpus / name).read_text()
        per_file.append(_file_ops(name, files[name], codes is None, codes, None))
    generated = _generated(seed, SMALL_GENERATED)
    for i, (text, accepted, finals) in enumerate(generated):
        name = f"g{i:03d}.ssn"
        files[name] = text
        per_file.append(_file_ops(name, text, accepted, None, finals))
    sims = []
    for name, (proto, status, created) in CORPUS_TRACES.items():
        files[name] = (corpus / name).read_text()
        sims.append(
            Op("simulate", ["simulate", proto, "--trace", name], expect_sim_text(status, created), bindings=created)
        )
    colds = [Op("cold", ["check", name], expect_check_text(codes is None, codes)) for name, codes in CORPUS_CHECK.items()]

    def sized(n: int):
        traces = [(files[proto], files[name]) for name, (proto, _, _) in CORPUS_TRACES.items()]
        return [t for t, _, _ in _generated(seed, n)], traces

    notes = {"protocols": len(per_file), "accepted": sum(1 for _, ok, _ in generated if ok), "traces": len(sims)}
    return Plan(files, _interleave(per_file, [sims, colds]), SMALL_GENERATED, sized, notes)


# ---------------------------------------------------------------------------
# long_trace: corpus/server.ssn against thousands of Math and Echo rounds


LONG_ROUNDS = 2000
LONG_MAX_STEPS = 1_000_000  # the default of 10,000 stops after a few hundred rounds
SMALL_OPS_PER_SIMULATE = 10  # check and fmt of the 37-line file take ~2 ms; repeat them for more runs per pass


def _long(rng: random.Random, rounds: int) -> tuple[list[str], list[int]]:
    """Trace lines, and the line index of every Echo round's reply."""
    lines: list[str] = []
    replies: list[int] = []
    for _ in range(rounds):
        if rng.random() < 0.5:
            a, b = rng.randrange(1000), rng.randrange(1000)
            op, result = rng.choice([("Add", a + b), ("Mul", a * b)])
            lines += ["cmd = Math", f"op = {op}({a}, {b})", f"result = {result}"]
        else:
            request = "".join(rng.choice(string.ascii_letters + string.digits + " ") for _ in range(rng.randint(1, 24)))
            lines += ["cmd = Echo", 'welcome = "Welcome to Echo!"', f'request = "{request}"']
            replies.append(len(lines))
            lines.append(f'reply = "{request}"')
    lines.append("cmd = Quit")
    return lines, replies


def long_trace(seed: int, corpus: Path) -> Plan:
    rng = random.Random(f"long_trace:{seed}")
    server = (corpus / "server.ssn").read_text()
    good, replies = _long(rng, LONG_ROUNDS)
    late = [i for i in replies if i >= len(good) * 0.95]
    broken_at = rng.choice(late)
    bad = good[: broken_at + 1]
    bad[broken_at] = bad[broken_at][:-1] + '?"'
    sim = ["simulate", "server.ssn", "--format", "json", "--max-steps", str(LONG_MAX_STEPS), "--trace"]
    small = [
        Op("check", ["check", "server.ssn"], expect_check_text(True), lines=server.count("\n")),
        Op("fmt", ["fmt", "--check", "server.ssn"], expect_fmt),
    ] * SMALL_OPS_PER_SIMULATE
    cold = Op("cold", ["check", "server.ssn"], expect_check_text(True))
    ops = [
        Op("simulate", sim + ["good.trace"], expect_sim_json({"kind": "completed"}, len(good)), bindings=len(good)),
        *small,
        cold,
        Op("simulate", sim + ["broken.trace"], expect_sim_json({"kind": "refinement_violated", "var": "reply"}, len(bad)),
           bindings=len(bad)),
        *small,
        cold,
    ]

    def sized(n: int):
        lines, _ = _long(random.Random(f"long_trace:{seed}"), n)
        return [server], [(server, "\n".join(lines) + "\n")]

    files = {"server.ssn": server, "good.trace": "\n".join(good) + "\n", "broken.trace": "\n".join(bad) + "\n"}
    return Plan(files, ops, LONG_ROUNDS, sized, {"rounds": LONG_ROUNDS, "bindings": len(good), "broken_at": broken_at + 1})


WORKLOADS = {"deep_path": deep_path, "small_files": small_files, "long_trace": long_trace}
