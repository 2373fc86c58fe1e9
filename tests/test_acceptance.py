"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import string
import time

import jsonschema

from conftest import run_cli
from gen import gen_checkable_file, gen_printable_file
from oracle import comparable_index, oracle_check, overlapping_bruteforce
from test_cli import DIAGNOSTICS_SCHEMA, validate_report
from test_mutation import MINIMAL
from sessioncheck import check_file, format_source, parse, parse_trace
from sessioncheck.model import EMPTY_INDEX, RoleId, overlapping
from sessioncheck.simulator import Completed, RefinementViolated, run_trace
from sessioncheck.syntax import StrV, format_value


def _report(n: int, text: str) -> None:
    print(f"[criterion {n:02d}] PASS - {text}")


def test_criterion_01_corpus_positive(corpus):
    t0 = time.perf_counter()
    for name in ("tcp.ssn", "server.ssn", "hoppy.ssn"):
        result = check_file(parse((corpus / name).read_text()))
        assert result.diagnostics == [], name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"corpus check took {elapsed:.3f}s"
    _report(1, f"tcp/server/hoppy check clean in {elapsed * 1000:.0f} ms")


def test_criterion_02_corpus_negative(corpus):
    text = (corpus / "charlie.ssn").read_text()
    result = check_file(parse(text))
    errors = result.errors
    assert [d.code for d in errors] == ["E004"]
    span = errors[0].span
    covered = text.splitlines()[span.line - 1][span.col - 1 : span.col - 1 + span.length]
    assert covered.startswith("dep m3") and covered.endswith("by Charlie")
    _report(2, "charlie.ssn rejected with exactly one E004 on the dependent-message statement")


def test_criterion_03_rule_mutation():
    expected = {"E002", "E003", "E004", "E005", "E006", "E007", "E008", "E010", "E011"}
    assert set(MINIMAL) == expected
    for code, src in sorted(MINIMAL.items()):
        result = check_file(parse(src))
        assert [d.code for d in result.errors] == [code], code
        mutated = check_file(parse(src), disabled=frozenset({code}))
        assert mutated.errors == [], code
    _report(3, f"{len(MINIMAL)} obligations each detected and each flipped by its mutation build")


def test_criterion_04_knowledge_oracle():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    accepted = 0
    for _ in range(1000):
        file = gen_checkable_file(rng)
        result = check_file(file)
        oracle_ok, oracle_finals = oracle_check(file)
        assert result.ok == oracle_ok
        if oracle_ok:
            accepted += 1
            checker_finals = [(lbl, comparable_index(idx)) for lbl, idx in result.final_indices]
            assert checker_finals == oracle_finals
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"1000 protocols, 100% oracle agreement ({accepted} accepted), {elapsed:.1f}s")


def _snapshot_pairs(step_log):
    """(previous index, record) pairs along each control path."""
    last: dict[str, object] = {}
    for rec in step_log:
        prev = last.get(rec.path)
        if prev is None:
            parent = rec.path
            while "/" in parent and prev is None:
                parent = parent.rsplit("/", 1)[0]
                prev = last.get(parent)
        yield (prev if prev is not None else EMPTY_INDEX), rec
        last[rec.path] = rec.index_after


def test_criterion_05_monotonicity_and_frame():
    rng = random.Random(5_05_05)
    sends = 0
    for _ in range(10_000):
        file = gen_checkable_file(rng)
        result = check_file(file, record_steps=True)
        assert result.step_log
        for prev, rec in _snapshot_pairs(result.step_log):
            assert len(rec.index_after) >= len(prev)
            for item in prev:
                after = rec.index_after.lookup(item.var)
                assert after is not None, "an item vanished along a path"
                assert after.knowers[: len(item.knowers)] == item.knowers, "a knowers set shrank"
            if rec.text.startswith("send "):
                sends += 1
                assert len(rec.index_after) == len(prev), "send created or dropped an item"
                changed = [(a, b) for a, b in zip(prev, rec.index_after) if a != b]
                assert len(changed) <= 1, "send altered more than one item"
                for a, b in changed:
                    assert b.var == a.var and b.type == a.type
                    assert len(b.knowers) == len(a.knowers) + 1
                    assert b.knowers[:-1] == a.knowers
    _report(5, f"10000 protocols, 0 counterexamples (checked {sends} sends)")


def test_criterion_06_simulator_refinement_fidelity(corpus):
    file = parse((corpus / "tcp.ssn").read_text())
    assert check_file(file).ok
    good = "m1 = (SYN, 100)\nm2 = (SYNACK, 101, 200)\nm3 = (ACK, 101, 201)"
    assert isinstance(run_trace(file, parse_trace(good)).status, Completed)
    mutated_m2 = good.replace("(SYNACK, 101, 200)", "(SYNACK, 102, 200)")
    assert run_trace(file, parse_trace(mutated_m2)).status == RefinementViolated("m2")
    mutated_m3 = good.replace("(ACK, 101, 201)", "(ACK, 101, 202)")
    assert run_trace(file, parse_trace(mutated_m3)).status == RefinementViolated("m3")
    _report(6, "TCP trace completes; each mutated sequence number names the right variable")


def test_criterion_07_echo_literal_law(corpus):
    file = parse((corpus / "server.ssn").read_text())
    assert check_file(file).ok
    alphabet = string.ascii_letters + string.digits + ' .!?\'"\\-_'
    rng = random.Random(7_07_07)

    def echo_trace(request: str, reply: str) -> str:
        return "\n".join(
            [
                "cmd = Echo",
                'welcome = "Welcome to Echo!"',
                f"request = {format_value(StrV(request))}",
                f"reply = {format_value(StrV(reply))}",
                "cmd = Quit",
            ]
        )

    for _ in range(100):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        ok = run_trace(file, parse_trace(echo_trace(s, s)))
        assert isinstance(ok.status, Completed), repr(s)
        bad = run_trace(file, parse_trace(echo_trace(s, s + "x")))
        assert bad.status == RefinementViolated("reply"), repr(s)
    wrong_welcome = 'cmd = Echo\nwelcome = "Welcome to Echo!x"\nrequest = "a"\nreply = "a"\ncmd = Quit'
    assert run_trace(file, parse_trace(wrong_welcome)).status == RefinementViolated("welcome")
    _report(7, "100 random echo strings: reply = s completes, reply = s+'x' violates; welcome pinned")


def test_criterion_08_overlapping_bruteforce():
    symbols = [RoleId("A"), RoleId("B"), RoleId("C")]
    lists = [list(p) for n in range(6) for p in itertools.product(symbols, repeat=n)]
    assert len(lists) == 364
    checked = 0
    for sub in lists:
        for sup in lists:
            assert overlapping(sub, sup) == overlapping_bruteforce(sub, sup)
            checked += 1
    _report(8, f"overlapping agrees with exhaustive enumeration on all {checked} pairs")


def test_criterion_09_roundtrip_and_fmt_idempotence(corpus, tmp_path):
    rng = random.Random(9_09_09)
    for _ in range(1000):
        ast = gen_printable_file(rng)
        assert parse(format_source(ast)) == ast
    for name in ("tcp.ssn", "server.ssn", "hoppy.ssn", "charlie.ssn"):
        work = tmp_path / name
        shutil.copy(corpus / name, work)
        run_cli("fmt", str(work))
        once = work.read_text()
        run_cli("fmt", str(work))
        assert work.read_text() == once, name
        assert once == (corpus / name).read_text(), name  # corpus ships canonical
    _report(9, "1000 generated ASTs round-trip; fmt idempotent on the corpus")


def test_criterion_10_cli_contract(corpus, tmp_path):
    # check: exit codes and JSON schema for every corpus file
    for name, expected in (("tcp.ssn", 0), ("server.ssn", 0), ("hoppy.ssn", 0), ("charlie.ssn", 1)):
        path = str(corpus / name)
        assert run_cli("check", path).returncode == expected, name
        as_json = run_cli("check", "--format", "json", path)
        assert as_json.returncode == expected, name
        doc = json.loads(as_json.stdout)
        jsonschema.validate(doc, DIAGNOSTICS_SCHEMA)
        assert bool([d for d in doc if d["severity"] == "error"]) == (expected == 1)
    # simulate: exit codes and report schema for every shipped trace
    runs = [
        ("tcp.ssn", "tcp_good.trace", 0),
        ("tcp.ssn", "tcp_bad_m2.trace", 1),
        ("tcp.ssn", "tcp_bad_m3.trace", 1),
        ("server.ssn", "server_quit.trace", 0),
        ("server.ssn", "server_echo.trace", 0),
        ("server.ssn", "server_math.trace", 0),
        ("hoppy.ssn", "hoppy_grant.trace", 0),
        ("hoppy.ssn", "hoppy_deny.trace", 0),
    ]
    for ssn, tr, expected in runs:
        proc = run_cli(
            "simulate", str(corpus / ssn), "--trace", str(corpus / tr), "--format", "json"
        )
        assert proc.returncode == expected, (ssn, tr)
        validate_report(json.loads(proc.stdout))
    assert run_cli("simulate", str(corpus / "charlie.ssn"), "--trace", str(corpus / "tcp_good.trace")).returncode == 2
    # explain and fmt
    for name in ("tcp.ssn", "server.ssn", "hoppy.ssn"):
        assert run_cli("explain", str(corpus / name)).returncode == 0, name
    assert run_cli("explain", str(corpus / "charlie.ssn")).returncode == 1
    assert run_cli("fmt", "--check", *(str(corpus / n) for n in ("tcp.ssn", "server.ssn", "hoppy.ssn", "charlie.ssn"))).returncode == 0
    assert run_cli("check", str(tmp_path / "absent.ssn")).returncode == 2
    _report(10, "exit codes and JSON schemas verified end to end for every corpus file")
