"""End-to-end CLI contract: exit codes, output formats, fmt behaviour."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import stat
import subprocess
import sys

import jsonschema
import pytest

from conftest import nth_operator_col, run_cli

DIAGNOSTICS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "code": {"type": "string", "pattern": "^(E0[0-9]{2}|parse)$"},
            "severity": {"enum": ["error", "warning"]},
            "file": {"type": "string"},
            "line": {"type": "integer", "minimum": 1},
            "col": {"type": "integer", "minimum": 1},
            "len": {"type": "integer", "minimum": 1},
            "message": {"type": "string"},
            "related": {
                "type": "object",
                "properties": {
                    "line": {"type": "integer"},
                    "col": {"type": "integer"},
                    "len": {"type": "integer"},
                },
                "required": ["line", "col", "len"],
                "additionalProperties": False,
            },
        },
        "required": ["code", "severity", "file", "line", "col", "len", "message"],
        "additionalProperties": False,
    },
}

VALUE_SCHEMA = {
    "$defs": {
        "value": {
            "type": "object",
            "oneOf": [
                {"properties": {"int": {"type": "integer"}}, "required": ["int"], "additionalProperties": False},
                {"properties": {"bool": {"type": "boolean"}}, "required": ["bool"], "additionalProperties": False},
                {"properties": {"str": {"type": "string"}}, "required": ["str"], "additionalProperties": False},
                {
                    "properties": {"tuple": {"type": "array", "items": {"$ref": "#/$defs/value"}}},
                    "required": ["tuple"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "con": {"type": "string"},
                        "arg": {"oneOf": [{"type": "null"}, {"$ref": "#/$defs/value"}]},
                    },
                    "required": ["con", "arg"],
                    "additionalProperties": False,
                },
            ],
        }
    },
    "$ref": "#/$defs/value",
}

INDEX_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "var": {"type": "string"},
            "type": {"type": "string"},
            "knowers": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        },
        "required": ["var", "type", "knowers"],
        "additionalProperties": False,
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "status": {
            "type": "object",
            "properties": {"kind": {"enum": ["completed", "refinement_violated", "trace_exhausted", "trace_mismatch"]}},
            "required": ["kind"],
        },
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "kind": {
                        "enum": [
                            "msg_created",
                            "refinement_checked",
                            "sent",
                            "case_taken",
                            "recursed",
                            "called",
                            "ended",
                        ]
                    }
                },
                "required": ["kind"],
            },
        },
    },
    "required": ["status", "events"],
    "additionalProperties": False,
}


def validate_report(doc):
    jsonschema.validate(doc, REPORT_SCHEMA)
    for event in doc["events"]:
        if event["kind"] == "msg_created":
            jsonschema.validate(event["value"], VALUE_SCHEMA)
        if event["kind"] == "sent":
            jsonschema.validate(event["index_after"], INDEX_SCHEMA)


def test_check_valid_file_exits_zero(corpus):
    proc = run_cli("check", str(corpus / "tcp.ssn"))
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_check_charlie_exits_one_with_e004(corpus):
    proc = run_cli("check", str(corpus / "charlie.ssn"))
    assert proc.returncode == 1
    assert "error[E004]" in proc.stdout
    assert proc.stdout.count("error[") == 1


def test_check_missing_file_exits_two(tmp_path):
    proc = run_cli("check", str(tmp_path / "missing.ssn"))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_check_parse_failure_exits_two(tmp_path):
    bad = tmp_path / "bad.ssn"
    bad.write_text("roles A\nprotocol P [A] { msg }")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 2
    assert "error[parse]" in proc.stdout


def test_check_json_schema(corpus, tmp_path):
    proc = run_cli("check", "--format", "json", str(corpus / "charlie.ssn"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, DIAGNOSTICS_SCHEMA)
    assert [d["code"] for d in doc] == ["E004"]
    assert doc[0]["file"].endswith("charlie.ssn")


def test_check_text_format_shape(corpus):
    proc = run_cli("check", str(corpus / "charlie.ssn"), "--color", "never")
    line = proc.stdout.splitlines()[0]
    path, lineno, col, rest = line.split(":", 3)
    assert path.endswith("charlie.ssn") and lineno.isdigit() and col.isdigit()
    assert rest.strip().startswith("error[E004]")


def test_simulate_exit_codes(corpus):
    good = run_cli("simulate", str(corpus / "tcp.ssn"), "--trace", str(corpus / "tcp_good.trace"))
    assert good.returncode == 0
    bad = run_cli("simulate", str(corpus / "tcp.ssn"), "--trace", str(corpus / "tcp_bad_m2.trace"))
    assert bad.returncode == 1
    assert "m2" in bad.stdout


def test_simulate_rejects_failing_check_before_running(corpus):
    proc = run_cli("simulate", str(corpus / "charlie.ssn"), "--trace", str(corpus / "tcp_good.trace"))
    assert proc.returncode == 2
    assert "created" not in proc.stdout  # no execution happened


def test_simulate_json_report(corpus):
    proc = run_cli(
        "simulate",
        str(corpus / "server.ssn"),
        "--trace",
        str(corpus / "server_echo.trace"),
        "--format",
        "json",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    validate_report(doc)
    assert doc["status"] == {"kind": "completed"}
    kinds = [e["kind"] for e in doc["events"]]
    assert "refinement_checked" in kinds and "case_taken" in kinds


def test_simulate_report_flag_alias(corpus):
    proc = run_cli("simulate", str(corpus / "tcp.ssn"), "--trace", str(corpus / "tcp_good.trace"), "--report", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == {"kind": "completed"}


def test_simulate_max_steps(corpus, tmp_path):
    looping = tmp_path / "loop.ssn"
    looping.write_text("roles A\n\nprotocol P [A] {\n  rec\n}\n")
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    proc = run_cli("simulate", str(looping), "--trace", str(trace), "--max-steps", "10")
    assert proc.returncode == 1
    assert "step limit" in proc.stdout


def test_explain_tcp_final_rows(corpus):
    proc = run_cli("explain", str(corpus / "tcp.ssn"))
    assert proc.returncode == 0
    tail = proc.stdout[proc.stdout.index("final indices:") :]
    assert "m1" in tail and "Alice, Bob" in tail
    assert "Bob, Alice" in tail  # m2 knower order preserves insertion


def test_explain_empty_protocol(tmp_path):
    f = tmp_path / "empty.ssn"
    f.write_text("roles A\n\nprotocol P [A] {\n  end\n}\n")
    proc = run_cli("explain", str(f))
    assert proc.returncode == 0
    assert "(no messages)" in proc.stdout


def test_explain_server_shows_arm_branches(corpus):
    proc = run_cli("explain", str(corpus / "server.ssn"))
    assert proc.returncode == 0
    for label in ("Server/Math", "Server/Echo", "Server/Quit"):
        assert label in proc.stdout


def test_explain_failing_file_exits_one(corpus):
    proc = run_cli("explain", str(corpus / "charlie.ssn"))
    assert proc.returncode == 1


def test_fmt_contract(corpus, tmp_path):
    canonical = tmp_path / "c.ssn"
    shutil.copy(corpus / "tcp.ssn", canonical)
    assert run_cli("fmt", str(canonical)).returncode == 0
    assert canonical.read_text() == (corpus / "tcp.ssn").read_text()

    messy = tmp_path / "m.ssn"
    messy.write_text("roles  Alice\nprotocol P [Alice] {  end  }")
    assert run_cli("fmt", "--check", str(messy)).returncode == 1
    assert messy.read_text().startswith("roles  Alice")  # --check never writes

    assert run_cli("fmt", str(messy)).returncode == 0
    first = messy.read_text()
    assert run_cli("fmt", str(messy)).returncode == 0
    assert messy.read_text() == first  # idempotent

    broken = tmp_path / "b.ssn"
    broken.write_text("protocol {")
    assert run_cli("fmt", str(broken)).returncode == 2


def test_color_flags(corpus):
    env = dict(os.environ)
    env.pop("NO_COLOR", None)
    always = run_cli("check", str(corpus / "charlie.ssn"), "--color", "always", env=env)
    assert "\x1b[31m" in always.stdout
    never = run_cli("check", str(corpus / "charlie.ssn"), "--color", "never", env=env)
    assert "\x1b[" not in never.stdout
    env["NO_COLOR"] = "1"
    no_color = run_cli("check", str(corpus / "charlie.ssn"), "--color", "always", env=env)
    assert "\x1b[" not in no_color.stdout


def test_fmt_takes_color_but_not_format(corpus, tmp_path, capsys):
    from sessioncheck import cli

    broken = tmp_path / "b.ssn"
    broken.write_text("protocol {")
    with pytest.raises(SystemExit) as exited:
        cli.main(["fmt", "--format", "json", str(broken)])
    assert exited.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert cli.main(["fmt", "--color", "never", str(broken)]) == 2
    assert capsys.readouterr().err == f"{broken}:1:10: error[parse]: expected a protocol name, found '{{'\n"
    assert cli.main(["fmt", "--check", "--color", "never", str(corpus / "tcp.ssn")]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_multiple_files_in_argument_order(corpus):
    proc = run_cli("check", str(corpus / "charlie.ssn"), str(corpus / "tcp.ssn"))
    assert proc.returncode == 1
    proc2 = run_cli("check", str(corpus / "tcp.ssn"), str(corpus / "charlie.ssn"), "--format", "json")
    doc = json.loads(proc2.stdout)
    assert [d["file"] for d in doc] == [str(corpus / "charlie.ssn")]


def test_non_utf8_input_exits_two(corpus, tmp_path):
    binary = tmp_path / "binary.ssn"
    binary.write_bytes(b"roles A\n\xff\xfe\n")
    runs = [
        ("check", str(binary)),
        ("fmt", "--check", str(binary)),
        ("explain", str(binary)),
        ("simulate", str(corpus / "tcp.ssn"), "--trace", str(binary)),
    ]
    for argv in runs:
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert f"cannot read {binary}: not UTF-8 text" in proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv


def test_simulate_negative_max_steps_is_an_argument_error(corpus):
    sim = ("simulate", str(corpus / "tcp.ssn"), "--trace", str(corpus / "tcp_good.trace"), "--max-steps")
    proc = run_cli(*sim, "-3")
    assert proc.returncode == 2
    assert "--max-steps: must be 0 or more" in proc.stderr
    assert proc.stdout == ""
    zero = run_cli(*sim, "0")
    assert zero.returncode == 1
    assert "step limit of 0 exceeded" in zero.stdout


def test_simulate_text_names_knowers_after_each_send(corpus):
    proc = run_cli("simulate", str(corpus / "tcp.ssn"), "--trace", str(corpus / "tcp_good.trace"))
    sent = [line for line in proc.stdout.splitlines() if line.startswith("sent ")]
    assert sent == [
        "sent     m1 Alice -> Bob; known to Alice, Bob",
        "sent     m2 Bob -> Alice; known to Bob, Alice",
        "sent     m3 Alice -> Bob; known to Alice, Bob",
    ]


def test_integer_literal_past_the_digit_limit_is_one_parse_error(corpus, tmp_path):
    big = "9" * 5000
    ssn = tmp_path / "big.ssn"
    ssn.write_text(f"roles A, B\nprotocol P [A, B] {{\n  dep d : (x : Int) where x == {big} by A;\n  send d A -> B;\n  end\n}}\n")
    trace = tmp_path / "big.trace"
    trace.write_text(f"m1 = (SYN, {big})\n")
    runs = [
        (("check", "--color", "never", str(ssn)), "stdout", f"{ssn}:3:32"),
        (("simulate", "--color", "never", str(corpus / "tcp.ssn"), "--trace", str(trace)), "stderr", f"{trace}:1:12"),
    ]
    for argv, stream, where in runs:
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert getattr(proc, stream) == f"{where}: error[parse]: integer literal longer than 4300 digits\n", argv
        assert "Traceback" not in proc.stderr, argv
    # a literal the interpreter converts still parses and prints back unchanged
    ok = tmp_path / "ok.ssn"
    ok.write_text(ssn.read_text().replace(big, "-" + "7" * 4000))
    assert run_cli("fmt", str(ok)).returncode == 0
    assert "-" + "7" * 4000 + " by A" in ok.read_text()
    proc = run_cli("fmt", "--check", str(ok))
    assert (proc.returncode, proc.stdout) == (0, "")
    assert run_cli("check", str(ok)).returncode == 0


def test_closed_stdout_exits_one_without_a_traceback(corpus, tmp_path):
    # far more output than a pipe buffers, so writes go on after the reader
    # has gone
    rounds = 'cmd = Echo\nwelcome = "Welcome to Echo!"\nrequest = "hi"\nreply = "hi"\n' * 300
    trace = tmp_path / "long.trace"
    trace.write_text(rounds + "cmd = Quit\n")
    argv = ["simulate", str(corpus / "server.ssn"), "--trace", str(trace), "--format", "json"]
    # the with block closes both pipes; the kill stops a run a failed assert left writing
    with subprocess.Popen([sys.executable, "-m", "sessioncheck", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.read(12) == b'{\n  "status"'
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
    assert stderr == b""


def test_closed_stderr_keeps_the_exit_code(tmp_path):
    # an unparsable file exits 2 even when its diagnostic cannot be written
    bad = tmp_path / "bad.ssn"
    bad.write_text("roles A\nprotocol P [A] { msg }\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["simulate", str(bad), "--trace", str(bad)], ["fmt", str(bad)], ["explain", str(bad)]):
            proc = subprocess.run(
                [sys.executable, "-m", "sessioncheck", *argv], stdout=subprocess.PIPE, stderr=write_end, timeout=60
            )
            assert (proc.returncode, proc.stdout) == (2, b""), argv
    finally:
        os.close(write_end)


def test_simulate_file_without_a_protocol_exits_two(tmp_path):
    # such a file passes check, but there is nothing to run; the trace is
    # never read
    for name, text in (("empty.ssn", ""), ("roles.ssn", "roles A\n")):
        ssn = tmp_path / name
        ssn.write_text(text)
        assert run_cli("check", str(ssn)).returncode == 0
        for fmt in ("text", "json"):
            proc = run_cli("simulate", str(ssn), "--trace", str(tmp_path / "missing.trace"), "--format", fmt)
            assert proc.returncode == 2, (name, fmt)
            assert proc.stdout == ""
            assert proc.stderr == f"sessioncheck: {ssn}: no entry protocol to simulate\n"


def test_one_parser_per_process_gives_what_a_fresh_parser_gives(corpus, capsys, monkeypatch):
    from sessioncheck import cli

    def c(name: str) -> str:
        return str(corpus / name)

    sim = ("simulate", c("tcp.ssn"), "--trace", c("tcp_good.trace"))
    runs = [
        ["check", c("tcp.ssn")],
        [*sim, "--format", "json"],
        ["explain", "--format", "json", c("server.ssn")],
        ["fmt", "--check", c("tcp.ssn")],
        ["check", "--format", "json", "--color", "always", c("charlie.ssn")],
        [*sim, "--report", "json"],
        [*sim, "--max-steps", "-1"],
        ["explain", c("tcp.ssn")],
        [*sim, "--report", "text", "--max-steps", "3"],
        ["check", "--color", "always", c("charlie.ssn"), c("tcp.ssn")],
        ["check", "--format", "xml", c("tcp.ssn")],
        [*sim],
        ["frobnicate"],
        ["check", "--format", "json", c("hoppy.ssn")],
    ]

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        return code, out, err

    shared = [outcome(argv) for argv in runs + runs]  # each call on the parser of the one before
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
    fresh = [outcome(argv) for argv in runs + runs]
    assert shared == fresh
    codes = [code for code, _, _ in shared[: len(runs)]]
    assert codes == [0, 0, 0, 0, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0]
    assert "--max-steps: must be 0 or more, got -1" in shared[6][2]


def test_simulate_text_prints_constructor_values(corpus, tmp_path, capsys):
    from sessioncheck import cli

    assert cli.main(["simulate", str(corpus / "server.ssn"), "--trace", str(corpus / "server_math.trace")]) == 0
    assert "created  op = Add(2, 3) by Alice\n" in capsys.readouterr().out
    ssn = tmp_path / "one.ssn"
    ssn.write_text("roles A, B\ntype T = X | Y(Int)\nprotocol P [A, B] { msg t : T by A; send t A -> B; end }\n")
    trace = tmp_path / "one.trace"
    trace.write_text("t = Y(4)")
    assert cli.main(["simulate", str(ssn), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "created  t = Y(4) by A"
    trace.write_text("t = X")
    assert cli.main(["simulate", str(ssn), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "created  t = X by A"


@pytest.mark.parametrize(
    "failure, reason",
    [
        ("open", PermissionError(13, "Permission denied")),
        ("write", OSError(28, "No space left on device")),
        ("open", OSError("no strerror")),
    ],
)
def test_fmt_reports_a_file_it_cannot_write_and_goes_on(tmp_path, capsys, monkeypatch, failure, reason):
    from sessioncheck import cli

    messy = "roles  A\nprotocol P [A] {  end  }"
    bad, good = tmp_path / "bad.ssn", tmp_path / "good.ssn"
    bad.write_text(messy)
    good.write_text(messy)
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise reason

    def fake_open(path, mode="r", **kwargs):
        if str(path).startswith(f"{os.path.realpath(bad)}.") and "x" in mode:  # bad.ssn's new text
            if failure == "open":
                raise reason
            return FullDisk(real_open(path, mode, **kwargs))
        return real_open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    assert cli.main(["fmt", str(bad), str(good)]) == 2
    out, err = capsys.readouterr()
    assert err == f"sessioncheck: cannot write {bad}: {reason.strerror or reason}\n"
    assert out == f"reformatted {good}\n"
    assert good.read_text() == "roles A\n\nprotocol P [A] {\n  end\n}\n"
    assert bad.read_text() == messy
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ssn", "good.ssn"]


def test_fmt_rewrites_through_a_link_and_keeps_the_mode(tmp_path, capsys):
    from sessioncheck import cli

    messy = "roles  A\nprotocol P [A] {  end  }"
    real, link = tmp_path / "real.ssn", tmp_path / "link.ssn"
    real.write_text(messy)
    real.chmod(0o640)
    link.symlink_to(real)
    assert cli.main(["fmt", str(link)]) == 0
    assert capsys.readouterr().out == f"reformatted {link}\n"
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == "roles A\n\nprotocol P [A] {\n  end\n}\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ssn", "real.ssn"]


def test_fmt_leaves_a_file_it_may_not_write(tmp_path, capsys, monkeypatch):
    from sessioncheck import cli

    messy = "roles  A\nprotocol P [A] {  end  }"
    ssn = tmp_path / "ro.ssn"
    ssn.write_text(messy)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)  # as for a non-root user on a 0444 file
    assert cli.main(["fmt", str(ssn)]) == 2
    assert capsys.readouterr().err == f"sessioncheck: cannot write {ssn}: Permission denied\n"
    assert ssn.read_text() == messy
    assert [p.name for p in tmp_path.iterdir()] == ["ro.ssn"]


@pytest.mark.parametrize("tty", ["stdout", "stderr"])
@pytest.mark.parametrize(
    "command, diagnostics_to",
    [
        (["check", "charlie.ssn"], "stdout"),
        (["simulate", "tcp.ssn", "--trace", "bad.trace"], "stderr"),
        (["explain", "charlie.ssn"], "stderr"),
        (["fmt", "bad.ssn"], "stderr"),
    ],
)
def test_color_auto_looks_at_the_stream_diagnostics_go_to(
    corpus, tmp_path, capsys, monkeypatch, command, diagnostics_to, tty
):
    from sessioncheck import cli

    for name in ("charlie.ssn", "tcp.ssn"):
        shutil.copy(corpus / name, tmp_path)
    (tmp_path / "bad.trace").write_text("m1 = (SYN,")
    (tmp_path / "bad.ssn").write_text("protocol {")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(getattr(sys, tty), "isatty", lambda: True)
    cli.main(command)
    out, err = capsys.readouterr()
    written, other = (out, err) if diagnostics_to == "stdout" else (err, out)
    assert "error[" in written
    assert ("\x1b[31m" in written) == (tty == diagnostics_to)
    assert "\x1b[" not in other


def _fresh_python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True).stdout


def test_importing_the_cli_loads_no_dataclasses():
    # Building the records through dataclasses was most of a cold `check`.
    out = _fresh_python(
        "import sys; before = 'dataclasses' in sys.modules; import sessioncheck.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    before, after = out.split()
    assert after == before


def test_a_text_check_leaves_the_json_writers_unloaded(corpus):
    out = _fresh_python(
        "import sys; from sessioncheck.cli import main; "
        f"code = main(['check', {str(corpus / 'tcp.ssn')!r}]); print(code, 'sessioncheck.jsonout' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"


@contextlib.contextmanager
def _collector(on: bool):
    """Run the block with the cyclic collector switched on or off, then put
    back the setting it had."""
    was_on = gc.isenabled()
    gc.enable() if on else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_on else gc.disable()


def test_a_command_runs_with_the_collector_off(corpus, capsys, monkeypatch):
    from sessioncheck import cli

    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "check_file", recording(cli.check_file))
    monkeypatch.setattr(cli, "run_trace", recording(cli.run_trace))
    tcp = str(corpus / "tcp.ssn")
    with _collector(True):
        assert cli.main(["check", tcp]) == 0
        assert cli.main(["simulate", tcp, "--trace", str(corpus / "tcp_good.trace")]) == 0
        assert gc.isenabled()
    assert seen == [("check_file", False), ("check_file", False), ("run_trace", False)]


@pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
def test_main_gives_back_the_callers_collector_on_every_way_out(corpus, capsys, monkeypatch, on):
    from sessioncheck import cli

    tcp, good = str(corpus / "tcp.ssn"), str(corpus / "tcp_good.trace")

    def outcome(argv):
        with _collector(on):
            try:
                result = cli.main(argv)
            except SystemExit as stop:
                result = ("exit", stop.code)
            except RuntimeError as err:
                result = ("raised", str(err))
            assert gc.isenabled() == on, argv
        return result

    assert outcome(["check", tcp]) == 0
    assert outcome(["check", "--nope", tcp]) == ("exit", 2)
    assert outcome(["simulate", tcp, "--trace", good, "--max-steps", "-1"]) == ("exit", 2)
    capsys.readouterr()
    # stdout is a pipe whose reader has gone: the flush after the command
    # fails, and a run that would exit 0 exits 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed, contextlib.redirect_stdout(closed):
        assert outcome(["simulate", tcp, "--trace", good]) == 1
    assert capsys.readouterr() == ("", "")

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_file", boom)
    assert outcome(["check", tcp]) == ("raised", "boom")


@pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
def test_library_calls_leave_the_collector_alone(corpus, on):
    from sessioncheck import check_file, format_source, parse, parse_trace, run_trace

    with _collector(on):
        file = parse((corpus / "tcp.ssn").read_text())
        assert gc.isenabled() == on
        assert check_file(file, record_steps=True).ok
        assert gc.isenabled() == on
        trace = parse_trace((corpus / "tcp_good.trace").read_text())
        assert gc.isenabled() == on
        assert run_trace(file, trace).completed
        assert gc.isenabled() == on
        format_source(file)
        assert gc.isenabled() == on


@pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
def test_importing_sessioncheck_leaves_the_collector_alone(on):
    out = _fresh_python(f"import gc; gc.{'enable' if on else 'disable'}(); import sessioncheck.cli; print(gc.isenabled())")
    assert out == f"{on}\n"


BUDGET_COMMANDS = [
    ("check",), ("check", "--format", "json"), ("explain",), ("explain", "--format", "json"), ("fmt", "--check"),
    ("simulate", "--trace"), ("simulate", "--format", "json", "--trace"),
]


@pytest.mark.parametrize("operators", [500, 501, 991], ids=["at_budget", "past_budget", "groups_10x100"])
def test_every_command_at_and_past_the_operator_budget(operators, tmp_path):
    from differential import refinement

    text, trace = refinement(operators)
    ssn, trc = tmp_path / "r.ssn", tmp_path / "r.trace"
    ssn.write_text(text)
    trc.write_text(trace)
    message = "refinement with more than 500 operators"
    for argv in BUDGET_COMMANDS:
        # a fresh process each, at the interpreter's own stack limit
        proc = run_cli(*argv, *([str(trc)] if argv[0] == "simulate" else []), str(ssn))
        assert "Traceback" not in proc.stderr, argv
        if operators <= 500:
            assert proc.returncode == (1 if argv[0] == "fmt" else 0), argv  # fmt would drop the parentheses
            out = json.loads(proc.stdout) if "json" in argv else proc.stdout
            if argv[0] == "check":
                assert out in ([], ""), argv
            elif argv[0] == "simulate":
                assert out["status"] == {"kind": "completed"} if "json" in argv else out.endswith("status: completed\n")
            continue
        col = nth_operator_col(text, 501)
        assert proc.returncode == 2, argv
        if argv == ("check", "--format", "json"):
            errors = json.loads(proc.stdout)
            assert [(e["code"], e["line"], e["col"], e["message"]) for e in errors] == [("parse", 4, col, message)]
        else:
            assert proc.stdout + proc.stderr == f"{ssn}:4:{col}: error[parse]: {message}\n", argv


def test_the_differential_script_gives_the_same_lines_twice():
    import differential

    first = differential.lines(full=False)
    assert len(first) == 48  # 4 protocols x 8 runs, 8 traces x 2 formats
    assert differential.lines(full=False) == first
