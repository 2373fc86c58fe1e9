"""sessioncheck benchmark: drives the real CLI on seeded inputs and checks every answer.

Run from the repository root:

    python3 perfbench/run.py --workload deep_path --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole CLI operations (``sessioncheck.cli.main(argv)``
in this process, stdout captured, plus fresh ``python -m sessioncheck``
processes) and prints the end-to-end metrics. ``--trace 1`` runs every
in-process operation twice, plain and with a span around each layer's
entry point, and prints the per-layer metrics. The last line of stdout is
one JSON object; the lines above it repeat every figure with its sample
count. Workloads, metrics and their meaning are described in README.md
beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = HERE / ".work"
SETUPS = 15  # set-up is repeated and its median reported
REF_CAL_MS = 0.2  # time of _reference_work() on a quiet host: the reference speed
CAL_EVERY_S = 0.01  # interval between host-speed samples
COLD_TIMEOUT_S = 60
# Fresh processes import sessioncheck from this tree's src/ and nothing else.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONNOUSERSITE": "1"}


def pin_sources():
    """Import sessioncheck from this checkout's src/, never from an installed copy."""
    if not (SRC / "sessioncheck" / "__init__.py").is_file() or not (ROOT / "tests" / "gen.py").is_file():
        sys.exit(f"perfbench: {ROOT} has no src/sessioncheck or tests/gen.py; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import sessioncheck.cli

    if Path(sessioncheck.cli.__file__).resolve().parent != SRC / "sessioncheck":
        sys.exit(f"perfbench: imported sessioncheck from {sessioncheck.cli.__file__}, not {SRC}")
    return sessioncheck.cli


def child_import_ms(cwd: Path) -> float:
    """Time `import sessioncheck.cli` in a fresh interpreter, and check where it came from."""
    code = (
        "import time; t = time.perf_counter(); import sessioncheck.cli as m; "
        "print((time.perf_counter() - t) * 1e3); print(m.__file__)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, cwd=cwd,
                         timeout=COLD_TIMEOUT_S, check=True).stdout.split("\n")
    if Path(out[1]).resolve().parent != SRC / "sessioncheck":
        sys.exit(f"perfbench: a fresh process imported sessioncheck from {out[1]}, not {SRC}")
    return float(out[0])


def _reference_work() -> int:
    """Fixed interpreter work that slows down with the host as sessioncheck does, using builtins only.

    Half is arithmetic in a generator, half stores and looks up fresh strings in a dict.
    """
    table: dict[int, str] = {}
    for i in range(600):
        table[i & 255] = str(i)
        table.get((i * 7) & 255)
    return len(table) + sum(i * i % 7 for i in range(1500))


# `python -m sessioncheck ARGS` in a fresh process that also samples its own
# host speed, as HostClock does. The last line of its stderr gives the time
# spent before sessioncheck started and the samples, all in ms. It imports
# only builtin modules, so sessioncheck's own imports still cost what they do
# under `python -m`.
COLD_MAIN = f"""
from time import perf_counter
start = perf_counter()
import _signal as signal, atexit, runpy, sys
{inspect.getsource(_reference_work)}
samples, busy = [], []
def sample(*_):
    if busy:
        return
    busy.append(1)
    t0 = perf_counter()
    _reference_work()
    samples.append((perf_counter() - t0) * 1e3)
    busy.clear()
def report():
    signal.setitimer(signal.ITIMER_REAL, 0)
    print("host-speed", prelude, *samples, file=sys.stderr)
signal.signal(signal.SIGALRM, sample)
atexit.register(report)
prelude = (perf_counter() - start) * 1e3
signal.setitimer(signal.ITIMER_REAL, {CAL_EVERY_S}, {CAL_EVERY_S})
runpy.run_module("sessioncheck", run_name="__main__", alter_sys=True)
"""


class HostClock:
    """Samples the host's speed while ops run, and converts wall time to reference-speed time.

    A shared host's CPU runs this process at two speeds about 1.8x apart,
    switching every 0.1 to 1 s as other tenants come and go, and the share
    of slow time differs from run to run. While ``running()``, an interval
    timer interrupts the process every ``CAL_EVERY_S`` and times fixed work
    (``_reference_work``). A stretch of wall time, less the samples taken
    inside it, is scaled by ``REF_CAL_MS`` over the mean sample time
    inside it (or on either side of it, if it holds none), so it reads as
    if the host had run at the reference speed throughout. The reference
    work does not touch sessioncheck, so a faster program still reads
    faster.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() at the start of each sample
        self.ends: list[float] = []
        self.values: list[float] = []  # ms the reference work took
        self.busy = False
        self.on = False

    def sample(self, *_signal) -> None:
        if self.busy:  # a timer signal that arrived during a sample
            return
        self.busy = True
        t0 = perf_counter()
        _reference_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.values.append((t1 - t0) * 1e3)
        self.busy = False

    @contextmanager
    def running(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self.on = True
        try:
            yield self
        finally:
            self.on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @contextmanager
    def paused(self):
        """No samples while another process runs: they would compete with it for the CPU."""
        if not self.on:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def reference_ms(self, t0: float, t1: float, child: list[float] = ()) -> float:
        """Reference-speed ms of the stretch from t0 to t1 (in perf_counter() seconds).

        ``child`` holds what a child process reported of itself, if the
        stretch was spent waiting for one (see ``COLD_MAIN``): the ms it
        spent before sessioncheck started, then its samples. Both are left
        out of the stretch.
        """
        if len(child) > 1:  # the prelude and at least one sample
            return ((t1 - t0) * 1e3 - sum(child)) * REF_CAL_MS / statistics.fmean(child[1:])
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        inside = range(lo, hi)
        own = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in inside)
        speed = statistics.fmean(self.values[i] for i in (inside or (lo - 1, lo)))
        return own * 1e3 * REF_CAL_MS / speed


# ---------------------------------------------------------------------------
# Running one operation


class Runner:
    def __init__(self, cli, clock: HostClock):
        self.cli = cli
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []
        self.span = (0.0, 0.0)  # perf_counter() at the start and end of the last op
        self.child: list[float] = []  # what the last op's child process reported (see COLD_MAIN)

    def run(self, op) -> tuple[float, str]:
        """Run one op, check its answer, and return (wall ms, stdout)."""
        if op.kind == "cold":
            gc.collect()
            with self.clock.paused():
                t0 = perf_counter()
                proc = subprocess.run([sys.executable, "-c", COLD_MAIN, *op.argv], capture_output=True,
                                      text=True, env=CHILD_ENV, timeout=COLD_TIMEOUT_S)
                t1 = perf_counter()
            code, out = proc.returncode, proc.stdout
            last = proc.stderr.rstrip("\n").rpartition("\n")[2].split()
            self.child = [float(ms) for ms in last[1:]] if last[:1] == ["host-speed"] else []
        else:
            self.child = []
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                gc.collect()
                t0 = perf_counter()
                try:
                    code = self.cli.main(op.argv)
                except SystemExit as stop:  # argparse rejecting the arguments, as a process would exit
                    code = stop.code if isinstance(stop.code, int) else 1
                except Exception:
                    code, crash = None, traceback.format_exc().splitlines()[-1]
                t1 = perf_counter()
            out = buf.getvalue()
        self.span = (t0, t1)
        self.attempted += 1
        try:
            wrong = f"raised {crash}" if code is None else op.expect(code, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
            wrong = f"unreadable output: {err!r}"
        if wrong is not None:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {wrong}")
        return (t1 - t0) * 1e3, out


def set_up(build, seed: int, workdir: Path, cli):
    """Generate the inputs, write them, and warm up every command on a corpus file."""
    from workloads import Op

    plan = build(seed, CORPUS)
    digests = {}
    for name, text in sorted(plan.files.items()):
        data = text.encode("utf-8")
        (workdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    for name in ("tcp.ssn", "tcp_good.trace"):
        (workdir / f"warmup_{name}").write_text((CORPUS / name).read_text())
    quiet = Runner(cli, HostClock())
    for argv in (["check", "warmup_tcp.ssn"], ["check", "--format", "json", "warmup_tcp.ssn"],
                 ["explain", "--format", "json", "warmup_tcp.ssn"], ["fmt", "--check", "warmup_tcp.ssn"],
                 ["simulate", "warmup_tcp.ssn", "--trace", "warmup_tcp_good.trace"],
                 ["simulate", "warmup_tcp.ssn", "--format", "json", "--trace", "warmup_tcp_good.trace"]):
        quiet.run(Op("warmup", argv, lambda code, out: None))
    return plan, digests


# ---------------------------------------------------------------------------
# Statistics


def median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1]


class Report:
    """Metric values plus the human-readable lines printed above the JSON."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, note: str, gated: bool = True) -> None:
        if gated:
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<28} {value:>14.4f} {unit:<10} {note}")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure(plan, runner: Runner, seconds: float, report: Report, record: dict) -> None:
    """Run whole passes until ``seconds`` have gone, then report per command.

    Gated timings are reference-speed times (see ``HostClock``): each op's
    median over the passes, then the median over the workload's ops of
    one kind. Raw wall-time medians and p90s are printed beside them.
    """
    clock = runner.clock
    samples: list[tuple[tuple, float, float, list[float]]] = []  # (op key, start, end, child's samples)
    passes = 0
    with clock.running():
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            for op in plan.ops:
                runner.run(op)
                samples.append(((op.kind, *op.argv), *runner.span, runner.child))
            passes += 1
    runs: dict[tuple, list[float]] = defaultdict(list)
    raw: dict[tuple, list[float]] = defaultdict(list)
    for key, t0, t1, child in samples:
        runs[key].append(clock.reference_ms(t0, t1, child))
        raw[key].append((t1 - t0) * 1e3)
    typical = {key: median(ms) for key, ms in runs.items()}
    unique = {(op.kind, *op.argv): op for op in plan.ops}
    for kind, name in (("check", "check_ms"), ("simulate", "simulate_ms"), ("fmt", "fmt_ms"),
                       ("explain", "explain_ms"), ("cold", "cold_start_ms")):
        keys = [key for key in unique if key[0] == kind]
        if not keys:
            continue
        ref = [ms for key in keys for ms in runs[key]]
        n = f"n={len(ref)}: {len(keys)} ops x {passes} passes"
        report.add(f"{name}.p50", median(ref), "ms", f"reference speed; {n}", gated=kind != "explain")
        if len(ref) >= 100:
            report.add(f"{name}.p90", p90(ref), "ms", f"reference speed; {n}", gated=False)
        report.add(f"{name}.wall_p50", median([ms for key in keys for ms in raw[key]]), "ms", f"wall time; {n}",
                   gated=False)
    report.add("pass_ms", sum(typical[op.kind, *op.argv] for op in plan.ops), "ms",
               f"one pass of {len(plan.ops)} ops, each at its reference-speed median of {passes} passes")
    for name, kind, attr, unit in (("lines_per_s", "check", "lines", "lines/s"),
                                   ("sim_bindings_per_s", "simulate", "bindings", "bindings/s")):
        keys = [key for key in unique if key[0] == kind]
        work = sum(getattr(unique[key], attr) for key in keys)
        secs = sum(typical[key] for key in keys) / 1e3
        report.add(name, work / secs, unit, f"{work} {attr} in {secs:.4f} reference-speed s of {kind}")
    record["samples"] = [[" ".join(key), t0, t1, child] for key, t0, t1, child in samples]


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _growth(plan, rounds: int = 4, factor: int = 2) -> tuple[float, float]:
    """Fitted exponents of check_file and run_trace time between size n / factor and n.

    Sizes alternate within each round and each keeps its best time, so a
    change in host speed between the two sizes does not bend the fit.
    """
    from sessioncheck import check_file, parse, parse_trace, run_trace

    def simulate(file, trace):
        return run_trace(file, trace, max_steps=10**9)

    def once(fn, calls) -> float:
        gc.collect()
        t0 = perf_counter()
        for args in calls:
            fn(*args)
        return perf_counter() - t0

    jobs = []  # (layer, size index, fn, calls repeated reps times to last >= 50 ms, reps)
    for i, n in enumerate((plan.size // factor, plan.size)):
        protos, sims = plan.sized(n)
        for layer, fn, calls in (("checker", check_file, [(parse(t),) for t in protos]),
                                 ("simulator", simulate, [(parse(p), parse_trace(t)) for p, t in sims])):
            reps = max(1, math.ceil(0.05 / max(once(fn, calls), 1e-6)))
            jobs.append((layer, i, fn, calls * reps, reps))
    best: dict[tuple, float] = defaultdict(lambda: math.inf)
    for _ in range(rounds):
        for layer, i, fn, calls, reps in jobs:
            best[layer, i] = min(best[layer, i], once(fn, calls) / reps)
    return tuple(math.log(best[layer, 1] / best[layer, 0], factor) for layer in ("checker", "simulator"))


def _model_us(peak: int) -> tuple[float, float]:
    """µs per learn and per knows call on an index holding ``peak`` messages."""
    from sessioncheck.model import EMPTY_INDEX, INT, RoleId, VarId, introduce, knows, learn

    a, b = RoleId("A"), RoleId("B")
    index = EMPTY_INDEX
    for i in range(max(peak, 1)):
        index = introduce(index, VarId(f"v{i}"), INT, a)
    middle, last = VarId(f"v{len(index) // 2}"), VarId(f"v{len(index) - 1}")

    def per_call(fn, *args) -> float:
        reps = 1000
        runs = []
        for _ in range(5):
            t0 = perf_counter_ns()
            for _ in range(reps):
                fn(*args)
            runs.append((perf_counter_ns() - t0) / reps / 1e3)
        return min(runs)

    return per_call(learn, index, middle, b), per_call(knows, index, last, a)


def measure_traced(plan, runner: Runner, seconds: float, report: Report, record: dict, workdir: Path) -> None:
    from tracing import Tracer, dump_spans, missing_hooks

    start = perf_counter()
    import_ms = [child_import_ms(workdir) for _ in range(5)]
    checker_exp, simulator_exp = _growth(plan)
    tracer = Tracer()
    passes: list[Counter] = []
    by_kind: dict[str, Counter] = defaultdict(Counter)
    plain: dict[tuple, float] = defaultdict(lambda: math.inf)
    traced: dict[tuple, float] = defaultdict(lambda: math.inf)
    sim_ms = sim_check_ns = 0.0
    peak = 0
    first_spans: dict[str, list] = {}
    while not passes or perf_counter() - start < seconds:
        acc: Counter = Counter()
        for op in plan.ops:
            if op.kind == "cold":
                continue
            key = (op.kind, *op.argv)
            if len(passes) % 2:  # alternate which of the pair runs first
                plain[key] = min(plain[key], runner.run(op)[0])
            with tracer.installed():
                ms, out = runner.run(op)
            traced[key] = min(traced[key], ms)
            if not len(passes) % 2:
                plain[key] = min(plain[key], runner.run(op)[0])
            own, inclusive, spans = tracer.take()
            first_spans.setdefault(op.kind, spans)
            acc.update(own)
            acc["out_bytes"] += len(out)
            by_kind[op.kind].update(own)
            if op.kind == "simulate":
                sim_ms += ms
                sim_check_ns += inclusive["checker"]
        peak = max(peak, tracer.counts.pop("peak_index", 0))
        acc.update(tracer.counts)
        tracer.counts.clear()
        passes.append(acc)
        runner.clock.sample()  # a drift indicator only: traced times are wall times
    learn_us, knows_us = _model_us(peak)

    def per_pass(key: str, scale: float = 1e-6) -> float:
        return median([p[key] * scale for p in passes])

    n = f"median of {len(passes)} passes"
    lexer_ms = per_pass("lexer")
    report.add("lexer.self_ms", lexer_ms, "ms", n)
    report.add("lexer.tokens", per_pass("tokens", 1), "count", n)
    report.add("lexer.us_per_token", lexer_ms * 1e3 / max(per_pass("tokens", 1), 1), "us", "lexer.self_ms / lexer.tokens")
    report.add("parser.self_ms", per_pass("parser"), "ms", f"parse minus its tokenize; {n}")
    report.add("parser.stmts", per_pass("stmts", 1), "count", n)
    report.add("parser.trace_ms", per_pass("parser.trace"), "ms", f"parse_trace minus its tokenize; {n}")
    report.add("checker.self_ms", per_pass("checker"), "ms", n)
    report.add("checker.paths", per_pass("paths", 1), "count", f"control paths of accepted files; {n}")
    report.add("checker.snapshots", per_pass("snapshots", 1), "count", f"step_log records; {n}")
    report.add("checker.diagnostics", per_pass("diagnostics", 1), "count", n)
    report.add("checker.growth_exp", checker_exp, "exponent", f"check_file time, size {plan.size // 2} -> {plan.size}")
    report.add("model.self_ms", per_pass("model"), "ms", n)
    report.add("model.peak_index", peak, "count", "largest index seen")
    report.add("model.learn_us", learn_us, "us", f"learn on an index of {max(peak, 1)} items")
    report.add("model.knows_us", knows_us, "us", f"knows on an index of {max(peak, 1)} items")
    report.add("simulator.self_ms", per_pass("simulator"), "ms", n)
    report.add("simulator.events", per_pass("events", 1), "count", n)
    report.add("simulator.refinements", per_pass("refinements", 1), "count", n)
    report.add("simulator.growth_exp", simulator_exp, "exponent", f"run_trace time, size {plan.size // 2} -> {plan.size}")
    report.add("printer.fmt_ms", per_pass("printer"), "ms", f"format_source; {n}")
    report.add("printer.out_bytes", per_pass("printer_bytes", 1), "bytes", n)
    report.add("cli.render_ms", per_pass("cli.render"), "ms", f"to_json, json.dumps, explain and report rendering; {n}")
    report.add("cli.out_bytes", per_pass("out_bytes", 1), "bytes", f"captured stdout; {n}")
    report.add("cli.glue_ms", per_pass("cli"), "ms", f"cli.main minus the layer spans; {n}")
    report.add("cli.simulate_check_share", sim_check_ns / 1e6 / sim_ms, "ratio", "check_file time inside simulate ops")
    report.add("cli.import_ms", median(import_ms), "ms", f"fresh-process import of sessioncheck.cli, n={len(import_ms)}")
    report.add("trace.overhead_ratio", sum(traced.values()) / sum(plain.values()), "ratio",
               f"best traced over best plain time of {len(plain)} distinct ops")
    report.lines.append("  self time by command (share of traced op time):")
    for kind, own in by_kind.items():
        total = sum(own.values())
        shares = ", ".join(f"{layer} {ns / total:.1%}" for layer, ns in own.most_common())
        report.lines.append(f"    {kind:<9} {shares}")
    if missing_hooks():
        report.lines.append(f"  not traced (no longer defined): {', '.join(missing_hooks())}")
    dump_spans(workdir / "spans.jsonl", list(first_spans.items()))
    record["passes"] = [dict(p) for p in passes]


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = pin_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    child_import_ms(workdir)  # also compiles bytecode once, outside set-up timing

    clock = HostClock()
    runner = Runner(cli, clock)
    spans: list[tuple[float, float]] = []
    digests = None
    with clock.running():
        for _ in range(SETUPS):
            gc.collect()
            t0 = perf_counter()
            plan, got = set_up(WORKLOADS[args.workload], args.seed, workdir, cli)
            spans.append((t0, perf_counter()))
            if digests not in (None, got):
                sys.exit("perfbench: two set-ups from one seed wrote different inputs")
            digests = got
    setup_s = [clock.reference_ms(t0, t1) / 1e3 for t0, t1 in spans]
    gc.collect()
    gc.freeze()  # set-up objects are never garbage; keep them out of the per-op collections

    report = Report()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "python": platform.python_version(), "cpus": os.cpu_count(), "inputs_sha256": digests,
                    "plan": plan.notes}
    if args.trace:
        measure_traced(plan, runner, args.seconds, report, record, workdir)
    else:
        measure(plan, runner, args.seconds, report, record)
        report.add("setup_s", median(setup_s), "s", f"median of {SETUPS} set-ups at reference speed")
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process")
    failed = len(runner.failures)
    report.add("failed_ratio", failed / runner.attempted, "ratio", f"{failed} of {runner.attempted} ops disagree with the known answer", gated=False)

    inputs = hashlib.sha256("".join(f"{k} {v}\n" for k, v in digests.items()).encode()).hexdigest()
    record["host_speed"] = {"starts": clock.starts, "ms": clock.values}
    record.update(metrics=report.metrics, failures=runner.failures, attempted=runner.attempted)
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  inputs: {len(digests)} files, sha256 of their digests {inputs[:16]}; plan {plan.notes}")
    print(f"  host speed: median sample {median(clock.values):.3f} ms over {len(clock.values)} samples"
          f" (reference {REF_CAL_MS} ms)")
    for line in report.lines + [f"  FAILED {f}" for f in runner.failures[:10]]:
        print(line)
    print(f"  record: {workdir / 'record.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
