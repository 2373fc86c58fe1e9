"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.installed()`` replaces the public entry point of each layer, at
the name its caller looks it up by, with a wrapper that records a span:
layer name, start, end and parent. Spans of one CLI operation stay in a
list until ``take()`` folds them into self time per layer; a layer's self
time is its spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from sessioncheck import checker, cli, parser, simulator
from sessioncheck.model import KnowledgeIndex
from sessioncheck.simulator import RefinementChecked, RunReport


def _stmts(block) -> int:
    return sum(1 + sum(_stmts(arm.body) for arm in getattr(s, "arms", ())) for s in block)


def _count_tokens(c: Counter, result) -> None:
    c["tokens"] += len(result[0])


def _count_stmts(c: Counter, file) -> None:
    c["stmts"] += sum(_stmts(p.body) for p in file.protocols)


def _count_check(c: Counter, result) -> None:
    c["snapshots"] += len(result.step_log)
    c["diagnostics"] += len(result.diagnostics)
    c["paths"] += len(result.final_indices)


def _count_index(c: Counter, index) -> None:
    c["peak_index"] = max(c["peak_index"], len(index))


def _count_run(c: Counter, report) -> None:
    c["events"] += len(report.events)
    c["refinements"] += sum(1 for e in report.events if isinstance(e, RefinementChecked))


def _count_bytes(c: Counter, text) -> None:
    c["printer_bytes"] += len(text)


# (owner, attribute, layer, counter). The owner is the module or class the
# caller resolves the name through, so each call into a layer is seen once.
HOOKS = [
    (cli, "main", "cli", None),
    (parser, "tokenize", "lexer", _count_tokens),
    (cli, "parse", "parser", _count_stmts),
    (cli, "parse_trace", "parser.trace", None),
    (cli, "check_file", "checker", _count_check),
    (checker, "introduce", "model", _count_index),
    (checker, "learn", "model", _count_index),
    (checker, "knows", "model", None),
    (checker, "all_know", "model", None),
    (simulator, "introduce", "model", _count_index),
    (simulator, "learn", "model", _count_index),
    (KnowledgeIndex, "lookup", "model", None),
    (cli, "run_trace", "simulator", _count_run),
    (cli, "format_source", "printer", _count_bytes),
    (RunReport, "to_json", "cli.render", None),
    (cli, "_explain_json", "cli.render", None),
    (cli, "_print_report", "cli.render", None),
    (cli, "_print_explain", "cli.render", None),
    (cli.json, "dumps", "cli.render", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _wrap(self, fn, layer: str, count):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            i = len(spans)
            span = [layer, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(i)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook the code under test still has; names it no longer has are skipped."""
        hooks = [h for h in HOOKS if h[1] in vars(h[0])]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in hooks]
        try:
            for owner, attr, layer, count in hooks:
                setattr(owner, attr, self._wrap(vars(owner)[attr], layer, count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def take(self) -> tuple[Counter, Counter, list[list]]:
        """Self ns per layer, inclusive ns per layer, and the raw spans; then reset."""
        spans = list(self.spans)
        self.spans.clear()
        self_ns = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        own: Counter = Counter()
        inclusive: Counter = Counter()
        for (layer, start, end, parent), ns in zip(spans, self_ns):
            own[layer] += ns
            if parent < 0 or spans[parent][0] != layer:
                inclusive[layer] += end - start
        return own, inclusive, spans


def missing_hooks() -> list[str]:
    return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in HOOKS if attr not in vars(owner)]


def dump_spans(path, spans_by_op: list[tuple[str, list[list]]]) -> None:
    """Write spans as JSON lines: op id, command, layer, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        for op_id, (kind, spans) in enumerate(spans_by_op):
            for layer, start, end, parent in spans:
                fh.write(json.dumps({"op": op_id, "command": kind, "layer": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
