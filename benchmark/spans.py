"""Span arithmetic and the per-layer metrics of a traced run.

A traced request writes ``{"request", "names", "spans", "counters"}`` where
each span is ``[name index, start ns, end ns, parent span index or -1]``.
Self time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

from collections import defaultdict

# Per-layer metrics as (name, unit), in print order. Counts and times are per
# pass over the workload's request list; a layer a workload never calls reads 0.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("models.err.calls", "calls/pass"),
    ("models.err.s", "s/pass"),
    ("models.err.us_per_call", "us/call"),
    ("models.err.failed", "calls/pass"),
    ("greedy.err_calls_per_solve", "calls/solve"),
    ("greedy.accept_ratio", "ratio"),
    ("greedy.self_s", "s/pass"),
    ("linalg.trace_of_inverse.calls", "calls/pass"),
    ("linalg.trace_of_inverse.s", "s/pass"),
    ("linalg.trace_of_inverse.gflop_computed", "Gflop/pass"),
    ("linalg.trace_of_inverse.gflops", "Gflop/s"),
    ("exact.subsets", "subsets/pass"),
    ("exact.us_per_subset", "us/subset"),
    ("exact.self_s", "s/pass"),
    ("linalg.SupportedMatrix.constructions", "calls/pass"),
    ("linalg.SupportedMatrix.init_s", "s/pass"),
    ("linalg.marginal.calls", "calls/pass"),
    ("linalg.marginal.s", "s/pass"),
    ("linalg.marginal.failed", "calls/pass"),
    ("linalg.add.calls", "calls/pass"),
    ("linalg.add.s", "s/pass"),
    ("linalg.obs.calls", "calls/pass"),
    ("linalg.obs.s", "s/pass"),
    ("linalg.diag_of_inverse.s", "s/pass"),
    ("rounding.round.calls", "calls/pass"),
    ("rounding.round.s", "s/pass"),
    ("dp.contexts", "count/pass"),
    ("dp.states", "count/pass"),
    ("dp.states_per_round", "ratio"),
    ("dp.factorize.s", "s/pass"),
    ("dp.run_dp.self_s", "s/pass"),
    ("dp.extract_solution.s", "s/pass"),
    ("decomposition.balance_for_tree.s", "s/pass"),
    ("decomposition.height", "edges"),
    ("decomposition.width", "vertices"),
    ("io.parse_model.s", "s/pass"),
    ("io.emit_report.s", "s/pass"),
    ("models.make_report.s", "s/pass"),
    ("validate.three-path.s", "s/pass"),
    ("validate.supermodularity.s", "s/pass"),
    ("validate.greedy-vs-exact.s", "s/pass"),
    ("validate.dp-vs-exact.s", "s/pass"),
    ("models.conditional_variance.s", "s/pass"),
    ("models.effective_resistance.s", "s/pass"),
    ("trace.overhead_frac", "ratio"),
    ("trace.count_mismatches", "count"),
)

# counts that must repeat exactly at a fixed seed, from pass to pass
REPEATING = ("dp.states", "dp.contexts", "models.err.calls", "exact.subsets",
             "rounding.round.calls")

GREEDY = ("greedy.greedy_budget", "greedy.greedy_cover")
EXACT = ("exact.exact_budget", "exact.exact_cover")


def self_times(spans) -> list[int]:
    """Self time of every span, in the spans' time unit."""
    children = defaultdict(list)
    for k, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Totals:
    """Per-name calls, time and self time, summed over traced requests."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)         # outermost spans of each name only
        self.self_ns = defaultdict(int)
        self.err_under = defaultdict(int)  # models.err calls by the calling span
        self.counters = defaultdict(float)

    def add_request(self, dump: dict) -> None:
        names = dump["names"]
        spans = dump["spans"]
        selfs = self_times(spans)
        for k, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            self.calls[name] += 1
            self.self_ns[name] += selfs[k]
            p = parent
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][3]
            if p < 0:
                self.ns[name] += end - start
            if name == "models.err" and parent >= 0:
                self.err_under[names[spans[parent][0]]] += 1
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def add(self, other: "Totals") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.ns, other.ns),
                             (self.self_ns, other.self_ns),
                             (self.err_under, other.err_under),
                             (self.counters, other.counters)):
            for key, value in theirs.items():
                mine[key] += value

    def repeating_counts(self) -> dict:
        return {
            "dp.states": self.counters["dp.states"],
            "dp.contexts": self.counters["dp.contexts"],
            "models.err.calls": self.calls["models.err"],
            "exact.subsets": sum(self.err_under[n] for n in EXACT),
            "rounding.round.calls": self.calls["rounding.round"],
        }


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Totals, passes: int, import_s: float, overhead_frac: float,
                  mismatches: int) -> dict:
    """Per-layer metrics per pass over the request list."""
    def s(name):
        return t.ns[name] / 1e9 / passes

    def calls(name):
        return t.calls[name] / passes

    def self_s(names):
        return sum(t.self_ns[n] for n in names) / 1e9 / passes

    greedy_err = sum(t.err_under[n] for n in GREEDY)
    exact_err = sum(t.err_under[n] for n in EXACT)
    exact_s = sum(t.ns[n] for n in EXACT) / 1e9
    flop = t.counters["linalg.trace_of_inverse.flop"]
    states = t.counters["dp.states"]
    decomps = t.calls["decomposition.balance_for_tree"]
    m = {
        "cli.import_s": import_s,
        "models.err.calls": calls("models.err"),
        "models.err.s": s("models.err"),
        "models.err.us_per_call": _div(t.ns["models.err"] / 1e3, t.calls["models.err"]),
        "models.err.failed": t.counters["models.err.failed"] / passes,
        "greedy.err_calls_per_solve": _div(greedy_err, sum(t.calls[n] for n in GREEDY)),
        "greedy.accept_ratio": _div(t.counters["greedy.accepted"], greedy_err),
        "greedy.self_s": self_s(GREEDY),
        "linalg.trace_of_inverse.calls": calls("linalg.trace_of_inverse"),
        "linalg.trace_of_inverse.s": s("linalg.trace_of_inverse"),
        "linalg.trace_of_inverse.gflop_computed": flop / 1e9 / passes,
        "linalg.trace_of_inverse.gflops": _div(flop / 1e9, t.ns["linalg.trace_of_inverse"] / 1e9),
        "exact.subsets": exact_err / passes,
        "exact.us_per_subset": _div(exact_s * 1e6, exact_err),
        "exact.self_s": self_s(EXACT),
        "linalg.SupportedMatrix.constructions": calls("linalg.SupportedMatrix.init"),
        "linalg.SupportedMatrix.init_s": s("linalg.SupportedMatrix.init"),
        "linalg.marginal.calls": calls("linalg.marginal"),
        "linalg.marginal.s": s("linalg.marginal"),
        "linalg.marginal.failed": t.counters["linalg.marginal.failed"] / passes,
        "linalg.add.calls": calls("linalg.add"),
        "linalg.add.s": s("linalg.add"),
        "linalg.obs.calls": calls("linalg.obs"),
        "linalg.obs.s": s("linalg.obs"),
        "linalg.diag_of_inverse.s": s("linalg.diag_of_inverse"),
        "rounding.round.calls": calls("rounding.round"),
        "rounding.round.s": s("rounding.round"),
        "dp.contexts": t.counters["dp.contexts"] / passes,
        "dp.states": states / passes,
        "dp.states_per_round": _div(states, t.calls["rounding.round"]),
        "dp.factorize.s": s("dp.factorize"),
        "dp.run_dp.self_s": self_s(("dp.run_dp",)),
        "dp.extract_solution.s": s("dp.extract_solution"),
        "decomposition.balance_for_tree.s": s("decomposition.balance_for_tree"),
        "decomposition.height": _div(t.counters["decomposition.height"], decomps),
        "decomposition.width": _div(t.counters["decomposition.width"], decomps),
        "io.parse_model.s": s("io.parse_model"),
        "io.emit_report.s": s("io.emit_report"),
        "models.make_report.s": s("models.make_report"),
        "models.conditional_variance.s": s("models.conditional_variance"),
        "models.effective_resistance.s": s("models.effective_resistance"),
        "trace.overhead_frac": overhead_frac,
        "trace.count_mismatches": mismatches,
    }
    for suite in ("three-path", "supermodularity", "greedy-vs-exact", "dp-vs-exact"):
        m[f"validate.{suite}.s"] = s(f"validate.{suite}")
    return m
