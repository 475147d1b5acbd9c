"""Traced launcher: one `gmrf-select` request with timing spans around the
calls into each module's public functions.

    python3 benchmark/traced.py SPANS_OUT REQUEST_ID CLI_ARG...

Modules bind names with `from .x import y`, so each wrapper replaces the name
in every module that calls it. Spans are kept in memory and written to
SPANS_OUT as JSON when the request ends; nothing in the program changes.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = {}
        self.spans = []            # [name index, start ns, end ns, parent index]
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int) -> None:
        idx = self.names.setdefault(name, len(self.names))
        self.spans.append([idx, start, end, -1])

    def wrap(self, name: str, fn, note=None):
        """Wrap ``fn`` in a span; ``note(args, result)`` updates counters."""
        idx = self.names.setdefault(name, len(self.names))
        clock = time.perf_counter_ns
        failed = name + ".failed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [idx, clock(), 0, stack[-1] if stack else -1]
            with self._lock:
                pos = len(self.spans)
                self.spans.append(rec)
            stack.append(pos)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counters[failed] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        return wrapper

    def dump(self, path: str, request_id: str) -> None:
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            json.dump({"request": request_id, "names": names, "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))


def install(tr: Tracer):
    """Wrap the layer functions everywhere they are bound; returns cli.main."""
    from gmrf_select import (cli, decomposition, dp, exact, greedy, io, linalg, models,
                             rounding, validate)

    def patch(name, owner, attr, also=(), note=None):
        wrapped = tr.wrap(name, getattr(owner, attr), note)
        for target in (owner, *also):
            setattr(target, attr, wrapped)

    def count(key, value):
        tr.counters[key] += value

    def note_sizing(args, report):
        sizing = report.details.get("sizing", "")
        for key in ("contexts", "states"):
            match = re.search(rf"\b{key}=(\d+)", sizing)
            if match:
                count(f"dp.{key}", int(match.group(1)))

    def note_decomposition(args, td):
        count("decomposition.height", td.height)
        count("decomposition.width", td.width)

    def note_greedy(args, report):
        start = 1 if isinstance(args[0], models.GffModel) else 0
        count("greedy.accepted", len(report.selected) - start)

    def note_flop(args, value):
        k = len(args[0].support)
        count("linalg.trace_of_inverse.flop", 4.0 * k ** 3 / 3.0)

    patch("io.parse_model", io, "parse_model")
    patch("io.emit_report", io, "emit_report")
    patch("models.make_report", models, "make_report", (greedy, exact, dp, cli))
    patch("models.err", models, "err", (greedy, exact, validate))
    patch("models.conditional_variance", models, "conditional_variance")
    patch("models.effective_resistance", models, "effective_resistance")
    patch("linalg.trace_of_inverse", linalg, "trace_of_inverse", note=note_flop)
    patch("linalg.diag_of_inverse", linalg, "diag_of_inverse")
    patch("linalg.obs", linalg, "obs", (dp,))
    patch("linalg.marginal", linalg, "marginal", (dp,))
    patch("linalg.add", linalg, "add", (dp,))
    patch("linalg.SupportedMatrix.init", linalg.SupportedMatrix, "__post_init__")
    patch("rounding.round", rounding.GffRounder, "round")
    patch("rounding.round", rounding.SvdRounder, "round")
    patch("dp.factorize", dp, "factorize")
    patch("dp.run_dp", dp, "run_dp")
    patch("dp.extract_solution", dp, "extract_solution")
    patch("dp.dp_select", dp, "dp_select", (cli, validate), note=note_sizing)
    patch("decomposition.balance_for_tree", decomposition, "balance_for_tree",
          (cli, validate), note=note_decomposition)
    for fn in ("greedy_budget", "greedy_cover"):
        patch(f"greedy.{fn}", greedy, fn, (cli, validate), note=note_greedy)
    for fn in ("exact_budget", "exact_cover"):
        patch(f"exact.{fn}", exact, fn, (cli, validate))
    validate.SUITES = tuple((name, tr.wrap(f"validate.{name}", fn))
                            for name, fn in validate.SUITES)
    return tr.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    out_path, request_id, cli_args = argv[1], argv[2], argv[3:]
    tr = Tracer()
    start = time.perf_counter_ns()
    import gmrf_select.cli  # noqa: F401  (timed as its own span)
    tr.record("cli.import", start, time.perf_counter_ns())
    cli_main = install(tr)
    try:
        return cli_main(cli_args)
    finally:
        tr.dump(out_path, request_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
