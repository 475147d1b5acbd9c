"""gmrf-select end-to-end benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each request is one
`python3 -m gmrf_select.cli` process, started only after the previous one has
exited (a closed loop with one client). The timed window runs whole passes
over the workload's request list until at least --seconds have passed and at
least MIN_PASSES passes are done. Every output is checked against the
benchmark's own numpy objective after the window.

--trace 0 prints the end-to-end metrics; --trace 1 replays the same passes
through benchmark/traced.py, alternating with untraced requests, and prints
the per-layer metrics. The last stdout line is one JSON object; the full
record, environment included, goes to benchmark/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_ENV = dict(os.environ)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The benchmark's own numpy (generation, checks) stays on one thread so it
# never competes with a request; requests get the library default.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 4            # with >= 5 requests a pass, the tail is at least p50
SETUPS = 3                # set-up runs per benchmark run; setup_s is their median
IMPORT_PROBES = 5
STOP_ISSUING_S = 140.0    # no new request after this much run time
HARD_LIMIT_S = 170.0      # a request still running at this point is killed
CHILD_VARS = BLAS_VARS + ("GMRF_SELECT_THREADS", "PYTHONDONTWRITEBYTECODE")

PROBE = """
import json, os, sys, time
t = time.perf_counter()
import gmrf_select.cli
elapsed = time.perf_counter() - t
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError) as exc:
    blas = repr(exc)
print(json.dumps({"import_s": elapsed, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas, "env": {k: os.environ.get(k) for k in %r}}))
""" % (CHILD_VARS,)


def child_env() -> dict:
    """What a user gets: no BLAS or solver thread pins, bytecode caching on."""
    env = {k: v for k, v in CHILD_ENV.items() if k not in CHILD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    latency: float
    code: int
    rss_mb: float
    stdout: str
    problems: list


class Runner:
    """Starts request processes one at a time and keeps the run's budget."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.started = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def execute(self, cmd: list[str]) -> Outcome:
        self.count += 1
        out_path = self.workdir / f"req{self.count}.out"
        err_path = self.workdir / f"req{self.count}.err"
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            fd = os.pidfd_open(proc.pid)
            ready = []
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                if not ready:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                os.close(fd)
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        out_path.unlink()
        err_path.unlink()
        problems = [] if ready else [f"killed after {timeout:.0f} s"]
        if proc.returncode != 0:
            last = stderr[-1] if stderr else ""
            problems.append(f"exit code {proc.returncode}: {last}")
        return Outcome(latency, proc.returncode, usage.ru_maxrss / 1024.0, stdout, problems)

    def request(self, req, input_dir: Path, traced_to: Path | None = None) -> Outcome:
        argv = req.argv(str(input_dir))
        if traced_to is None:
            cmd = [sys.executable, "-m", "gmrf_select.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(traced_to), req.name, *argv]
        return self.execute(cmd)


class Checker:
    """Checks outputs against the benchmark's own objective, and that every
    repeat of a request prints the same bytes as its first run."""

    def __init__(self, input_dir: Path):
        self.input_dir = input_dir
        self.models = {}
        self.first = {}
        self.errs = {}

    def __call__(self, req, o: Outcome) -> None:
        if o.code != 0:
            return
        if req.name in self.first:
            if o.stdout != self.first[req.name]:
                o.problems.append("output differs from the first run of this request")
            return
        if req.args[0] == "validate":
            o.problems.extend(check.check_validate(o.stdout))
        else:
            if req.model not in self.models:
                self.models[req.model] = check.parse_model(
                    (self.input_dir / req.model).read_text())
            found, value = check.check_select(self.models[req.model], o.stdout,
                                              budget=req.budget, alpha=req.alpha,
                                              eval_set=req.eval_set)
            o.problems.extend(found)
            if req.is_select and value is not None:
                self.errs[req.name] = value
        if not o.problems:
            self.first[req.name] = o.stdout


def write_inputs(files: dict, directory: Path) -> None:
    directory.mkdir(parents=True)
    for name, text in files.items():
        (directory / name).write_text(text)


def set_up(runner: Runner, name: str, seed: int, run_dir: Path, findings: list):
    """SETUPS times: generate the inputs and run one warm-up request per kind.
    Returns (set-up times, workload, input dir, warm-up outcomes)."""
    times, warm, dirs = [], [], []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed)
        directory = run_dir / f"inputs{i}"
        write_inputs(wl.files, directory)
        kinds = {}
        for req in wl.requests:
            kinds.setdefault(req.kind, req)
        outcomes = [(req, runner.request(req, directory)) for req in kinds.values()]
        times.append(time.perf_counter() - t0)
        warm.extend(outcomes)
        dirs.append(directory)
    for other in dirs[1:]:
        for fname in wl.files:
            if (other / fname).read_bytes() != (dirs[0] / fname).read_bytes():
                findings.append(f"generator: {fname} differs between set-ups at one seed")
    return times, wl, dirs[-1], warm


def probe(runner: Runner, times: int) -> tuple[list[float], dict]:
    results = []
    for _ in range(times):
        o = runner.execute([sys.executable, "-c", PROBE])
        if o.code == 0:
            results.append(json.loads(o.stdout))
    if not results:
        raise RuntimeError("the import probe failed")
    return [r["import_s"] for r in results], results[-1]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmrf_select").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest sample, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_window(runner, wl, input_dir, seconds, traced_dir=None):
    """Closed loop over whole passes. Untraced: [(req, outcome)] per pass.
    Traced: each request runs untraced and traced back to back, the order
    alternating by pass, and the pass entries are (req, untraced, traced, spans).
    Past STOP_ISSUING_S the last pass is cut short."""
    passes = []
    t0 = time.perf_counter()
    while True:
        entries = []
        for req in wl.requests:
            if runner.elapsed() > STOP_ISSUING_S:
                break
            if traced_dir is None:
                entries.append((req, runner.request(req, input_dir)))
                continue
            spans_path = traced_dir / f"{req.name}.json"
            if len(passes) % 2:
                t = runner.request(req, input_dir, spans_path)
                u = runner.request(req, input_dir)
            else:
                u = runner.request(req, input_dir)
                t = runner.request(req, input_dir, spans_path)
            dump = json.loads(spans_path.read_text()) if t.code == 0 else None
            spans_path.unlink(missing_ok=True)
            entries.append((req, u, t, dump))
        passes.append(entries)
        window = time.perf_counter() - t0
        enough = len(passes) >= (MIN_PASSES if traced_dir is None else 2)
        if (window >= seconds and enough) or runner.elapsed() > STOP_ISSUING_S:
            return passes, window


def end_to_end(setup_times, passes, window, checker) -> tuple[dict, dict]:
    outcomes = [o for entries in passes for _, o in entries]
    ok = [o for o in outcomes if not o.problems]
    latencies = [o.latency for o in ok]
    errs = list(checker.errs.values())
    if not latencies or not errs:
        raise RuntimeError("no request passed its checks; there is nothing to measure")
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail_value, "s"),
        "throughput_rps": (len(ok) / window, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "ok_frac": (len(ok) / len(outcomes), "ratio"),
        "selection_err_mean": (statistics.fmean(errs), "var"),
    }
    by_request = {}
    for entries in passes:
        for req, o in entries:
            by_request.setdefault(req.name, []).append(o.latency)
    detail = {"samples": len(latencies), "tail_percentile": tail_pct,
              "request_median_s": {k: statistics.median(v) for k, v in by_request.items()},
              "passes": len(passes), "window_s": window,
              "failed_frac": 1.0 - len(ok) / len(outcomes),
              "setup_times_s": setup_times}
    return metrics, detail


def per_layer(runner, passes, n_requests, checker, findings) -> tuple[dict, dict]:
    totals = spans.Totals()
    per_pass = []
    ratios = []
    for entries in passes:
        pass_totals = spans.Totals()
        for req, u, t, dump in entries:
            checker(req, u)
            checker(req, t)
            if not u.problems and not t.problems:
                ratios.append(t.latency / u.latency)
            if dump is not None:
                pass_totals.add_request(dump)
        if len(entries) == n_requests:
            per_pass.append(pass_totals.repeating_counts())
        totals.add(pass_totals)
    mismatches = 0
    for key in spans.REPEATING:
        values = [counts[key] for counts in per_pass]
        if len(set(values)) > 1:
            mismatches += 1
            findings.append(f"count {key} did not repeat across passes: {values}")
    if not ratios:
        raise RuntimeError("no request passed its checks; there is nothing to measure")
    imports, env_probe = probe(runner, IMPORT_PROBES)
    values = spans.layer_metrics(totals, len(passes), statistics.median(imports),
                                 statistics.median(ratios) - 1.0, mismatches)
    units = dict(spans.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in spans.PER_LAYER}
    detail = {"traced_passes": len(passes), "counts_per_pass": per_pass,
              "import_probe_s": imports, "overhead_pairs": len(ratios),
              "selection_err_mean": statistics.fmean(checker.errs.values()),
              "environment": env_probe}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gmrf_select" / "cli.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'gmrf_select'} is missing\n")
        return 2

    run_dir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(run_dir)
        findings = []
        setup_times, wl, input_dir, warm = set_up(runner, args.workload, args.seed,
                                                  run_dir, findings)
        checker = Checker(input_dir)
        traced_dir = run_dir if args.trace else None
        passes, window = timed_window(runner, wl, input_dir, args.seconds, traced_dir)
        for req, o in warm:
            checker(req, o)
        if args.trace:
            metrics, detail = per_layer(runner, passes, len(wl.requests), checker, findings)
            outcomes = [o for entries in passes for _, u, t, _ in entries for o in (u, t)]
        else:
            for entries in passes:
                for req, o in entries:
                    checker(req, o)
            metrics, detail = end_to_end(setup_times, passes, window, checker)
            outcomes = [o for entries in passes for _, o in entries]
            _, env_probe = probe(runner, 1)
            detail["environment"] = env_probe
        outcomes += [o for _, o in warm]
        failures = [p for o in outcomes for p in o.problems]
        findings.extend(sorted(set(failures)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    generator_ok = not any(f.startswith("generator:") for f in findings)
    result = {
        "correct": not failures and generator_ok,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), **source_identity(),
              "child_env_removed": list(CHILD_VARS), "requests": [r.name for r in wl.requests],
              "detail": detail, "findings": findings, "result": result}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(detail, default=str)}")
    for finding in findings:
        print(f"finding: {finding}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
