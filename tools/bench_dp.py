"""Benchmark of a change against its parent commit: in-process layer timings,
process exit times and end-to-end pairs.

    python3 tools/bench_dp.py --parent DIR --out FILE [--change DIR]
                              [--repeats 5] [--pairs 10] [--seconds 15]

DIR is a source checkout of the parent commit, for example made with
`git archive <sha> | tar -x -C DIR`; --change defaults to this checkout. FILE
has no default, so a run never overwrites a committed BENCH_*.json by
accident. Three measurements go into FILE, each with its median and q1-q3
spread beside every run, and each median is printed with its spread:

- layer: the five seed-1 dp-tree models of `benchmark/workloads.py`,
  `random_gff(64, density=0, seed=3)` with b=3, eps'=0.1,
  `random_gmrf(32, tree_width_hint=1, seed=3)` with b=3, eps'=0.5, and two
  expensive GFF trees of one shape, `random_gff(32, density=0, seed=1)` and
  `seed=4` with b=3, eps'=0.1 (tens of thousands of contexts each, against
  hundreds for the dp-tree models), each run with `dp_select` on
  `balance_for_tree`, and `validate.validate_suite(seed=0,
  trials=10)` (every suite of an oracle-small `validate` request), followed
  by each of its four suites alone (three-path, supermodularity,
  greedy-vs-exact, dp-vs-exact) at the count that run gave it, so a change
  to `validate` shows which suite moved. Then the solvers' other layers: one
  `models.err` on `random_gff(200, density=0.02, seed=3)` observing every
  tenth vertex; one greedy round, `greedy_budget(random_gff(400,
  density=0.01, seed=3), 1)` (the inverse of the unpinned 399 x 399 block,
  the round's err calls and the report's err included); and one exact chunk,
  `models.err_batch` on the first 4,096 six-vertex subsets of
  `random_gff(16, density=0.3, seed=3)`. Last, the parser:
  `io.parse_model_text` on the seed-1 greedy-large files `gff150-a.gff` and
  `gmrf120-a.gmrf`. Every repeat is one fresh process per side, the sides
  alternating which goes first; after one untimed call of each numpy routine
  the cases use, each case runs once and records its wall and CPU time and
  its result (a DP's sizing, selection, `err.hex()` and `table_value.hex()`;
  validate's exit code and payload; each suite's findings; the err's hex, the
  greedy selection and err's hex, a hash of the chunk's scores in hex; a hash
  of each parsed model's `precision_matrix` bytes), so both sides are checked
  to give identical results.
- exit: the first `select greedy`, `select dp`, `select exact`, `eval` and
  `validate` request of the seed-1 workloads, each run `--repeats` times per
  side as `python3 -m gmrf_select.cli` would run it, sides alternating;
  records the time of `import gmrf_select.cli` (numpy's import included),
  measured before the probe runs the module as `__main__`; the time from the
  last atexit hook (main has returned) to the moment the process is reaped;
  the process's wall time; its `VmHWM` from `/proc/self/status` in that hook
  (the request's own peak RSS, which the benchmark's `peak_rss_mb`, a
  high-water that also holds the harness's, cannot show); and the sorted
  `gmrf_select.*` modules loaded when main returned (every repeat must load
  the same ones).
- pairs: `benchmark/run.py --trace 0` on every workload, run alternately in
  both checkouts at seeds 31, 32, ..., one seed per pair, in the layout of
  BENCH_8.json, with per-metric medians, quartiles and change wins, and the
  pass count of every run.

Before any timing, both sides' `src/` are compiled with `compileall`, so no
side's processes pay for compiling its modules (BENCH_20.json and earlier
files were timed without this step, so their exit and wall times are not
comparable with later files).

The exit status is 0 when every layer case gave one result, the same on both
sides and in every repeat. Otherwise the script still writes FILE and prints,
then names the cases that differ on stderr and exits 1. With `--pairs 0` it is
a check that a change computes what its parent does, bit for bit, on every
layer case.

OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are set to 1 on this
process before numpy is imported and recorded; the layer and exit processes
inherit them. `benchmark/run.py` removes them from the requests it starts, as
always.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dp-tree", "greedy-large", "oracle-small")
FIRST_SEED = 31


def src_sha256(src: Path) -> str:
    """Hash of every .py file under ``src`` (relative path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def dp_cases(root: Path):
    """(name, model, budget, eps_prime) for every in-process DP case."""
    sys.path.insert(0, str(root / "benchmark"))
    from workloads import dp_tree

    from gmrf_select import io
    from gmrf_select.models import random_gff, random_gmrf

    work = dp_tree(1)
    for req in work.requests:
        eps_prime = float(req.args[req.args.index("--eps-prime") + 1])
        yield req.name, io.parse_model_text(work.files[req.model]), req.budget, eps_prime
    yield "gff64-b3", random_gff(64, density=0.0, seed=3), 3, 0.1
    yield "svd32-b3", random_gmrf(32, tree_width_hint=1, seed=3), 3, 0.5
    yield "gff32-seed1-b3", random_gff(32, density=0.0, seed=1), 3, 0.1
    yield "gff32-seed4-b3", random_gff(32, density=0.0, seed=4), 3, 0.1


def warm_up() -> None:
    """First calls of the numpy routines the cases use, so their one-time
    set-up is timed in neither side's first case; no package code runs."""
    import numpy as np

    block = np.eye(3) + 0.5
    np.linalg.eigvalsh(block), np.linalg.eigh(block), np.linalg.norm(block[:, 0])
    np.linalg.solve(np.linalg.cholesky(block), block), np.linalg.inv(block[None])


def timed(fn, *args):
    """(wall s, CPU s, value) of one call."""
    start, cpu = time.perf_counter(), time.process_time()
    value = fn(*args)
    return time.perf_counter() - start, time.process_time() - cpu, value


def run_layer(root: Path) -> dict:
    """One timed run of every case with the package under ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    from gmrf_select.decomposition import balance_for_tree
    from gmrf_select.dp import dp_select
    from gmrf_select.validate import SUITES, validate_suite

    warm_up()
    out = {}
    for name, model, budget, eps_prime in dp_cases(root):
        td = balance_for_tree(model.n, model.graph_edges())
        elapsed, cpu, report = timed(dp_select, model, td, budget, eps_prime)
        out[name] = {"time_s": elapsed, "cpu_s": cpu, "result": {
            "sizing": report.details["sizing"], "selected": list(report.selected),
            "err": report.err_value.hex(), "table_value": report.details["table_value"].hex()}}
    elapsed, cpu, (code, payload) = timed(validate_suite, 0, 10)
    out["validate-10"] = {"time_s": elapsed, "cpu_s": cpu,
                          "result": {"code": code, "payload": payload}}
    for suite, fn in SUITES:
        elapsed, cpu, findings = timed(fn, 0, payload["counts"][suite])
        out[f"validate-10-{suite}"] = {"time_s": elapsed, "cpu_s": cpu,
                                       "result": {"findings": findings}}
    for name, fn, args, result in solver_cases():
        elapsed, cpu, value = timed(fn, *args)
        out[name] = {"time_s": elapsed, "cpu_s": cpu, "result": result(value)}
    return out


def solver_cases():
    """(name, function, arguments, result of its value) for one err, one
    greedy round, one exact chunk and two parsed model files."""
    from itertools import combinations, islice

    from workloads import greedy_large   # benchmark/ is on the path since dp_cases

    from gmrf_select import io
    from gmrf_select.greedy import greedy_budget
    from gmrf_select.models import err, err_batch, random_gff

    g200 = random_gff(200, density=0.02, seed=3)
    yield "err-n200", err, (g200, range(2, 201, 10)), float.hex
    g400 = random_gff(400, density=0.01, seed=3)
    yield "greedy-round-n400", greedy_budget, (g400, 1), lambda report: {
        "selected": list(report.selected), "err": report.err_value.hex()}
    chunk = list(islice(combinations(range(2, 17), 6), 4096))
    yield "exact-chunk-n16", err_batch, (random_gff(16, density=0.3, seed=3), chunk), \
        lambda scores: hashlib.sha256(" ".join(map(float.hex, scores)).encode()).hexdigest()
    files = greedy_large(1).files
    for file in ("gff150-a.gff", "gmrf120-a.gmrf"):
        yield f"parse-{file}", io.parse_model_text, (files[file],), \
            lambda model: hashlib.sha256(model.precision_matrix.tobytes()).hexdigest()


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def show(entry: dict) -> str:
    """A spread as ``median [q1-q3]``."""
    return f"{entry['median']:.3f} [{entry['q1']:.3f}-{entry['q3']:.3f}]"


def layer(sides: dict, repeats: int) -> dict:
    runs = {side: [] for side in sides}
    for rep in range(repeats):
        order = list(sides) if rep % 2 == 0 else list(reversed(sides))
        for side in order:
            proc = subprocess.run([sys.executable, __file__, "--layer", str(sides[side])],
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
    cases = {}
    for name in runs["change"][0]:
        entry = {}
        for side in sides:
            mine = [run[name] for run in runs[side]]
            entry[side] = {"result": mine[0]["result"],
                           "time_s": spread([run["time_s"] for run in mine]),
                           "cpu_s": spread([run["cpu_s"] for run in mine]),
                           "repeats_agree": all(run["result"] == mine[0]["result"]
                                                for run in mine)}
        for key in ("time_s", "cpu_s"):
            entry[f"speedup_{key}"] = entry["parent"][key]["median"] / entry["change"][key]["median"]
        entry["same_result"] = entry["parent"]["result"] == entry["change"]["result"]
        cases[name] = entry
    return cases


EXIT_PROBE = """
import atexit, json, runpy, sys, time, warnings
# runpy warns that it runs a module already imported: here that is the point
warnings.filterwarnings("ignore", category=RuntimeWarning, module="runpy")
def returned():
    modules = sorted(m for m in sys.modules if m.startswith("gmrf_select."))
    with open("/proc/self/status") as status:   # the process's own RSS high-water, in kB
        hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(json.dumps([imported, modules, hwm, time.perf_counter()]) + "\\n")
atexit.register(returned)
start = time.perf_counter()
import gmrf_select.cli
imported = time.perf_counter() - start
runpy.run_module("gmrf_select.cli", run_name="__main__", alter_sys=True)
"""


def exit_times(sides: dict, repeats: int) -> dict:
    """Per request kind and side: ms to import gmrf_select.cli, ms from main
    returning to the process being reaped, the process's wall ms, its own
    RSS high-water (``VmHWM`` when main has returned, in MB; unlike the
    benchmark's ``peak_rss_mb``, it never holds the parent's high-water), and
    the package modules loaded. atexit hooks run in reverse order, so the probe's
    hook, registered before any import, runs last. runpy runs the imported
    module's code again as __main__; that second run finds every module it
    imports at the top already loaded."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    kinds = ("select greedy", "select dp", "select exact", "eval", "validate")
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        requests = {}
        for make in workloads.WORKLOADS.values():
            work = make(1)
            for file, text in work.files.items():
                Path(tmp, file).write_text(text)
            for req in work.requests:
                if req.kind in kinds:
                    requests.setdefault(req.kind, req.argv(tmp))
        for kind in kinds:
            samples = {side: {"import_ms": [], "exit_ms": [], "wall_ms": [], "vmhwm_mb": []}
                       for side in sides}
            modules = {side: [] for side in sides}
            for rep in range(repeats):
                for side in (list(sides) if rep % 2 == 0 else list(reversed(sides))):
                    env = dict(os.environ, PYTHONPATH=str(sides[side] / "src"))
                    start = time.perf_counter()
                    proc = subprocess.run([sys.executable, "-c", EXIT_PROBE, *requests[kind]],
                                          env=env, capture_output=True, text=True, check=True)
                    reaped = time.perf_counter()
                    imported, loaded, hwm, returned = json.loads(proc.stderr.splitlines()[-1])
                    samples[side]["import_ms"].append(imported * 1e3)
                    samples[side]["vmhwm_mb"].append(hwm / 1024)
                    samples[side]["exit_ms"].append((reaped - returned) * 1e3)
                    samples[side]["wall_ms"].append((reaped - start) * 1e3)
                    modules[side].append(loaded)
            for side, seen in modules.items():
                if any(loaded != seen[0] for loaded in seen):
                    raise RuntimeError(f"{kind} on {side} loaded different modules: {seen}")
            result[kind] = {side: {**{key: spread(values) for key, values in mine.items()},
                                   "modules": modules[side][0]}
                            for side, mine in samples.items()}
    return result


def benchmark_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, capture_output=True, text=True, check=True)
    path = root / "benchmark" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def pairs(sides: dict, count: int, seconds: float) -> tuple[list, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    records, summary = [], {}
    for workload in WORKLOADS:
        for n in range(count):
            seed = FIRST_SEED + n
            order = ["parent", "change"] if n % 2 == 0 else ["change", "parent"]
            pair = {"workload": workload, "seed": seed, "trace": 0, "first": order[0]}
            for side in order:
                pair[side] = benchmark_run(sides[side], workload, seed, seconds)
            records.append(pair)
        mine = [p for p in records if p["workload"] == workload]
        summary[workload] = {"pairs": len(mine), "passes": {
            side: [p[side]["detail"]["passes"] for p in mine] for side in sides}}
        for metric, direction in better.items():
            values = {side: [p[side]["result"]["metrics"][metric]["value"] for p in mine]
                      for side in sides}
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            summary[workload][metric] = {side: spread(values[side]) for side in sides}
            summary[workload][metric]["change_wins"] = wins
    return records, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.layer is not None:
        print(json.dumps(run_layer(args.layer.resolve())))
        return 0
    for name in ("parent", "out"):
        if getattr(args, name) is None:
            ap.error(f"--{name} is required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        # both sides start from compiled bytecode, whatever PYTHONDONTWRITEBYTECODE
        # says: a side that compiles its modules in every process is 30-55 ms
        # slower a request
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(path / "src")],
                       check=True)
    result = {
        "command": "python3 tools/bench_dp.py --parent DIR --out FILE",
        "repeats": args.repeats, "pairs_per_workload": args.pairs, "seconds": args.seconds,
        "method": ("in-process layer runs: one fresh process per side and repeat, sides "
                   "alternating, numpy routines warmed up untimed; exit: one process per "
                   "request, side and repeat, sides alternating; end-to-end: "
                   "benchmark/run.py --trace 0 run alternately in two checkouts at seeds "
                   "not used while the change was written, 'first' says which side ran "
                   "first in each pair; every median has its q1-q3 spread; both sides' "
                   "src/ compiled with compileall before timing"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_sha256": {side: src_sha256(path / "src") for side, path in sides.items()},
        "layer": layer(sides, args.repeats),
        "exit": exit_times(sides, args.repeats),
    }
    records, summary = pairs(sides, args.pairs, args.seconds) if args.pairs else ([], {})
    result["summary"] = summary
    result["pairs"] = records
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, case in result["layer"].items():
        print(f"{name}: {show(case['parent']['time_s'])} s -> {show(case['change']['time_s'])} s "
              f"({case['speedup_time_s']:.2f}x, same result: {case['same_result']})")
    for kind, case in result["exit"].items():
        for key in ("import_ms", "exit_ms", "wall_ms", "vmhwm_mb"):
            print(f"{kind} {key}: {show(case['parent'][key])} -> {show(case['change'][key])}")
        for side in sides:
            print(f"{kind} {side} loads: {' '.join(case[side]['modules'])}")
    for workload, rows in summary.items():
        for metric, row in rows.items():
            if isinstance(row, dict) and "change_wins" in row:
                print(f"{workload} {metric}: {show(row['parent'])} -> {show(row['change'])}, "
                      f"change wins {row['change_wins']}/{rows['pairs']}")
        print(f"{workload} passes: parent {rows['passes']['parent']}, "
              f"change {rows['passes']['change']}")
    differ = [name for name, case in result["layer"].items()
              if not (case["same_result"] and all(case[side]["repeats_agree"] for side in sides))]
    if differ:
        sys.stderr.write(f"layer cases whose results differ: {', '.join(differ)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
