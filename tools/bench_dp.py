"""DP kernel benchmark: in-process layer timings and end-to-end pairs of a change
against its parent commit.

    python3 tools/bench_dp.py --parent DIR --out FILE [--change DIR]
                              [--repeats 5] [--pairs 10] [--seconds 15]

DIR is a source checkout of the parent commit, for example made with
`git archive <sha> | tar -x -C DIR`; --change defaults to this checkout. FILE
has no default, so a run never overwrites a committed BENCH_*.json by
accident. Two measurements go into FILE:

- layer: the five seed-1 dp-tree models of `benchmark/workloads.py`,
  `random_gff(64, density=0, seed=3)` with b=3, eps'=0.1 and
  `random_gmrf(32, tree_width_hint=1, seed=3)` with b=3, eps'=0.5, each run
  with `dp_select` on `balance_for_tree`. Every repeat is one fresh process
  per side, the sides alternating which goes first; after one untimed call of
  each numpy routine the DP uses, each case runs once and records its wall
  and CPU time, sizing, selection, `err.hex()` and `table_value.hex()`.
- pairs: `benchmark/run.py --trace 0` on every workload, run alternately in
  both checkouts at seeds 31, 32, ..., one seed per pair, in the layout of
  BENCH_8.json, with per-metric medians, quartiles and change wins.

OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are set to 1 on this
process before numpy is imported and recorded; the layer processes inherit
them. `benchmark/run.py` removes them from the requests it starts, as always.
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
import time  # noqa: E402
import warnings  # noqa: E402
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


def layer_cases(root: Path):
    """(name, model, budget, eps_prime) for every in-process case."""
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


def warm_up() -> None:
    """First calls of the numpy routines the DP uses, so their one-time set-up
    is timed in neither side's first case; no package code runs."""
    import numpy as np

    block = np.eye(3) + 0.5
    np.linalg.eigvalsh(block), np.linalg.eigh(block), np.linalg.norm(block[:, 0])
    np.linalg.solve(np.linalg.cholesky(block), block)


def run_layer(root: Path) -> dict:
    """One timed run of every case with the package under ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    from gmrf_select.decomposition import balance_for_tree
    from gmrf_select.dp import dp_select

    warm_up()
    out = {}
    for name, model, budget, eps_prime in layer_cases(root):
        td = balance_for_tree(model.n, model.graph_edges())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            start, cpu = time.perf_counter(), time.process_time()
            report = dp_select(model, td, budget, eps_prime)
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        out[name] = {"time_s": elapsed, "cpu_s": cpu, "sizing": report.details["sizing"],
                     "selected": list(report.selected), "err": report.err_value.hex(),
                     "table_value": report.details["table_value"].hex()}
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def layer(sides: dict, repeats: int) -> dict:
    runs = {side: [] for side in sides}
    for rep in range(repeats):
        order = list(sides) if rep % 2 == 0 else list(reversed(sides))
        for side in order:
            proc = subprocess.run([sys.executable, __file__, "--layer", str(sides[side])],
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
    result_keys = ("sizing", "selected", "err", "table_value")
    cases = {}
    for name in runs["change"][0]:
        entry = {}
        for side in sides:
            mine = [run[name] for run in runs[side]]
            times = [run["time_s"] for run in mine]
            cpu = [run["cpu_s"] for run in mine]
            entry[side] = {**{k: mine[0][k] for k in result_keys},
                           "times_s": times, "median_s": statistics.median(times),
                           "cpu_s": cpu, "median_cpu_s": statistics.median(cpu),
                           "repeats_agree": all({k: run[k] for k in result_keys}
                                                == {k: mine[0][k] for k in result_keys}
                                                for run in mine)}
        entry["speedup"] = entry["parent"]["median_s"] / entry["change"]["median_s"]
        entry["cpu_speedup"] = entry["parent"]["median_cpu_s"] / entry["change"]["median_cpu_s"]
        entry["same_result"] = all(entry["parent"][k] == entry["change"][k] for k in result_keys)
        cases[name] = entry
    return cases


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
        summary[workload] = {"pairs": len(mine)}
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
    result = {
        "title": "DP kernel misses on per-run position maps",
        "command": "python3 tools/bench_dp.py --parent DIR --out FILE",
        "method": ("in-process layer runs: one fresh process per side and repeat, sides "
                   "alternating, numpy routines warmed up untimed, medians of wall and CPU "
                   "time; end-to-end: benchmark/run.py --trace 0 run alternately in two "
                   "checkouts at seeds not used while the change was written, 'first' says "
                   "which side ran first in each pair"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_sha256": {side: src_sha256(path / "src") for side, path in sides.items()},
        "layer": layer(sides, args.repeats),
    }
    records, summary = pairs(sides, args.pairs, args.seconds) if args.pairs else ([], {})
    result["summary"] = summary
    result["pairs"] = records
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, case in result["layer"].items():
        print(f"{name}: {case['parent']['median_s']:.3f} s -> {case['change']['median_s']:.3f} s "
              f"({case['speedup']:.2f}x, same result: {case['same_result']})")
    for workload, rows in summary.items():
        tp = rows["throughput_rps"]
        print(f"{workload}: throughput_rps {tp['parent']['median']:.3f} -> "
              f"{tp['change']['median']:.3f}, change wins {tp['change_wins']}/{rows['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
