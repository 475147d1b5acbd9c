"""The golden corpus: what every pinned command and demo prints, byte for byte.

    python3 tests/golden.py      # gmrf_select importable: pip install -e . or PYTHONPATH=src

records each command twice in this process and once in a child process with
one BLAS thread, writes tests/golden.json only if the three agree, and lists
the commands whose bytes changed. A command's record is its argv, exit code,
stdout, stderr and the file it writes at {out}, the input directory shown as
<inputs>; a demo's is its stdout. test_golden.py and test_demos.py replay it.
"""

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from conftest import adversarial_greedy_gff, unit_cycle, unit_path
from gmrf_select.io import format_model
from gmrf_select.models import GffModel

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = TESTS / "golden.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__}
CHILD = ("import golden, json, pathlib, sys\n"
         "json.dump(golden.record(pathlib.Path(sys.argv[1])), sys.stdout)")
# label -> arguments, split at spaces, of the commands that print what no
# workload request does; {name} is the path of input file name
EXTRA = {
    "validate 30": "validate --trials 30 --seed 0",
    "validate 0": "validate --trials 0",
    "validate 100 findings": "validate --trials 100 --seed 0 --out {out}",
    "convert": "convert tree-gmrf-to-gff --input {tree12}",
    "gen gff": "gen gff --n 12",
    "gen gff density 0": "gen gff --n 12 --density 0",
    "gen gff density 1": "gen gff --n 12 --density 1",
    "gen gmrf": "gen gmrf --n 8 --width 2 --seed 5",
    "eval text": "eval --format text --set 1,4 --input {tree12}",
    "greedy alpha gmrf": "select greedy --alpha 0.05 --input {gmrf16}",
    "greedy budget text": "select greedy --budget 3 --format text --input {gff16}",
    "greedy alpha text": "select greedy --alpha 0.05 --format text --input {gff16}",
    "dp text": "select dp --budget 2 --eps-prime 0.1 --format text --input {tree16}",
    "exact text": "select exact --budget 3 --format text --input {gff16}",
    # exact's tie-breaking; each alpha is its budget-2 optimum's err exactly
    "exact cycle6": "select exact --budget 2 --input {cycle6}",
    "exact cover cycle6": "select exact --alpha 0.24999999999999992 --input {cycle6}",
    "exact path5": "select exact --budget 2 --input {path5}",
    "exact cover path5": "select exact --alpha 0.19999999999999996 --input {path5}",
    # a finite covariance whose squares overflow
    "exact huge resistances": "select exact --budget 1 --input {huge}",
    "greedy huge resistances": "select greedy --budget 1 --input {huge}",
    "dp path4": "select dp --budget 1 --input {path4}",   # epsilon not clamped: no note
    "greedy adversarial": "select greedy --budget 3 --format text --input {adversarial}",
    "exact adversarial": "select exact --budget 3 --format text --input {adversarial}",
    "help": "--help",
    **{f"help {cmd}": f"{cmd} --help" for cmd in ("select", "eval", "gen", "convert", "validate")},
}


def commands(root: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of each workload request at seeds 1-3 and each
    EXTRA command, their input files written under ``root``."""
    with (mock.patch.object(sys, "path", [str(ROOT / "benchmark"), *sys.path]),
          mock.patch.object(sys, "dont_write_bytecode", True)):   # benchmark/ stays clean
        from workloads import WORKLOADS
    requests = {}   # argv -> label of its first request
    for name, build in sorted(WORKLOADS.items()):
        for seed in (1, 2, 3):
            wl, directory = build(seed), root / f"{name}-seed{seed}"
            directory.mkdir(parents=True)
            for fname, text in wl.files.items():
                (directory / fname).write_text(text)
            for req in wl.requests:
                label = f"{name} seed {seed} {req.name}"
                requests.setdefault(tuple(req.argv(str(directory))), label)
    paths = {"out": "{out}", "tree12": root / "dp-tree-seed1" / "tree12.gmrf",
             "tree16": root / "dp-tree-seed1" / "tree16.gff",
             "gff16": root / "oracle-small-seed1" / "gff16.gff",
             "gmrf16": root / "oracle-small-seed1" / "gmrf16.gmrf"}
    huge = GffModel(3, [(1, 2, 1e200), (2, 3, 1e200)])
    for name, model in (("cycle6", unit_cycle(6)), ("path5", unit_path(5)), ("huge", huge),
                        ("path4", unit_path(4)), ("adversarial", adversarial_greedy_gff())):
        paths[name] = root / f"{name}.gff"
        paths[name].write_text(format_model(model))
    extra = [(label, [a.format(**paths) for a in args.split()]) for label, args in EXTRA.items()]
    return [(label, list(argv)) for argv, label in requests.items()] + extra


def run(argv: list[str], root: Path) -> dict:
    """The record of one in-process ``cli.main`` run at 80 columns."""
    from gmrf_select.cli import main

    out, stdout, stderr = root / "out", io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = main([a.replace("{out}", str(out)) for a in argv])
        except SystemExit as exc:   # --help
            code = exc.code
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    mask = lambda text: text.replace(str(root), "<inputs>")
    return {"argv": mask(" ".join(argv)), "exit": code, "stdout": mask(stdout.getvalue()),
            "stderr": mask(stderr.getvalue()), "file": written}


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One demo, run as a script in a fresh interpreter."""
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)


def record(root: Path) -> dict:
    return {"versions": VERSIONS,
            "commands": {label: run(argv, root) for label, argv in commands(root)},
            "demos": {demo.stem: run_demo(demo).stdout for demo in DEMOS}}


def foreign(corpus: dict) -> str:
    """Why the corpus does not apply here, or '': another minor version of
    Python or numpy renders help screens and round-off its own way."""
    return "; ".join(f"recorded on {name} {corpus['versions'][name]}, running {version}"
                     for name, version in VERSIONS.items()
                     if version.split(".")[:2] != corpus["versions"][name].split(".")[:2])


def changed(old: dict, new: dict) -> list[str]:
    """Commands and demos whose record is not the same in both corpora."""
    return [f"{part} {label}" for part in ("commands", "demos")
            for label in sorted(old.get(part, {}).keys() | new[part].keys())
            if old.get(part, {}).get(label) != new[part].get(label)]


def main() -> int:
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, **threads, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (record(Path(tmp) / side) for side in ("a", "b"))
        child = subprocess.run([sys.executable, "-c", CHILD, str(Path(tmp) / "c")], env=env,
                               capture_output=True, text=True, check=True)
    disagree = changed(first, second) + changed(first, json.loads(child.stdout))
    if disagree:
        print("recordings disagree, corpus not written:", *disagree, sep="\n  ")
        return 1
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    print(f"{len(first['commands'])} commands, {len(first['demos'])} demos; changed:",
          *changed(old, first) or ["nothing"], sep="\n  ")
    CORPUS.write_text(json.dumps(first, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
