"""Compare what two checkouts print for the same commands.

    python3 tools/same_output.py --parent DIR [--change DIR]

DIR is a source checkout of the parent commit, for example made with
`git archive <sha> | tar -x -C DIR`; --change defaults to this checkout. The
script writes, into a temporary directory, the input files of every request
of every workload in `benchmark/workloads.py` (this checkout's) at seeds 1, 2
and 3, and runs each distinct request once per side. It adds
`validate --trials 30 --seed 0`, a `convert tree-gmrf-to-gff` and a `--format
text` eval of a seed-1 tree GMRF, a `gen gmrf`, and each side's five demos.

Apart from these program commands, it runs `eval --set 1` on each of a
group of malformed GMRF files (MALFORMED), which both sides should refuse
with exit 2; a change to the messages at the input boundary shows up there as
a list of differences.

Every command runs in a fresh `python3` process with PYTHONPATH set to the
side's `src/` and bytecode writing off, so neither checkout changes. A command
differs when its exit code, stdout or stderr differs; in stderr each side's
checkout path is replaced by `<checkout>` first. The script prints each
difference and, per group, the number of commands, of those that exit as not
expected on either side (nonzero for a program command, other than 2 for a
malformed file), and of differences. It exits 1 if a program command differs
or a malformed file does not exit 2 on the change side.

Standard library and numpy (which `benchmark/workloads.py` needs) only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def commands(input_root: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after `python3`) of every command, the workloads'
    input files written under ``input_root`` on the way. A demo's arguments
    hold `{root}`, the side's checkout."""
    sys.dont_write_bytecode = True      # import benchmark/ without writing to it
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workloads import WORKLOADS

    out, seen = [], set()
    for name, build in sorted(WORKLOADS.items()):
        for seed in SEEDS:
            wl = build(seed)
            directory = input_root / f"{name}-seed{seed}"
            directory.mkdir(parents=True)
            for fname, text in wl.files.items():
                (directory / fname).write_text(text)
            for req in wl.requests:
                argv = req.argv(str(directory))
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    out.append((f"{name} seed {seed} {req.name}", argv))
    tree = str(input_root / "dp-tree-seed1" / "tree12.gmrf")
    out += [("validate 30", ["validate", "--trials", "30", "--seed", "0"]),
            ("convert", ["convert", "tree-gmrf-to-gff", "--input", tree]),
            ("gen gmrf", ["gen", "gmrf", "--n", "8", "--width", "2", "--seed", "5"]),
            ("eval text", ["eval", "--format", "text", "--set", "1,4", "--input", tree])]
    out = [(label, ["-m", "gmrf_select.cli", *argv]) for label, argv in out]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo {demo.stem}", [f"{{root}}/demos/{demo.name}"]))
    return out


# (label, text) of GMRF files that the input boundary refuses
MALFORMED = [
    ("support out of range", "gmrf\n2 2\n1 3\n1 0\n0 1\n"),
    ("support unsorted", "gmrf\n2 2\n2 1\n1 0\n0 1\n"),
    ("partial support", "gmrf\n3 2\n1 2\n1 0\n0 1\n"),
    ("huge n", "gmrf\n1000000000000 1\n1\n1\n"),
    ("empty matrix", "gmrf\n0 0\n\n\n"),
    ("non-finite entry", "gmrf\n2 2\n1 2\n1 0\n0 nan\n"),
    ("too-large entry", "gmrf\n2 2\n1 2\n1 0\n0 1e308\n"),
    ("asymmetric precision", "gmrf\n2 2\n1 2\n1 0.5\n0.2 1\n"),
    ("asymmetric covariance", "gmrf-cov\n2 2\n1 2\n1 0.5\n0.2 1\n"),
    ("covariance 1e-310", "gmrf-cov\n2 2\n1 2\n1e-310 0\n0 1\n"),
    ("singular covariance", "gmrf-cov\n2 2\n1 2\n1 1\n1 1\n"),
    ("trailing text", "gmrf\n1 1\n1\n2\nextra\n"),
]


def malformed(input_root: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after `python3`) of an eval of each MALFORMED file,
    written under ``input_root``."""
    input_root.mkdir(parents=True)
    out = []
    for number, (label, text) in enumerate(MALFORMED):
        path = input_root / f"bad{number}.gmrf"
        path.write_text(text)
        out.append((f"malformed {label}",
                    ["-m", "gmrf_select.cli", "eval", "--set", "1", "--input", str(path)]))
    return out


def run(root: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, *(a.replace("{root}", str(root)) for a in args)]
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(root), "<checkout>")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())
    for side in sides:
        if not (side / "src" / "gmrf_select" / "cli.py").is_file():
            sys.stderr.write(f"no program in {side}\n")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        differences, _ = compare(sides, commands(Path(tmp) / "inputs"), 0, Path(tmp),
                                 "program commands")
        _, refused = compare(sides, malformed(Path(tmp) / "malformed"), 2, Path(tmp),
                             "malformed files")
    return 1 if differences or refused else 0


def compare(sides, cmds, expected: int, cwd: Path, group: str) -> tuple[int, int]:
    """Run each command on both sides and print the differences and a count
    line for the group; (differences, commands not exiting ``expected`` on
    the change side)."""
    differences = unexpected_parent = unexpected_change = 0
    for label, cmd in cmds:
        parent, change = (run(side, cmd, cwd) for side in sides)
        unexpected_parent += parent[0] != expected
        unexpected_change += change[0] != expected
        for what, p, c in zip(("exit code", "stdout", "stderr"), parent, change):
            if p != c:
                differences += 1
                print(f"DIFFERS {label}: {what}\n  parent: {p!r:.300}\n  change: {c!r:.300}")
    print(f"{len(cmds)} {group} ({unexpected_parent} on the parent and {unexpected_change} "
          f"on the change exit other than {expected}), {differences} differences")
    return differences, unexpected_change


if __name__ == "__main__":
    sys.exit(main())
