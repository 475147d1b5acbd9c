"""Compare what two checkouts print for the same commands.

    python3 tools/same_output.py --parent DIR [--change DIR]

DIR is a source checkout of the parent commit, for example made with `git
archive <sha> | tar -x -C DIR`; --change defaults to this checkout. The script
writes, into a temporary directory, the input files of every request of every
workload in `benchmark/workloads.py` (this checkout's) at seeds 1, 2 and 3,
and runs each distinct request once per side. It adds `validate --trials 30
--seed 0`, `validate --trials 0` and `validate --trials 100 --seed 0 --out
FILE` (at seed 0 its findings file holds two greedy-budget discrepancies with
their numbers, and each side's file is compared byte for byte), a `convert
tree-gmrf-to-gff` and a `--format text` eval of a seed-1 tree GMRF, three
`gen gff` runs (the default density, 0 and 1), a `gen gmrf`, the `--help` of
the program and of each of its five subcommands, a `select greedy
--alpha` on a GMRF (whose report promises nothing), `--format text` runs
(which print the guarantee's factor) of `select greedy` with a budget and with
an alpha, `select dp` and `select exact` on seed-1 GFFs, and each side's five
demos. On the small models in SMALL it runs `select exact --budget 2` and a
`--alpha` cover at that budget's optimum on a unit 6-cycle and a unit 5-path,
whose tie classes test exact's tie-breaking, and `select exact` and `select
greedy` with `--budget 1` on a GFF with resistances of 1e200, whose covariance
is finite but whose squares are not, and `select dp --budget 1` on a unit
4-path, whose epsilon is not clamped, so neither side prints anything on
stderr. On two 8-vertex GFF trees with a resistance of 1e308 on edge 1-4,
"wide7" and "wide173", it runs `select greedy` with `--alpha 0.1`, `--budget
1` and `--budget 2`: their inverted Laplacians hold variances of about
-4.5e15 (wide7) and 4.5e15 (wide173), rounding noise.

Refused inputs are left to tier-1, which pins each refusal byte for byte,
with warnings as errors, in two tables of `tests/test_cli.py`: BAD_FILES (file
text to exact message) and REFUSED_COMMANDS (files and arguments to exit code
and exact stderr). The wide trees' refused greedy rounds stay here, since the
variance they print is LAPACK round-off, which tier-1 matches by pattern only.

Every command runs in a fresh `python3` process with PYTHONPATH set to the
side's `src/` and bytecode writing off, so neither checkout changes. A command
differs when its exit code, stdout, stderr or the file it writes in place of
`{out}` differs; in stderr each side's checkout path is replaced by
`<checkout>` first. The script prints each difference and the number of
commands, of those that exit nonzero on either side, and of differences. It
exits 1 if a command differs.

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
# file name -> text of the small models the tie-breaking and overflow commands use
SMALL = {
    "cycle6.gff": "gff 6 6 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 1 1\n",
    "path5.gff": "gff 5 4 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n",
    "huge.gff": "gff 3 2 1\n1 2 1e200\n2 3 1e200\n",
    "path4.gff": "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n",
    "wide7.gff": "gff 8 7 1\n1 2 1.184870027179727\n1 3 0.9541201029564199\n"
                 "1 8 1.002457100475345\n2 5 1.4512469168043132\n4 6 0.8544418341800417\n"
                 "6 7 1.2108684302174382\n1 4 1e308\n",
    "wide173.gff": "gff 8 7 1\n1 2 1.3658351070497277\n1 3 1.0470089269388356\n"
                   "1 8 0.686686094577753\n2 5 0.8193390533684932\n4 6 0.7315870100824629\n"
                   "6 7 0.9500090726268005\n1 4 1e308\n",
}


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
    gff_tree = str(input_root / "dp-tree-seed1" / "tree16.gff")
    small = input_root / "oracle-small-seed1"
    gff, gmrf = str(small / "gff16.gff"), str(small / "gmrf16.gmrf")
    text = ["--format", "text"]
    out += [("validate 30", ["validate", "--trials", "30", "--seed", "0"]),
            ("validate 0", ["validate", "--trials", "0"]),
            ("validate 100 findings", ["validate", "--trials", "100", "--seed", "0",
                                       "--out", "{out}"]),
            ("convert", ["convert", "tree-gmrf-to-gff", "--input", tree]),
            ("gen gff", ["gen", "gff", "--n", "12"]),
            ("gen gff density 0", ["gen", "gff", "--n", "12", "--density", "0"]),
            ("gen gff density 1", ["gen", "gff", "--n", "12", "--density", "1"]),
            ("gen gmrf", ["gen", "gmrf", "--n", "8", "--width", "2", "--seed", "5"]),
            ("eval text", ["eval", *text, "--set", "1,4", "--input", tree]),
            ("greedy alpha gmrf", ["select", "greedy", "--alpha", "0.05", "--input", gmrf]),
            ("greedy budget text", ["select", "greedy", "--budget", "3", *text, "--input", gff]),
            ("greedy alpha text", ["select", "greedy", "--alpha", "0.05", *text,
                                   "--input", gff]),
            ("dp text", ["select", "dp", "--budget", "2", "--eps-prime", "0.1", *text,
                         "--input", gff_tree]),
            ("exact text", ["select", "exact", "--budget", "3", *text, "--input", gff])]
    (input_root / "small").mkdir()
    for fname, model_text in SMALL.items():
        (input_root / "small" / fname).write_text(model_text)
    cycle, path, huge, path4, *wide = (str(input_root / "small" / fname) for fname in SMALL)
    # alpha is the budget-2 optimum's err exactly: exact's cover meets it on the dot
    for label, model, alpha in (("cycle6", cycle, "0.24999999999999992"),
                                ("path5", path, "0.19999999999999996")):
        out += [(f"exact {label}", ["select", "exact", "--budget", "2", "--input", model]),
                (f"exact cover {label}", ["select", "exact", "--alpha", alpha,
                                          "--input", model])]
    out += [("exact huge resistances", ["select", "exact", "--budget", "1", "--input", huge]),
            ("greedy huge resistances", ["select", "greedy", "--budget", "1",
                                         "--input", huge]),
            ("dp path4", ["select", "dp", "--budget", "1", "--input", path4])]
    for label, model in zip(("wide7", "wide173"), wide):
        for limit in (["--alpha", "0.1"], ["--budget", "1"], ["--budget", "2"]):
            out.append((f"greedy {label} {' '.join(limit)}",
                        ["select", "greedy", *limit, "--input", model]))
    out += [("help", ["--help"])] + [(f"help {command}", [command, "--help"]) for command in
                                      ("select", "eval", "gen", "convert", "validate")]
    out = [(label, ["-m", "gmrf_select.cli", *argv]) for label, argv in out]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo {demo.stem}", [f"{{root}}/demos/{demo.name}"]))
    return out


def run(root: Path, args: list[str], cwd: Path) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr (checkout path replaced) and the bytes of the
    file written in place of `{out}` (None if the command writes none)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = cwd / "out.json"
    argv = [sys.executable, *(a.replace("{root}", str(root)).replace("{out}", str(out))
                              for a in args)]
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return (proc.returncode, proc.stdout, proc.stderr.replace(str(root), "<checkout>"),
            written)


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
        return compare(sides, commands(Path(tmp) / "inputs"), Path(tmp))


def compare(sides, cmds, cwd: Path) -> int:
    """Run each command on both sides, print the differences and a count line;
    1 if a command differs, else 0."""
    differences = failed_parent = failed_change = 0
    for label, cmd in cmds:
        parent, change = (run(side, cmd, cwd) for side in sides)
        failed_parent += parent[0] != 0
        failed_change += change[0] != 0
        for what, p, c in zip(("exit code", "stdout", "stderr", "written file"),
                              parent, change):
            if p != c:
                differences += 1
                print(f"DIFFERS {label}: {what}\n  parent: {p!r:.300}\n  change: {c!r:.300}")
    print(f"{len(cmds)} commands ({failed_parent} on the parent and {failed_change} on the "
          f"change exit nonzero), {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
