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

Expected differences against a parent from before greedy refused a variance
<= 0: five of the six wide-tree commands. There, wide7 `--alpha 0.1` exits 1
with a traceback, wide7's budgets exit 0 with a wrong answer, and wide173's
`--alpha 0.1` and `--budget 2` print a RuntimeWarning; here each exits 2 with
one `error:` line naming the variance. wide173 `--budget 1` is the same on
both sides. Against a parent from before greedy scaled its
covariance by a power of two: the greedy command on the 1e200 resistances
exits 2 there with
`conditional covariance overflows` and answers [1, 3] here, as exact does.
Against a parent from before the package stopped warning: the stderr of every
`select dp` on a GFF whose epsilon is clamped, and of `validate --trials 0`,
where a two-line RuntimeWarning became one `note:` line.

Apart from these program commands, it runs `eval --set 1` on each of a
group of malformed model files (MALFORMED), `select dp --td` on a unit
4-path with a decomposition file whose bag exceeds its declared width, and
two `gen gff` runs with resistances from 5e-324 to 1e-300, whose error names
the first drawn edge with an overflowing conductance. Both sides should
refuse each of these inputs with exit 2; a change to the messages at the input
boundary shows up there as a list of differences. Against a parent from
before every covariance was inverted by `models.inverse`, one is expected:
the `singular covariance` file's stderr, `error: covariance is singular:
Singular matrix` there and `error: covariance is singular (its inverse:
Singular matrix)` here. Last come two commands that a size cap refuses with
exit 3 and one `infeasible:` line: `select exact --max-n 4` on a unit 5-path
and `select dp --state-cap 10` on a unit 6-path.

Every command runs in a fresh `python3` process with PYTHONPATH set to the
side's `src/` and bytecode writing off, so neither checkout changes. A command
differs when its exit code, stdout, stderr or the file it writes in place of
`{out}` differs; in stderr each side's checkout path is replaced by
`<checkout>` first. The script prints each
difference and, per group, the number of commands, of those that exit as not
expected on either side (nonzero for a program command, other than 2 for a
refused input, other than 3 for a capped command), and of differences. It
exits 1 if a program command or a capped command differs, or if on the change
side a refused input does not exit 2 or a capped command does not exit 3.

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


# (label, text) of model files that the input boundary refuses
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
    ("covariance 1e-308", "gmrf-cov\n2 2\n1 2\n1e-308 0\n0 1\n"),
    ("gff huge n", "gff 200000 1 1\n1 2 1\n"),
]


def malformed(input_root: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after `python3`) of an eval of each MALFORMED file,
    of a dp run with a too-narrow decomposition file, both written under
    ``input_root``, and of the refused `gen gff` runs."""
    input_root.mkdir(parents=True)
    out = []
    for number, (label, text) in enumerate(MALFORMED):
        path = input_root / f"bad{number}.gmrf"
        path.write_text(text)
        out.append((f"malformed {label}",
                    ["-m", "gmrf_select.cli", "eval", "--set", "1", "--input", str(path)]))
    model, td = input_root / "path4.gff", input_root / "narrow.td"
    model.write_text(SMALL["path4.gff"])
    td.write_text("s td 2 2 4\nb 1 1 2 3\nb 2 3 4\n1 2\n")   # width+1 = 2, a bag of 3
    out.append(("malformed td width", ["-m", "gmrf_select.cli", "select", "dp", "--budget",
                                       "1", "--input", str(model), "--td", str(td)]))
    # conductances past the largest float: refused at the first such edge in draw order,
    # (1,2) at seed 0 and (2,4) at seed 4, where (1,5) is the first in sorted order
    for seed in ("0", "4"):
        out.append((f"gen gff tiny resistances seed {seed}",
                    ["-m", "gmrf_select.cli", "gen", "gff", "--n", "12", "--seed", seed,
                     "--r-min", "5e-324", "--r-max", "1e-300"]))
    return out


def capped(input_root: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after `python3`) of the exact and dp runs that a size
    cap refuses, their models written under ``input_root``."""
    input_root.mkdir(parents=True)
    path5, path6 = input_root / "path5.gff", input_root / "path6.gff"
    path5.write_text(SMALL["path5.gff"])
    path6.write_text("gff 6 5 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n")
    return [("exact over max-n", ["-m", "gmrf_select.cli", "select", "exact", "--budget", "2",
                                  "--max-n", "4", "--input", str(path5)]),
            ("dp state cap", ["-m", "gmrf_select.cli", "select", "dp", "--budget", "2",
                              "--state-cap", "10", "--input", str(path6)])]


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
        differences, _ = compare(sides, commands(Path(tmp) / "inputs"), 0, Path(tmp),
                                 "program commands")
        _, refused = compare(sides, malformed(Path(tmp) / "malformed"), 2, Path(tmp),
                             "refused inputs")
        cap_differences, uncapped = compare(sides, capped(Path(tmp) / "capped"), 3, Path(tmp),
                                            "capped commands")
    return 1 if differences or refused or cap_differences or uncapped else 0


def compare(sides, cmds, expected: int, cwd: Path, group: str) -> tuple[int, int]:
    """Run each command on both sides and print the differences and a count
    line for the group; (differences, commands not exiting ``expected`` on
    the change side)."""
    differences = unexpected_parent = unexpected_change = 0
    for label, cmd in cmds:
        parent, change = (run(side, cmd, cwd) for side in sides)
        unexpected_parent += parent[0] != expected
        unexpected_change += change[0] != expected
        for what, p, c in zip(("exit code", "stdout", "stderr", "written file"),
                              parent, change):
            if p != c:
                differences += 1
                print(f"DIFFERS {label}: {what}\n  parent: {p!r:.300}\n  change: {c!r:.300}")
    print(f"{len(cmds)} {group} ({unexpected_parent} on the parent and {unexpected_change} "
          f"on the change exit other than {expected}), {differences} differences")
    return differences, unexpected_change


if __name__ == "__main__":
    sys.exit(main())
