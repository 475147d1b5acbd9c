"""Command-line interface.

Subcommands: eval, select {exact,greedy,dp}, gen {gff,gmrf},
convert tree-gmrf-to-gff, validate. Exit codes: 0 ok, 2 parse, invariant or
file error, 3 infeasible (instance or state-space cap), 4 suite violations.
The solvers and the suites are imported inside the commands that run them, so
no other command loads them.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from . import io
from .errors import (
    GmrfSelectError,
    InstanceTooLarge,
    InvariantViolation,
    NotATree,
)
from .models import (
    GffModel,
    GmrfModel,
    make_report,
    random_gff,
    random_gmrf,
    tree_gmrf_to_gff,
)


def _load_model(args):
    model = io.parse_model(args.input)
    if args.pin is not None:
        if not isinstance(model, GffModel):
            raise InvariantViolation("--pin applies to GFF models only")
        model = GffModel(model.n, model.edges, pin=args.pin)
    return model


def _parse_set(text: str) -> tuple[int, ...]:
    return io.fields(text.replace(",", " ").split(), int, f"bad vertex set {text.strip()!r}")


def _write_output(text: str, path: str | None):
    """Write to the file at ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_note(record: dict):
    if "note" in record:
        sys.stderr.write(f"note: {record['note']}\n")


def _print_report(report, args):
    sys.stdout.write(io.emit_report(report, fmt=args.format, timing=args.timing))
    _print_note(report.details)


def cmd_eval(args):
    model = _load_model(args)
    started = time.perf_counter()
    report = make_report(model, _parse_set(args.set), "eval", None, started=started)
    _print_report(report, args)
    return 0


def cmd_select(args):
    model = _load_model(args)
    if args.mode == "exact":
        from .exact import DEFAULT_MAX_N, exact_budget, exact_cover

        max_n = DEFAULT_MAX_N if args.max_n is None else args.max_n
        if args.budget is not None:
            report = exact_budget(model, args.budget, max_n=max_n)
        else:
            report = exact_cover(model, args.alpha, max_n=max_n)
    elif args.mode == "greedy":
        from .greedy import greedy_budget, greedy_cover

        if args.budget is not None:
            report = greedy_budget(model, args.budget)
        else:
            report = greedy_cover(model, args.alpha)
    else:
        from .decomposition import balance_for_tree, parse_and_normalize
        from .dp import DEFAULT_STATE_CAP, dp_select

        if args.budget is None:
            raise InvariantViolation("select dp needs --budget")
        if args.td is not None:
            td = parse_and_normalize(io.read_text(args.td), model)
        else:
            try:
                td = balance_for_tree(model.n, model.graph_edges())
            except NotATree:
                raise InvariantViolation(
                    "the model's graph is not a tree; supply a decomposition "
                    "file with --td")
        # the model picks the rounding; --rounding may only confirm it
        if args.rounding == "gff" and not isinstance(model, GffModel):
            raise InvariantViolation("gff factorization needs a GffModel")
        if args.rounding == "svd" and isinstance(model, GffModel):
            raise InvariantViolation("svd rounding needs a GMRF; a GFF Laplacian is singular")
        report = dp_select(model, td, args.budget, args.eps_prime,
                           state_cap=DEFAULT_STATE_CAP if args.state_cap is None
                           else args.state_cap)
    _print_report(report, args)
    return 0


def cmd_gen(args):
    if args.kind == "gff":
        model = random_gff(args.n, density=args.density,
                           resistance_range=(args.r_min, args.r_max),
                           seed=args.seed)
    else:
        model = random_gmrf(args.n, tree_width_hint=args.width,
                            condition_cap=args.cond_cap, seed=args.seed)
    _write_output(io.format_model(model), args.out)
    return 0


def cmd_convert(args):
    model = io.parse_model(args.input)
    if not isinstance(model, GmrfModel):
        raise InvariantViolation("convert expects a GMRF model file")
    w, gff, tail = tree_gmrf_to_gff(model)
    text = io.format_model(gff)
    header = ("# scaling w: " + " ".join(f"{x:.12g}" for x in w) + "\n"
              + "# observed tail: " + " ".join(str(v) for v in tail) + "\n")
    _write_output(header + text, args.out)
    return 0


def cmd_validate(args):
    from .validate import validate_suite

    code, payload = validate_suite(seed=args.seed, trials=args.trials,
                                   out_path=args.out)
    _print_note(payload)
    n_viol = sum(1 for f in payload["findings"] if f["severity"] == "violation")
    n_disc = len(payload["findings"]) - n_viol
    sys.stdout.write(f"validate: {n_viol} violations, {n_disc} discrepancies "
                     f"(seed={args.seed}, trials={args.trials})\n")
    for f in payload["findings"]:
        sys.stdout.write(f"  [{f['severity']}] {f['suite']}: {f['detail']}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gmrf-select",
        description="Observation-subset selection for Gaussian MRFs and "
                    "Gaussian free fields")
    sub = top.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="model file")
        p.add_argument("--pin", type=int, default=None,
                       help="override the pinned vertex (GFF only)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall_ms in the report (non-deterministic)")

    p_eval = sub.add_parser("eval", help="evaluate err(S) for a given set")
    add_io(p_eval)
    p_eval.add_argument("--set", required=True, help="comma-separated vertices")
    p_eval.set_defaults(fn=cmd_eval)

    p_sel = sub.add_parser("select", help="run a selection solver")
    p_sel.add_argument("mode", choices=("exact", "greedy", "dp"))
    add_io(p_sel)
    group = p_sel.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=int, default=None)
    group.add_argument("--alpha", type=float, default=None)
    p_sel.add_argument("--max-n", type=int, default=None,
                       help="exhaustive-search size cap (exact only)")
    p_sel.add_argument("--eps-prime", type=float, default=0.1,
                       help="target approximation slack for dp")
    p_sel.add_argument("--td", default=None, help="tree-decomposition file (dp)")
    p_sel.add_argument("--rounding", choices=("gff", "svd"), default=None,
                       help="dp rounding (optional; must match the model)")
    p_sel.add_argument("--state-cap", type=int, default=None)
    p_sel.set_defaults(fn=cmd_select)

    p_gen = sub.add_parser("gen", help="generate a random model file")
    p_gen.add_argument("kind", choices=("gff", "gmrf"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--r-min", type=float, default=0.5)
    p_gen.add_argument("--r-max", type=float, default=2.0)
    p_gen.add_argument("--width", type=int, default=2)
    p_gen.add_argument("--cond-cap", type=float, default=1e4)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen)

    p_conv = sub.add_parser("convert", help="model conversions")
    p_conv.add_argument("what", choices=("tree-gmrf-to-gff",))
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(fn=cmd_convert)

    p_val = sub.add_parser("validate", help="run the cross-solver suites")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=100)
    p_val.add_argument("--out", default=None, help="findings JSON path")
    p_val.set_defaults(fn=cmd_validate)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InstanceTooLarge as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 3
    except (GmrfSelectError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> int:
    """Process entry: ``python -m gmrf_select.cli`` and the ``gmrf-select``
    script. The objects made by the imports live until exit, so they are frozen
    out of the collector, and no collection walks them again, the one at exit
    included. The modules a command imports when it runs (the solvers, the
    suites) come after the freeze and are not frozen. main() leaves the
    collector alone, since tests call it in-process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
