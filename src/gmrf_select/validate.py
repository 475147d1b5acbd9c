"""Cross-solver validation driver.

Runs the agreement, supermodularity, greedy-vs-exact and dp-vs-exact suites on
seeded random instances. Violations of contracts that must hold become
findings and a nonzero exit. The greedy budget factor e/(e-1) is a stated but
unproven certificate: breaches of it are serialized as "discrepancy" findings
(never silently absorbed) but do not fail the run, while the classical mixed
bound (1/e) err(S0) + (1 - 1/e) OPT is enforced. See the README's
"greedy certificate caveat". The supermodularity suite decides on the numbers
of one ``models.err_stack`` call per block of 100 models (the scorer behind
``err``) and never calls ``err``. A run of zero trials passes with a "note" in its
payload; the module raises no warning.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import models
from .decomposition import balance_for_tree
from .dp import dp_select
from .errors import InfeasibleParameters
from .exact import exact_budget, exact_cover, thread_count
from .greedy import greedy_budget, greedy_cover
from .models import err, err_stack, fill_laplacian, random_gff, random_gff_edges


def _finding(severity, suite, detail, **data):
    return {"severity": severity, "suite": suite, "detail": detail, **data}


def suite_three_path(seed, trials):
    findings = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(3, 13))
        g = random_gff(n, density=float(rng.uniform(0.1, 0.5)),
                       seed=int(rng.integers(0, 1 << 30)))
        extra = [v for v in g.vertices if v != g.pin
                 and rng.random() < 0.4]
        s = tuple(sorted({g.pin, *extra}))
        e1 = err(g, s)
        unobserved = [v for v in g.vertices if v not in s]
        e2 = sum(models.conditional_variance(g, i, s) for i in unobserved) / n
        e3 = sum(models.effective_resistance(g, i, s) for i in unobserved) / n
        scale = max(e1, 1e-300)
        if abs(e1 - e2) > 1e-9 * scale or abs(e1 - e3) > 1e-9 * scale:
            findings.append(_finding(
                "violation", "three-path", "evaluation paths disagree",
                n=n, s=list(s), trace=e1, condvar=e2, resistance=e3))
    return findings


def _draw_checks(rng, count):
    """``count`` supermodularity checks (A, x, y), 10 per model (n 3-10, pin
    1; ``random_gff``'s draw, its Laplacian written straight into its slot
    of the stack, with no ``GffModel`` built): x and y are two free
    vertices, and each other free vertex joins A with probability 0.3, drawn
    in vertex order. Returns the models' precisions zero-padded to 10 x 10
    and their n, each check's model, x and y as positions p among the free
    vertices (vertex p + 2), and the unobserved vertices of A, A+x, A+y and
    A+x+y as four mask rows per check."""
    model_count = -(-count // 10)
    precisions, ns = np.zeros((model_count, 10, 10)), np.empty(model_count, dtype=np.intp)
    owner, pick = np.arange(count) // 10, np.empty((count, 2), dtype=np.intp)
    joins = np.zeros((count, 11), dtype=bool)   # column 2 + r: the r-th other vertex joins
    for c in range(count):
        if c % 10 == 0:
            n = ns[c // 10] = int(rng.integers(3, 11))
            edges = random_gff_edges(n, float(rng.uniform(0.1, 0.6)), (0.5, 2.0),
                                     int(rng.integers(0, 1 << 30)))
            # in (u, v) order, as a GffModel sums them: the diagonal keeps its bits
            fill_laplacian(precisions[c // 10, :n, :n], sorted(edges))
        pick[c] = rng.choice(n - 1, size=2, replace=False)
        joins[c, 2:n - 1] = rng.random(n - 3) < 0.3
    pos, x, y = np.arange(9), pick[:, :1], pick[:, 1:]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    # position p is the p-th other vertex below lo, the (p - 1)-th up to hi, else the (p - 2)-th
    in_a = np.where(pos < lo, joins[:, 2:], np.where(pos < hi, joins[:, 1:10], joins[:, :9]))
    in_a &= (pos != x) & (pos != y)
    unobserved = np.zeros((count, 4, 10), dtype=bool)
    unobserved[:, :, 1:] = ((pos < ns[owner, None] - 1) & ~in_a)[:, None]
    unobserved[:, 1::2, 1:] &= (pos != x)[:, None]   # A+x, A+x+y
    unobserved[:, 2:, 1:] &= (pos != y)[:, None]     # A+y, A+x+y
    return precisions, ns, owner, pick, unobserved.reshape(4 * count, 10)


def suite_supermodularity(seed, trials):
    """The checks of ``_draw_checks`` in blocks of 1,000 (100 models): each
    block's sets are scored in one ``err_stack`` call, the scorer behind err.
    A check whose scores break diminishing returns by more than 1e-9 is
    a finding, and it carries those scores."""
    findings = []
    rng = np.random.default_rng(seed)
    for start in range(0, trials, 1000):
        count = min(trials - start, 1000)
        precisions, ns, owner, pick, unobserved = _draw_checks(rng, count)
        scores = err_stack(precisions, ns, owner.repeat(4), unobserved)
        e_a, e_ax, e_ay, e_axy = scores.reshape(count, 4).T
        lhs, rhs = e_a - e_ax, e_ay - e_axy
        for c in (lhs < rhs - 1e-9).nonzero()[0]:
            n = int(ns[owner[c]])
            findings.append(_finding(
                "violation", "supermodularity", "diminishing returns violated",
                n=n, a=((~unobserved[4 * c, :n]).nonzero()[0] + 1).tolist(),
                x=int(pick[c, 0]) + 2, y=int(pick[c, 1]) + 2,
                lhs=float(lhs[c]), rhs=float(rhs[c])))
    return findings


def suite_greedy_vs_exact(seed, trials):
    findings = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(3, 11))
        g = random_gff(n, density=float(rng.uniform(0.0, 0.5)),
                       seed=int(rng.integers(0, 1 << 30)))
        b = int(rng.integers(0, 5))
        gr = greedy_budget(g, b)
        ex = exact_budget(g, b)
        base = err(g, {g.pin})
        classical = base / math.e + (1.0 - 1.0 / math.e) * ex.err_value
        if gr.err_value > classical + 1e-9:
            findings.append(_finding(
                "violation", "greedy-budget", "classical mixed bound violated",
                n=n, b=b, greedy=gr.err_value, exact=ex.err_value, bound=classical))
        if gr.err_value > gr.guarantee.factor * ex.err_value + 1e-9:
            findings.append(_finding(
                "discrepancy", "greedy-budget",
                "stated factor e/(e-1) exceeded (known-unproven certificate)",
                n=n, b=b, greedy=gr.err_value, exact=ex.err_value,
                ratio=gr.err_value / ex.err_value if ex.err_value else math.inf))
        alpha = float(base * rng.uniform(0.05, 0.95))
        gc = greedy_cover(g, alpha)
        ec = exact_cover(g, alpha)
        if len(gc.selected) > gc.guarantee.factor * len(ec.selected) + 1e-9:
            findings.append(_finding(
                "violation", "greedy-cover", "cover certificate violated",
                n=n, alpha=alpha, greedy=len(gc.selected), exact=len(ec.selected),
                factor=gc.guarantee.factor))
    return findings


def suite_dp_vs_exact(seed, trials):
    findings = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(4, 10))
        g = random_gff(n, density=0.0, seed=int(rng.integers(0, 1 << 30)))
        b = int(rng.integers(0, 3))
        td = balance_for_tree(n, g.graph_edges())
        sel = dp_select(g, td, b, 0.1)
        ex = exact_budget(g, b)
        if sel.err_value > sel.guarantee.factor * ex.err_value + 1e-9:
            findings.append(_finding(
                "violation", "dp-vs-exact", "DP err above 1.1 * exact",
                n=n, b=b, dp=sel.err_value, exact=ex.err_value))
    return findings


SUITES = (
    ("three-path", suite_three_path),
    ("supermodularity", suite_supermodularity),
    ("greedy-vs-exact", suite_greedy_vs_exact),
    ("dp-vs-exact", suite_dp_vs_exact),
)


def validate_suite(seed: int = 0, trials: int = 100, out_path: str | None = None):
    """Run all suites; returns (exit_code, findings). Exit 0 when every
    enforced contract holds (discrepancy findings do not fail the run), 4 on
    violations. trials = 0 is a vacuous pass with a note; trials < 0 and
    seed < 0 are refused. ``out_path`` is opened before any suite runs, so an
    unwritable path fails at once; it is removed again if a suite raises."""
    if trials < 0:
        raise InfeasibleParameters(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise InfeasibleParameters(f"seed must be >= 0, got {seed}")
    if trials:
        thread_count()   # a bad GMRF_SELECT_THREADS is refused before out_path is opened
    fh = open(out_path, "w") if out_path else None
    try:
        if trials == 0:
            code, payload = 0, {"seed": seed, "trials": 0, "findings": [],
                                "note": "vacuous pass: zero trials"}
        else:
            counts = {"three-path": trials, "supermodularity": max(trials * 10, 1000),
                      "greedy-vs-exact": trials, "dp-vs-exact": max(4, trials // 10)}
            findings = [f for name, fn in SUITES for f in fn(seed, counts[name])]
            code = 4 if any(f["severity"] == "violation" for f in findings) else 0
            payload = {"seed": seed, "trials": trials,
                       "counts": counts, "findings": findings}
        if fh is not None:
            with fh:
                json.dump(payload, fh, indent=2)
    except BaseException:   # leave no empty or partial findings file behind
        if fh is not None:
            fh.close()
            # only a regular file: never unlink a device or a link like /dev/stdout
            if os.path.isfile(out_path) and not os.path.islink(out_path):
                os.remove(out_path)
        raise
    return code, payload
