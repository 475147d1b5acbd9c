"""Greedy supermodular minimization: the budget and cover problems.

One loop serves GFFs and GMRFs on Sigma = Lambda[Sbar, Sbar]^-1, taken from the
model's cached covariance. Observing x lowers n * err by ||Sigma[:, x]||^2 /
Sigma[x, x]: a round scores all candidates in one pass, then a rank-one Schur
downdate removes the winner (O(n^2), not O(n^3) per candidate). Gains within
TIE_TOL of the best are re-scored by (err, index), so downdate noise never
breaks a tie. If the winner's fresh gain differs from the engine's by DRIFT_TOL
(relative to err) or more, Sigma is rebuilt from Lambda and the round redone.
GFF runs carry a certificate; GMRF runs are an uncertified heuristic.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import InvariantViolation
from .models import GffModel, Guarantee, SelectionReport, err, make_report

BUDGET_FACTOR = 1.0 / (1.0 - 1.0 / math.e)
TIE_TOL = 1e-9
DRIFT_TOL = 1e-6


def cover_factor(gff: GffModel) -> float:
    """1 + ln((n-1)^2 R/r) with R the largest and r the smallest edge resistance."""
    resistances = [r for _, _, r in gff.edges]
    big, small = max(resistances), min(resistances)
    return 1.0 + math.log((gff.n - 1) ** 2 * big / small)


def _choose(model, selected, rows, sigma):
    """The round's winner: (fresh err of S + {x}, x, row of x, engine gain)."""
    gains = np.einsum("ij,ij->j", sigma, sigma) / np.diag(sigma) / model.n
    best = gains.max()
    near = np.flatnonzero(gains >= best - TIE_TOL * best)
    fresh, chosen, k = min((err(model, selected | {rows[i]}), rows[i], i) for i in near)
    return fresh, chosen, k, float(gains[k])


def _greedy_rounds(model, stop):
    """Add argmin-err vertices until ``stop(selected, err)``; returns the set."""
    selected = set(model.pinned)
    current = err(model, selected)
    rows = [v for v in model.vertices if v not in selected]
    idx = [v - 1 for v in rows]
    sigma = model.covariance()[np.ix_(idx, idx)]

    while rows and not stop(selected, current):
        fresh, chosen, k, engine = _choose(model, selected, rows, sigma)
        if not abs(engine - (current - fresh)) < DRIFT_TOL * current:
            idx = [v - 1 for v in rows]
            sigma = np.linalg.inv(model.precision().block[np.ix_(idx, idx)])
            fresh, chosen, k, engine = _choose(model, selected, rows, sigma)
        if fresh - current > 1e-12 * max(current, 1.0):
            raise InvariantViolation(
                f"greedy err increased by {fresh - current!r} adding {chosen}")
        keep = np.arange(len(rows)) != k
        sigma = (sigma[np.ix_(keep, keep)]
                 - np.outer(sigma[keep, k], sigma[k, keep]) / sigma[k, k])
        selected.add(chosen)
        del rows[k]
        current = fresh
    return selected


def greedy_budget(model, b: int) -> SelectionReport:
    """Add b vertices greedily, each round the argmin of err(S + {x})."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    started = time.perf_counter()

    selected = _greedy_rounds(model, lambda s, e: len(s - model.pinned) >= b)
    guarantee = None
    if isinstance(model, GffModel):
        guarantee = Guarantee(BUDGET_FACTOR, "supermodular greedy, budget")
    return make_report(model, selected, "greedy-budget", b,
                       guarantee=guarantee, started=started)


def greedy_cover(model, alpha: float) -> SelectionReport:
    """Add vertices greedily until err(S) <= alpha."""
    if not 0 <= alpha < math.inf:
        raise InvariantViolation(f"alpha must be finite and >= 0, got {alpha}")
    started = time.perf_counter()

    selected = _greedy_rounds(model, lambda s, e: e <= alpha)
    guarantee = None
    if isinstance(model, GffModel):
        guarantee = Guarantee(cover_factor(model), "supermodular cover, log-ratio bound")
    return make_report(model, selected, "greedy-cover", alpha,
                       guarantee=guarantee, started=started)
