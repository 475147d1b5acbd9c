"""Greedy supermodular minimization: the budget and cover problems.

One loop serves GFFs and GMRFs on Sigma = Lambda[Sbar, Sbar]^-1, inverted by
``models.inverse``. Observing x lowers n * err by ||Sigma[:, x]||^2 /
Sigma[x, x]: a round scores all candidates in one pass, then a rank-one Schur
downdate removes the winner (O(n^2), not O(n^3) per candidate). Sigma is held
times a power of two near 1 / its largest entry: exact in binary, so gains rank
and tie as before, but a huge covariance's squares do not overflow. Gains within
TIE_TOL of the best are re-scored by (err, index), so downdate noise never
breaks a tie. If the winner's fresh gain differs from the engine's by DRIFT_TOL
(relative to err) or more, Sigma is rebuilt from Lambda and the round redone.
A round whose Sigma holds a variance <= 0, the round-off of an ill-conditioned
inverse, is refused with NumericFailure before any gain is formed. On GFFs,
``models.make_report`` attaches BUDGET_FACTOR or cover_factor.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import InvariantViolation, NumericFailure
from .models import SelectionReport, err, inverse, make_report

TIE_TOL = 1e-9
DRIFT_TOL = 1e-6


def _scaled(sigma):
    """(sigma * 2^-e, 2^-e) with 2^e near sigma's largest entry: an exact
    scaling, after which no square overflows."""
    scale = math.ldexp(1.0, -math.frexp(np.abs(sigma).max())[1])
    return sigma * scale, scale


def _choose(model, selected, rows, sigma, scale):
    """The round's winner on sigma = Sigma * scale: (fresh err of S + {x}, x,
    row of x, engine gain of the unscaled Sigma)."""
    variances = np.diag(sigma)
    bad = np.flatnonzero(variances <= 0)
    if bad.size:
        raise NumericFailure(
            f"conditional covariance is not positive definite: vertex {rows[bad[0]]} "
            f"has variance {variances[bad[0]] / scale:.6g}")
    gains = np.einsum("ij,ij->j", sigma, sigma) / variances / model.n
    best = gains.max()
    if not np.isfinite(best):   # an infinite or NaN gain would leave `near` empty
        raise NumericFailure(f"conditional covariance is not finite: greedy's best gain is {best}")
    near = np.flatnonzero(gains >= best - TIE_TOL * best)
    fresh, chosen, k = min((err(model, selected | {rows[i]}), rows[i], i) for i in near)
    return fresh, chosen, k, float(gains[k]) / scale


def _greedy_rounds(model, stop):
    """Add argmin-err vertices until ``stop(selected, err)``; returns the set."""
    selected = set(model.pinned)
    current = err(model, selected)
    rows = [v for v in model.vertices if v not in selected]
    def scaled_sigma():   # on the current rows: at the start and after drift
        idx = [v - 1 for v in rows]
        return _scaled(inverse(model.precision_matrix[np.ix_(idx, idx)],
                               "inverting the precision"))
    sigma, scale = scaled_sigma()

    while rows and not stop(selected, current):
        fresh, chosen, k, engine = _choose(model, selected, rows, sigma, scale)
        if not abs(engine - (current - fresh)) < DRIFT_TOL * current:
            sigma, scale = scaled_sigma()
            fresh, chosen, k, engine = _choose(model, selected, rows, sigma, scale)
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
    return make_report(model, selected, "greedy-budget", b, started=started)


def greedy_cover(model, alpha: float) -> SelectionReport:
    """Add vertices greedily until err(S) <= alpha."""
    if not 0 <= alpha < math.inf:
        raise InvariantViolation(f"alpha must be finite and >= 0, got {alpha}")
    started = time.perf_counter()

    selected = _greedy_rounds(model, lambda s, e: e <= alpha)
    return make_report(model, selected, "greedy-cover", alpha, started=started)
