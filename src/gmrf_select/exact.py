"""Exhaustive-search oracle for the budget and cover problems on small
instances. This is the ground truth every approximation claim is tested
against, so it stays deliberately simple: plain subset enumeration, no pruning,
nothing shared with greedy. Subsets of one size are scored in stacked chunks
(one Cholesky and one inverse per chunk); those whose score could decide the
answer are scored again with ``models.err``, which alone ranks them.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np

from .errors import InfeasibleParameters, InstanceTooLarge, InvariantViolation
from .models import SelectionReport, err, make_report

DEFAULT_MAX_N = 20
# Subsets per stacked scoring call. The name dates from the thread pool it
# once sized; tests patch it under this name to put chunk edges inside ties.
_THREAD_CHUNK = 4096
_TIE_TOL = 1e-9  # stacked scores this close (relative) are re-scored with err


def thread_count() -> int:
    """GMRF_SELECT_THREADS (unset or empty means 1). The search is serial
    whatever the value; a value that is not an integer >= 1 is still refused."""
    raw = os.environ.get("GMRF_SELECT_THREADS") or "1"
    if not raw.strip().isdigit() or int(raw) < 1:
        raise InfeasibleParameters(f"GMRF_SELECT_THREADS={raw!r} is not an integer >= 1")
    return int(raw)


def _check_size(model, max_n):
    if model.n > max_n:
        raise InstanceTooLarge(
            f"n = {model.n} exceeds the exhaustive-search cap {max_n}; "
            f"raise max_n explicitly to override")


def _shortlist(model, combos, alpha=None):
    """Yield, in enumeration order, the sorted selections whose stacked score
    is within _TIE_TOL of ``alpha`` (of the chunk's best when None). A chunk
    with a block that is not positive definite is yielded whole, so that err
    raises at the same subset as a per-subset loop."""
    lam = model.precision().block  # full support: vertex v is row v - 1
    pinned = model.pinned
    fixed = [v - 1 for v in pinned]
    combos = iter(combos)
    while chunk := list(itertools.islice(combos, _THREAD_CHUNK)):
        rows = np.arange(len(chunk))[:, None]
        free = np.ones((len(chunk), model.n), dtype=bool)
        free[:, fixed] = False
        free[rows, np.array(chunk, dtype=int).reshape(len(chunk), -1) - 1] = False
        idx = free.nonzero()[1].reshape(len(chunk), -1)
        try:
            chol = np.linalg.cholesky(lam[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError:
            keep = itertools.repeat(True)
        else:
            inv_l = np.linalg.inv(chol)
            scores = np.sum(inv_l * inv_l, axis=(1, 2)) / model.n
            keep = scores <= (scores.min() if alpha is None else alpha) * (1 + _TIE_TOL)
        for extra, kept in zip(chunk, keep):
            if kept:
                yield tuple(sorted(pinned | set(extra)))


def exact_budget(model, b: int, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """argmin over |S| <= b of err(S); the model's pinned vertices are forced
    in and do not count against the budget. Ties go to the lexicographically
    smallest sorted selection."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    _check_size(model, max_n)
    thread_count()
    started = time.perf_counter()
    candidates = [v for v in model.vertices if v not in model.pinned]
    best = min((err(model, sel), sel) for k in range(0, min(b, len(candidates)) + 1)
               for sel in _shortlist(model, itertools.combinations(candidates, k)))
    return make_report(model, best[1], "exact", b, started=started)


def exact_cover(model, alpha: float, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """Smallest S with err(S) <= alpha, by increasing-size enumeration; among
    the minimal size, the lexicographically first achiever wins."""
    if not 0 <= alpha < math.inf:
        raise InvariantViolation(f"alpha must be finite and >= 0, got {alpha}")
    _check_size(model, max_n)
    thread_count()
    started = time.perf_counter()
    candidates = [v for v in model.vertices if v not in model.pinned]
    for k in range(0, len(candidates) + 1):
        for sel in _shortlist(model, itertools.combinations(candidates, k), alpha):
            if err(model, sel) <= alpha:
                return make_report(model, sel, "exact", alpha, started=started)
    raise InvariantViolation("err of the full vertex set is 0; unreachable")
