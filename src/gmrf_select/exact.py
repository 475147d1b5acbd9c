"""Exhaustive-search oracle for the budget and cover problems on small
instances. This is the ground truth every approximation claim is tested
against, so it stays deliberately simple: plain subset enumeration, no pruning.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor

from .errors import InfeasibleParameters, InstanceTooLarge, InvariantViolation
from .models import GffModel, SelectionReport, err, make_report

DEFAULT_MAX_N = 20
_THREAD_CHUNK = 4096


def thread_count() -> int:
    """Worker threads from GMRF_SELECT_THREADS (unset or empty means 1)."""
    raw = os.environ.get("GMRF_SELECT_THREADS") or "1"
    if not raw.strip().isdigit() or int(raw) < 1:
        raise InfeasibleParameters(f"GMRF_SELECT_THREADS={raw!r} is not an integer >= 1")
    return int(raw)


def _candidates(model):
    if isinstance(model, GffModel):
        return [v for v in model.vertices if v != model.pin], {model.pin}
    return list(model.vertices), set()


def _check_size(model, max_n):
    if model.n > max_n:
        raise InstanceTooLarge(
            f"n = {model.n} exceeds the exhaustive-search cap {max_n}; "
            f"raise max_n explicitly to override")


def _best_of(model, base, combos):
    """Deterministic argmin over subsets by (err, sorted-selection) key."""
    best = None

    def key_of(extra):
        sel = tuple(sorted(base | set(extra)))
        return (err(model, sel), sel)

    threads = thread_count()
    combos = list(combos)
    if threads > 1 and len(combos) > _THREAD_CHUNK:
        chunks = [combos[i:i + _THREAD_CHUNK]
                  for i in range(0, len(combos), _THREAD_CHUNK)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(lambda ch: min(map(key_of, ch)), chunks):
                if best is None or part < best:
                    best = part
    else:
        for extra in combos:
            k = key_of(extra)
            if best is None or k < best:
                best = k
    return best


def exact_budget(model, b: int, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """argmin over |S| <= b of err(S); for GFFs the pin is forced in and does
    not count against the budget. Ties go to the lexicographically smallest
    sorted selection."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    _check_size(model, max_n)
    started = time.perf_counter()
    candidates, base = _candidates(model)
    best = None
    for k in range(0, min(b, len(candidates)) + 1):
        part = _best_of(model, base, itertools.combinations(candidates, k))
        if best is None or part < best:
            best = part
    return make_report(model, best[1], "exact", b, started=started)


def exact_cover(model, alpha: float, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """Smallest S with err(S) <= alpha, by increasing-size enumeration; among
    the minimal size, the lexicographically first achiever wins."""
    if alpha < 0:
        raise InvariantViolation(f"alpha must be >= 0, got {alpha}")
    _check_size(model, max_n)
    started = time.perf_counter()
    candidates, base = _candidates(model)
    for k in range(0, len(candidates) + 1):
        for extra in itertools.combinations(candidates, k):
            sel = tuple(sorted(base | set(extra)))
            if err(model, sel) <= alpha:
                return make_report(model, sel, "exact", alpha, started=started)
    raise InvariantViolation("err of the full vertex set is 0; unreachable")
