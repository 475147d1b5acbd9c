"""Exhaustive-search oracle for the budget and cover problems on small
instances. This is the ground truth every approximation claim is tested
against, so it stays deliberately simple: plain subset enumeration, no pruning,
nothing shared with greedy. Subsets are scored in chunks by
``models.err_batch`` (one stacked Cholesky and one inverse per subset size in
a chunk, in the scorer behind err), and those scores alone decide the
answer. Only a chunk with a singular block is scored subset by subset with
``err``, which raises.
"""

from __future__ import annotations

import itertools
import math
import os
import time

from .errors import InfeasibleParameters, InstanceTooLarge, InvariantViolation, SingularMatrix
from .models import SelectionReport, err, err_batch, make_report

DEFAULT_MAX_N = 20
# Subsets per stacked scoring call. The name dates from the thread pool it
# once sized; tests patch it under this name to put chunk edges inside ties.
_THREAD_CHUNK = 4096


def thread_count() -> int:
    """GMRF_SELECT_THREADS (unset or empty means 1). The search is serial
    whatever the value; a value that is not an integer >= 1 is still refused."""
    raw = os.environ.get("GMRF_SELECT_THREADS") or "1"
    if not raw.strip().isdigit() or int(raw) < 1:
        raise InfeasibleParameters(f"GMRF_SELECT_THREADS={raw!r} is not an integer >= 1")
    return int(raw)


def _candidates(model, max_n) -> list:
    """The vertices a search may choose from, the unpinned ones, once n is
    within the cap ``max_n`` and GMRF_SELECT_THREADS is valid."""
    if max_n < 0:
        raise InvariantViolation(f"max_n must be >= 0, got {max_n}")
    if model.n > max_n:
        raise InstanceTooLarge(
            f"n = {model.n} exceeds the exhaustive-search cap {max_n}; "
            f"raise max_n explicitly to override")
    thread_count()
    return [v for v in model.vertices if v not in model.pinned]


def _scored(model, combos):
    """Yield (err, sorted selection) per combination, in enumeration order. A
    chunk with a singular block is scored lazily with err, which raises at that
    subset after every earlier one has been yielded."""
    pinned = model.pinned
    combos = iter(combos)
    while chunk := list(itertools.islice(combos, _THREAD_CHUNK)):
        sels = [tuple(sorted(pinned | set(extra))) for extra in chunk]
        try:
            scores = err_batch(model, chunk)
        except SingularMatrix:
            scores = (err(model, sel) for sel in sels)
        yield from zip(scores, sels)


def exact_budget(model, b: int, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """argmin over |S| <= b of err(S); the model's pinned vertices are forced
    in and do not count against the budget. Ties go to the lexicographically
    smallest sorted selection."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    candidates = _candidates(model, max_n)
    started = time.perf_counter()
    _, best = min(_scored(model, itertools.chain.from_iterable(
        itertools.combinations(candidates, k) for k in range(min(b, len(candidates)) + 1))))
    return make_report(model, best, "exact", b, started=started)


def exact_cover(model, alpha: float, max_n: int = DEFAULT_MAX_N) -> SelectionReport:
    """Smallest S with err(S) <= alpha, by increasing-size enumeration; among
    the minimal size, the lexicographically first achiever wins."""
    if not 0 <= alpha < math.inf:
        raise InvariantViolation(f"alpha must be finite and >= 0, got {alpha}")
    candidates = _candidates(model, max_n)
    started = time.perf_counter()
    for k in range(len(candidates) + 1):
        for score, sel in _scored(model, itertools.combinations(candidates, k)):
            if score <= alpha:
                return make_report(model, sel, "exact", alpha, started=started)
    raise InvariantViolation("err of the full vertex set is 0; unreachable")
