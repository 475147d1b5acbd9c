"""Dense symmetric linear algebra over support-indexed matrices.

A SupportedMatrix is a symmetric PSD matrix that is zero outside a support set
V of (1-based) indices; only the V x V block is stored. These carry the tree
DP's cluster factors and message arguments; a model's precision is its own
plain n x n array, and the model owns the dimension n. The class holds data
and the zero matrix; every operation on it is a function of this module, and
all are pure: inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NOT_POSITIVE_DEFINITE, IndexOutOfSupport, SingularMatrix

RANK_TOL = 1e-12  # smallest/largest eigenvalue ratio counted as full rank


@dataclass(frozen=True, eq=False)
class SupportedMatrix:
    """Symmetric matrix supported on V x V.

    ``support`` is a sorted tuple of 1-based indices; ``block`` is the dense
    |V| x |V| slice in support order. Entries outside V x V are implicitly 0.
    ``==`` is identity and matrices hash by identity; compare supports and
    ``block.tobytes()`` for equal contents.

    The constructor trusts its caller, who built the block: the support must
    already be sorted, distinct and positive, and the block an exactly
    symmetric float |V| x |V| array in support order. It only freezes the
    block, without a copy. Outside matrices enter through the models, which
    check and symmetrize them first.
    """

    support: tuple[int, ...]
    block: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.block.setflags(write=False)

    @classmethod
    def zeros(cls) -> "SupportedMatrix":
        """The zero matrix with empty support."""
        return cls((), np.zeros((0, 0)))


# Position maps for the small supports the DP sums, observes and eliminates on, keyed
# on support tuples and built once per distinct key. The caches are bounded, so
# a long-lived process holds at most MAPS_CACHE entries in each, and every
# cached array is read-only because all callers share it.
MAPS_CACHE = 1024


def _index(positions) -> np.ndarray:
    out = np.array(positions, dtype=np.intp)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=MAPS_CACHE)
def _sum_maps(supports: tuple) -> tuple:
    """The union of ``supports`` and, per support, the flat positions of its
    block entries inside the union's block (a plain slice for the union itself)."""
    support = tuple(sorted(set().union(*supports)))
    k = len(support)
    pos = {v: p for p, v in enumerate(support)}
    flats = tuple(
        slice(None) if s == support else
        _index([pos[u] * k + pos[v] for u in s for v in s])
        for s in supports)
    return support, flats


@lru_cache(maxsize=MAPS_CACHE)
def _split_maps(support: tuple, delta: frozenset) -> tuple:
    """(kept indices, eliminated indices, flat positions of the
    eliminated x eliminated, eliminated x kept and kept x kept blocks)."""
    if not delta <= set(support):
        missing = sorted(delta - set(support))
        raise IndexOutOfSupport(f"marginal target {missing} outside support")
    k = len(support)
    ki = [p for p, v in enumerate(support) if v in delta]
    ei = [p for p, v in enumerate(support) if v not in delta]

    def flat(rows, cols):
        return _index([r * k + c for r in rows for c in cols])

    return (tuple(support[p] for p in ki), tuple(support[p] for p in ei),
            flat(ei, ei), flat(ei, ki), flat(ki, ki))


@lru_cache(maxsize=MAPS_CACHE)
def _obs_maps(support: tuple, observed: frozenset) -> tuple:
    """(the support left after observing ``observed``, its positions in ``support``)."""
    if not observed <= set(support):
        missing = sorted(observed - set(support))
        raise IndexOutOfSupport(f"observed indices {missing} outside support")
    keep = [p for p, v in enumerate(support) if v not in observed]
    return tuple(support[p] for p in keep), _index(keep)


@lru_cache(maxsize=MAPS_CACHE)
def _unit_columns(support: tuple, subset: tuple) -> np.ndarray:
    """The |V| x |subset| right-hand side with a 1 at each subset index's row."""
    pos = {v: p for p, v in enumerate(support)}
    rhs = np.zeros((len(support), len(subset)))
    for col, v in enumerate(subset):
        if v not in pos:
            raise IndexOutOfSupport(f"index {v} not in support {support}")
        rhs[pos[v], col] = 1.0
    rhs.setflags(write=False)
    return rhs


def add(a: SupportedMatrix, *more: SupportedMatrix) -> SupportedMatrix:
    """Entrywise sum a + more[0] + more[1] + ..., added left to right; the
    result is supported on the union of supports."""
    mats = (a, *more)
    support, flats = _sum_maps(tuple(m.support for m in mats))
    k = len(support)
    out = np.zeros(k * k)
    for m, flat in zip(mats, flats):
        out[flat] += m.block.ravel()
    return SupportedMatrix(support, out.reshape(k, k))


def obs(m: SupportedMatrix, observed) -> SupportedMatrix:
    """Observe the variables in ``observed``: zero out their rows and columns.

    The result is supported on V \\ observed and agrees with ``m`` there.
    """
    observed = frozenset(observed)
    if not observed:
        return m
    support, idx = _obs_maps(m.support, observed)
    return SupportedMatrix(support, m.block.take(idx, 0).take(idx, 1))


def marginal(m: SupportedMatrix, delta) -> SupportedMatrix:
    """Precision of the marginal over ``delta``: the Schur complement
    M[D,D] - M[D,E] M[E,E]^-1 M[E,D] with E = support \\ delta, symmetrized.
    """
    keep, elim, ee, ek, kk = _split_maps(m.support, frozenset(delta))
    if not elim:
        return m
    flat = m.block.ravel()
    e_block = flat.take(ee).reshape(len(elim), len(elim))
    # LAPACK's eigenvalue of a 1 x 1 block is its entry, for every double
    w = e_block[0] if len(elim) == 1 else np.linalg.eigvalsh(e_block)
    if w[0] <= RANK_TOL * max(w[-1], 0.0):
        raise SingularMatrix(
            f"eliminated block on {elim} is rank-deficient "
            f"(eig range [{w[0]:.3e}, {w[-1]:.3e}])")
    if not keep:
        return SupportedMatrix.zeros()
    cross = flat.take(ek).reshape(len(elim), len(keep))
    schur = (flat.take(kk).reshape(len(keep), len(keep))
             - cross.T @ np.linalg.solve(e_block, cross))
    return SupportedMatrix(keep, 0.5 * (schur + schur.T))


def trace_of_inverse(m: SupportedMatrix) -> float:
    """Tr(M[V,V]^-1) via the Cholesky factor; 0 for empty support.

    Tr(A^-1) = ||L^-1||_F^2 for A = L L^t, so A itself is never inverted.
    """
    if not m.support:
        return 0.0
    try:
        chol = np.linalg.cholesky(m.block)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(NOT_POSITIVE_DEFINITE.format(exc)) from exc
    inv_l = np.linalg.inv(chol)
    return float(np.sum(inv_l * inv_l))


def diag_of_inverse(m: SupportedMatrix, subset) -> float:
    """Sum over t in ``subset`` of (M[V,V]^-1)[t,t], via the Cholesky factor."""
    subset = tuple(subset)
    if not subset:
        return 0.0
    if subset == m.support and len(subset) == 1:
        # the factor of [[a]] is sqrt(a) and the solve gives 1 / sqrt(a) with
        # one rounding each, as here; anything else, or a square that overflows,
        # takes the general path and its refusals
        a = m.block.item()
        if 0.0 < a < math.inf:
            half = 1.0 / math.sqrt(a)
            if half * half < math.inf:
                return half * half
    rhs = _unit_columns(m.support, subset)
    try:
        chol = np.linalg.cholesky(m.block)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(NOT_POSITIVE_DEFINITE.format(exc)) from exc
    half = np.linalg.solve(chol, rhs)
    return float(np.sum(half * half))

