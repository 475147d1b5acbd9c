"""Dense symmetric linear algebra over support-indexed matrices.

A SupportedMatrix is an n-dimensional symmetric PSD matrix that is zero outside
a support set V of (1-based) indices; only the V x V block is stored. These
carry precision matrices, cluster factors and message arguments everywhere else
in the package. The class holds data and its constructors; every operation on
it is a function of this module, and all are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfSupport,
    InvalidMatrix,
    SingularComplement,
    SingularMatrix,
    SupportMismatch,
)

RANK_TOL = 1e-12  # smallest/largest eigenvalue ratio counted as full rank


@dataclass(frozen=True, eq=False)
class SupportedMatrix:
    """Symmetric matrix of ambient dimension n supported on V x V.

    ``support`` is a sorted tuple of 1-based indices; ``block`` is the dense
    |V| x |V| slice in support order. Entries outside V x V are implicitly 0.
    ``==`` is identity and matrices hash by identity; compare supports and
    ``block.tobytes()`` for equal contents.

    The constructor trusts its caller, who built the block: the support must
    already be sorted, distinct and within 1..n, and the block |V| x |V| in
    support order. It only symmetrizes and freezes the block. Outside input
    (files, dense arrays) enters through ``checked``, which validates first.
    """

    ambient_dim: int
    support: tuple[int, ...]
    block: np.ndarray = field(repr=False)

    def __post_init__(self):
        block = np.asarray(self.block, dtype=float)
        block = 0.5 * (block + block.T)
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @classmethod
    def checked(cls, ambient_dim: int, support, block) -> "SupportedMatrix":
        """Validate outside input, then construct: the support must be
        ascending, distinct and within 1..n, and the block finite, k x k and
        symmetric. A bad block raises InvalidMatrix naming the first row with
        a non-finite entry, or the row of the first below-diagonal entry that
        disagrees with its mirror."""
        support = tuple(support)
        if any(i < 1 or i > ambient_dim for i in support):
            raise IndexOutOfSupport(
                f"support {support} not within 1..{ambient_dim}")
        if len(set(support)) != len(support):
            raise IndexOutOfSupport(f"duplicate indices in support {support}")
        if list(support) != sorted(support):
            raise IndexOutOfSupport(f"support {support} not ascending")
        block = np.asarray(block, dtype=float)
        k = len(support)
        if block.shape != (k, k):
            raise InvalidMatrix(f"block shape {block.shape} != ({k}, {k})")
        bad = ~np.isfinite(block)
        if bad.any():
            raise InvalidMatrix("block has non-finite entries",
                                row=int(bad.any(axis=1).argmax()))
        if k:
            bad = ~np.isclose(block, block.T, atol=1e-12 * (1.0 + np.abs(block).max()))
            if bad.any():
                below = np.tril(bad | bad.T, -1)
                raise InvalidMatrix("block is not symmetric",
                                    row=int(below.any(axis=1).argmax()))
        return cls(ambient_dim, support, block)

    @classmethod
    def of_symmetric(cls, ambient_dim: int, support: tuple, block: np.ndarray
                     ) -> "SupportedMatrix":
        """Wrap a block that is exactly symmetric by construction (a sum or a
        restriction of stored blocks, or a rounding that writes both
        triangles): symmetrizing would give back the same bits, so the block is
        only frozen."""
        block.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "ambient_dim", ambient_dim)
        object.__setattr__(m, "support", support)
        object.__setattr__(m, "block", block)
        return m

    @classmethod
    def zeros(cls, ambient_dim: int) -> "SupportedMatrix":
        """The zero matrix with empty support."""
        return cls.of_symmetric(ambient_dim, (), np.zeros((0, 0)))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SupportedMatrix":
        """Wrap a full n x n array, supported on every index."""
        dense = np.asarray(dense, dtype=float)
        n = dense.shape[0]
        return cls.checked(n, tuple(range(1, n + 1)), dense)


# Position maps for the small supports the DP sums and eliminates on, keyed
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
    for m in more:
        if m.ambient_dim != a.ambient_dim:
            raise SupportMismatch(
                f"ambient dims differ: {a.ambient_dim} vs {m.ambient_dim}")
    mats = (a, *more)
    support, flats = _sum_maps(tuple(m.support for m in mats))
    k = len(support)
    out = np.zeros(k * k)
    for m, flat in zip(mats, flats):
        out[flat] += m.block.ravel()
    return SupportedMatrix.of_symmetric(a.ambient_dim, support, out.reshape(k, k))


def obs(m: SupportedMatrix, observed) -> SupportedMatrix:
    """Observe the variables in ``observed``: zero out their rows and columns.

    The result is supported on V \\ observed and agrees with ``m`` there.
    """
    observed = frozenset(observed)
    if not observed <= set(m.support):
        missing = sorted(observed - set(m.support))
        raise IndexOutOfSupport(f"observed indices {missing} outside support")
    if not observed:
        return m
    keep = [p for p, v in enumerate(m.support) if v not in observed]
    idx = np.array(keep, dtype=np.intp)
    return SupportedMatrix.of_symmetric(m.ambient_dim, tuple(m.support[p] for p in keep),
                                        m.block.take(idx, 0).take(idx, 1))


def marginal(m: SupportedMatrix, delta) -> SupportedMatrix:
    """Precision of the marginal over ``delta``: the Schur complement
    M[D,D] - M[D,E] M[E,E]^-1 M[E,D] with E = support \\ delta.
    """
    keep, elim, ee, ek, kk = _split_maps(m.support, frozenset(delta))
    if not elim:
        return m
    flat = m.block.ravel()
    e_block = flat.take(ee).reshape(len(elim), len(elim))
    w = np.linalg.eigvalsh(e_block)
    if w[0] <= RANK_TOL * max(w[-1], 0.0):
        raise SingularComplement(
            f"eliminated block on {elim} is rank-deficient "
            f"(eig range [{w[0]:.3e}, {w[-1]:.3e}])")
    if not keep:
        return SupportedMatrix.zeros(m.ambient_dim)
    cross = flat.take(ek).reshape(len(elim), len(keep))
    schur = (flat.take(kk).reshape(len(keep), len(keep))
             - cross.T @ np.linalg.solve(e_block, cross))
    return SupportedMatrix(m.ambient_dim, keep, schur)


def trace_of_inverse(m: SupportedMatrix) -> float:
    """Tr(M[V,V]^-1) via the Cholesky factor; 0 for empty support.

    Tr(A^-1) = ||L^-1||_F^2 for A = L L^t, so A itself is never inverted.
    """
    if not m.support:
        return 0.0
    try:
        chol = np.linalg.cholesky(m.block)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"support block not positive definite: {exc}") from exc
    inv_l = np.linalg.inv(chol)
    return float(np.sum(inv_l * inv_l))


def diag_of_inverse(m: SupportedMatrix, subset) -> float:
    """Sum over t in ``subset`` of (M[V,V]^-1)[t,t], via the Cholesky factor."""
    subset = tuple(subset)
    if not subset:
        return 0.0
    rhs = _unit_columns(m.support, subset)
    try:
        chol = np.linalg.cholesky(m.block)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"support block not positive definite: {exc}") from exc
    half = np.linalg.solve(chol, rhs)
    return float(np.sum(half * half))


def parse_matrix_text(text: str, first_line: int = 1):
    """Parse the matrix text format: ``n k``, a line of k ascending 1-based
    support indices (blank for k = 0), then k rows of k entries.

    Returns (SupportedMatrix, number of lines consumed). ``first_line`` is only
    used to report 1-based line numbers in errors.
    """
    lines = text.splitlines()

    def fail(offset, msg):
        from .errors import ParseError
        raise ParseError(f"line {first_line + offset}: {msg}")

    if not lines:
        fail(0, "missing matrix header")
    head = lines[0].split()
    if len(head) != 2:
        fail(0, f"expected 'n k', got {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        fail(0, f"non-integer matrix header {lines[0]!r}")
    if n < 0 or k < 0 or k > n:
        fail(0, f"invalid dimensions n={n} k={k}")
    if len(lines) < 2 + k:
        fail(len(lines) - 1, f"expected support line and {k} rows")
    support_tokens = lines[1].split()
    if len(support_tokens) != k:
        fail(1, f"expected {k} support indices, got {len(support_tokens)}")
    try:
        support = tuple(int(t) for t in support_tokens)
    except ValueError:
        fail(1, f"non-integer support index in {lines[1]!r}")
    rows = []
    for r in range(k):
        tokens = lines[2 + r].split()
        if len(tokens) != k:
            fail(2 + r, f"expected {k} entries, got {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            fail(2 + r, f"non-numeric entry in {lines[2 + r]!r}")
    block = np.array(rows) if k else np.zeros((0, 0))
    try:
        mat = SupportedMatrix.checked(n, support, block)
    except InvalidMatrix as exc:
        fail(0 if exc.row is None else 2 + exc.row, str(exc))
    except IndexOutOfSupport as exc:
        fail(1, str(exc))
    return mat, 2 + k


def format_matrix_text(m: SupportedMatrix) -> str:
    """Serialize in the matrix text format (12 significant digits)."""
    lines = [f"{m.ambient_dim} {len(m.support)}",
             " ".join(str(i) for i in m.support)]
    for row in m.block:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"
