"""The two epsilon-net rounding schemes for precision matrices.

GFF mode rounds off-diagonal magnitudes and row sums of diagonally-dominant
M-matrices onto a geometric grid anchored at the model's conductance range.
SVD mode rounds eigenvalues onto a geometric grid and eigenvector columns onto
a canonical sphere net, then re-orthonormalizes. Both are deterministic maps
into finite nets; rounded fixed points round to themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, OutOfGridRange, RankDeficient
from .linalg import RANK_TOL, SupportedMatrix

GFF_CLASS_TOL = 1e-9   # relative slack for the dd / non-positive-off-diagonal class
RANGE_SLACK = 1e-9     # relative slack on grid range containment


def log_grid_snap(value: float, base: float, step: float, top_index: int) -> float:
    """Nearest grid point base * e^(k*step), k in 0..top_index, in log distance;
    ties toward the lower point."""
    t = math.log(value / base) / step
    k = math.ceil(t - 0.5)
    k = min(max(k, 0), top_index)
    return base * math.exp(k * step)


def _in_gff_class(block: np.ndarray, row_sums: np.ndarray, abs_tol: float) -> bool:
    """Is the nonempty ``block``, whose row sums are given, diagonally dominant
    with non-positive off-diagonal entries? Within GFF_CLASS_TOL relative
    tolerance, or the absolute floor for numerically-zero matrices."""
    cut = max(GFF_CLASS_TOL * np.abs(block).max(), abs_tol, 1e-300)
    off = block - np.diag(np.diag(block))
    return off.max(initial=0.0) <= cut and row_sums.min() >= -cut


@dataclass(frozen=True)
class GffRounder:
    """Element-wise rounding onto the geometric grid {0} u {c_l e^(k eps)}.

    ``range_factor`` widens the runtime containment check (values must lie in
    [c_l, c_h] up to rounding slack); the DP passes the accumulated drift
    allowance, the public contract keeps the tight default.
    """

    c_l: float
    c_h: float
    eps: float
    range_factor: float = 1.0

    @classmethod
    def for_model(cls, gff, eps: float, range_factor: float = 1.0) -> "GffRounder":
        resistances = [r for _, _, r in gff.edges]
        max_c = 1.0 / min(resistances)          # largest |Lambda_ij|
        min_c = 1.0 / max(resistances)          # smallest nonzero |Lambda_ij|
        c_l = min_c ** 2 / (gff.n * max_c)
        # Row sums are conductances to a *contracted set* (observed plus pin),
        # which reach the total incident conductance: a star center with all
        # leaves observed has row sum (n-1)*max_c, above the pairwise ceiling
        # n*max_c/2. Use the total-graph-conductance ceiling instead; every
        # pairwise or set conductance is at most the sum of all edge
        # conductances, which is below n^2 * max_c / 2.
        c_h = gff.n ** 2 * max_c / 2.0
        if not (c_l > 0.0 and math.isfinite(c_h / c_l)):
            raise OutOfGridRange(f"conductances [{min_c:.3e}, {max_c:.3e}] overflow the grid")
        return cls(c_l=c_l, c_h=c_h, eps=eps, range_factor=range_factor)

    # the grid constants below are computed once per rounder, not per snap

    @cached_property
    def top_index(self) -> int:
        return int(math.floor(math.log(self.c_h / self.c_l) / self.eps))

    @cached_property
    def zero_tol(self) -> float:
        # numerically-zero band: well below the legitimate value range, well
        # above float round-off accumulated at the c_h scale
        return min(0.5 * self.c_l * math.exp(-self.eps / 2.0) / self.range_factor,
                   1e-10 * self.c_h)

    @cached_property
    def limits(self) -> tuple[float, float]:
        """The range [lo, hi] a nonzero value must lie in to be snapped."""
        return (self.c_l * math.exp(-self.eps / 2.0) * (1.0 - RANGE_SLACK) / self.range_factor,
                self.c_h * math.exp(self.eps / 2.0) * (1.0 + RANGE_SLACK) * self.range_factor)

    def snap(self, value: float) -> float:
        if abs(value) <= self.zero_tol:
            return 0.0
        lo, hi = self.limits
        if not lo <= value <= hi:
            raise OutOfGridRange(
                f"value {float(value)!r} outside [{lo:.6e}, {hi:.6e}] "
                f"(grid [{self.c_l:.6e}, {self.c_h:.6e}], eps={self.eps:.3e})")
        return log_grid_snap(value, self.c_l, self.eps, self.top_index)

    def round(self, p: SupportedMatrix) -> SupportedMatrix:
        if not p.support:
            return p
        if len(p.support) == 1:
            # a positive finite 1 x 1 block is in the class and is its own row
            # sum, so the rounded block is the snapped entry; anything else
            # takes the general path and its refusals
            a = p.block.item()
            if 0.0 < a < math.inf:
                return SupportedMatrix(p.support, np.array([[self.snap(a)]]))
        sums = p.block.sum(axis=1)
        if not _in_gff_class(p.block, sums, self.zero_tol):
            raise InvariantViolation(
                "matrix outside the diagonally-dominant M-matrix class")
        k = len(p.support)
        block = p.block.tolist()
        out = np.zeros((k, k))
        flat = out.ravel()
        for i in range(k):
            for j in range(i + 1, k):
                flat[i * k + j] = flat[j * k + i] = -self.snap(abs(block[i][j]))
        # the diagonal is still 0 where the off-diagonal magnitudes are summed
        row_sums = [self.snap(x) for x in sums.tolist()]
        flat[::k + 1] = row_sums + np.abs(out).sum(axis=1)
        return SupportedMatrix(p.support, out)


def canonical_rays(u: np.ndarray, pitch: float) -> np.ndarray:
    """Deterministic unit representative of the line through each column of
    ``u``: scale so the largest-magnitude coordinate is exactly 1, quantize the
    rest at ``pitch`` (ties toward -inf), clip to [-1, 1], renormalize.
    Idempotent on its image up to a global sign. The element-wise steps run on
    all columns at once, the norm once per column."""
    cols = np.arange(u.shape[1])
    m = np.abs(u).argmax(axis=0)
    y = u / u[m, cols]
    q = pitch * np.ceil(y / pitch - 0.5)
    q = q.clip(-1.0, 1.0)
    q[m, cols] = 1.0
    return q / [np.linalg.norm(q[:, c]) for c in cols]


def ordered_gram_schmidt(columns: np.ndarray) -> np.ndarray:
    out = columns.copy()
    k = out.shape[1]
    views = [out[:, i] for i in range(k)]   # strided column views into out
    for i, col in enumerate(views):
        for prev in views[:i]:
            col -= (prev @ col) * prev
        norm = np.linalg.norm(col)
        if norm < 1e-12:
            raise InvariantViolation("Gram-Schmidt collapsed a column")
        col /= norm
    return out


@dataclass(frozen=True)
class SvdRounder:
    """Eigendecomposition-based rounding: eigenvalues onto the geometric grid
    anchored at lambda_min(Lambda)/m, eigenvector columns onto the canonical
    sphere net, Gram-Schmidt in column order."""

    lam_lo: float   # lambda_min(Lambda) / m
    lam_hi: float   # lambda_max(Lambda)
    eps: float
    range_factor: float = 1.0

    @cached_property
    def top_index(self) -> int:
        return int(math.floor(math.log(self.lam_hi / self.lam_lo) / (self.eps / 2.0)))

    @cached_property
    def limits(self) -> tuple[float, float]:
        """The range [lo, hi] an eigenvalue must lie in to be snapped."""
        return ((self.lam_lo * math.exp(-self.eps / 2.0) * (1.0 - RANGE_SLACK)
                 / self.range_factor - RANGE_SLACK * self.lam_hi),
                self.lam_hi * math.exp(self.eps / 2.0) * (1.0 + RANGE_SLACK) * self.range_factor)

    def eps1(self, k: int) -> float:
        nominal = (self.lam_lo / self.lam_hi) ** 2 * self.eps ** 2 / (1e4 * k ** 3)
        return min(nominal, 1.0 / (k * (4.0 * math.sqrt(2.0) + 4.0)))

    def snap_eig(self, value: float) -> float:
        lo, hi = self.limits
        if not lo <= value <= hi:
            raise OutOfGridRange(
                f"eigenvalue {float(value)!r} outside [{self.lam_lo:.6e}, {self.lam_hi:.6e}]")
        return log_grid_snap(max(value, self.lam_lo), self.lam_lo, self.eps / 2.0,
                             self.top_index)

    def round(self, p: SupportedMatrix) -> SupportedMatrix:
        if not p.support:
            return p
        k = len(p.support)
        if k == 1:
            # eigh of [[a]] is the eigenvalue a with the eigenvector [1.0], which
            # the sphere net and Gram-Schmidt keep, so the rounded block is the
            # snapped eigenvalue (while 2d, the symmetrization's sum, is finite)
            a = p.block.item()
            if 0.0 < a < math.inf:
                d = self.snap_eig(a)
                if d + d < math.inf:
                    return SupportedMatrix(p.support, np.array([[d]]))
        w, u = np.linalg.eigh(p.block)
        w = w.tolist()
        if w[0] <= RANK_TOL * max(w[-1], 0.0):
            raise RankDeficient(
                f"matrix on {p.support} has eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]")
        d = [self.snap_eig(x) for x in w]
        u2 = ordered_gram_schmidt(canonical_rays(u, self.eps1(k) / math.sqrt(k)))
        out = (u2 * d) @ u2.T
        return SupportedMatrix(p.support, 0.5 * (out + out.T))
