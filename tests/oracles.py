"""Reference computations that only the tests use.

The package ships what its solvers and CLI run; these cross-checks of its
results (electrical flows, the regular-graph bound, eigenvalue extremes, the
PSD sandwich, the GFF-class check on whole blocks, the element-wise rounding
relation, the elimination-order check, report parsing, factor totals, err
on the support-matrix path) live here, with the straightforward ``np.ix_``
and element-loop forms of the DP kernels that the package computes on cached
position maps.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gmrf_select import linalg
from gmrf_select.decomposition import adjacency
from gmrf_select.errors import (
    GmrfSelectError,
    InvalidDecomposition,
    InvariantViolation,
    ParseError,
    SingularComplement,
    SingularSubmatrix,
)
from gmrf_select.linalg import SupportedMatrix
from gmrf_select.models import (
    GffModel,
    Guarantee,
    SelectionReport,
    _contracted_potentials,
    random_gff,
)
from gmrf_select.rounding import _in_gff_class

ZERO_EIG_CUTOFF = 1e-12  # eigenvalues below lambda_max * this count as zero
SANDWICH_TOL = 1e-10     # slack in PSD-order comparisons


class NotUnitRegular(GmrfSelectError):
    """``regular_tightness`` was given a graph that is not unit-resistance
    regular."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def reduced_covariance(gff: GffModel) -> np.ndarray:
    """Covariance of the non-pin variables, indexed by sorted(V \\ {pin})."""
    rest = [v - 1 for v in gff.vertices if v != gff.pin]
    return gff.covariance()[np.ix_(rest, rest)]


def electrical_flow(gff: GffModel, i: int, subset):
    """The unit electrical flow from S to i: a dict (u, v) -> flow value with
    f(u,v) = (phi_u - phi_v)/r_uv, where phi solves the contracted system.
    Used by the Thomson-principle cross-checks."""
    phi, pos = _contracted_potentials(gff, i, frozenset(subset))

    def potential(v):
        return phi[pos[v]] if v in pos else 0.0

    flow = {}
    for u, v, r in gff.edges:
        # injecting at i makes current run i -> S; negate so the flow runs S -> i
        f = (potential(v) - potential(u)) / r
        flow[(u, v)] = f
        flow[(v, u)] = -f
    return flow


def flow_energy(gff: GffModel, flow) -> float:
    """(1/2) sum over ordered pairs of f(u,v)^2 r_uv."""
    total = 0.0
    for u, v, r in gff.edges:
        total += flow[(u, v)] ** 2 * r
    return total


def regular_tightness(gff: GffModel, subset) -> tuple[float, bool]:
    """Lower bound (1 - |S|/n)/d for d-regular unit-resistance graphs, and
    whether it is attained (iff the complement is an independent set).

    The given S is used as-is (no pin insertion); S must be nonempty unless it
    is the full vertex set.
    """
    degree = {v: 0 for v in gff.vertices}
    for u, v, r in gff.edges:
        if abs(r - 1.0) > 1e-12:
            raise NotUnitRegular(f"edge ({u},{v}) has resistance {r} != 1")
        degree[u] += 1
        degree[v] += 1
    degs = set(degree.values())
    if len(degs) != 1:
        raise NotUnitRegular(f"graph is not regular (degrees {sorted(degs)})")
    d = degs.pop()
    s = frozenset(subset)
    sbar = [v for v in gff.vertices if v not in s]
    bound = (1.0 - len(s) / gff.n) / d
    if not sbar:
        return (0.0, True)
    if not s:
        raise SingularSubmatrix("S empty: err is undefined on the full Laplacian")
    err_s = linalg.trace_of_inverse(linalg.obs(gff.precision_matrix, s)) / gff.n
    sbar_set = set(sbar)
    independent = not any(u in sbar_set and v in sbar_set for u, v, _ in gff.edges)
    attained = abs(err_s - bound) <= 1e-9
    if independent != attained:
        raise InvariantViolation(
            f"tightness mismatch: independent={independent} but err={err_s!r}, "
            f"bound={bound!r}")
    return (bound, independent)


def err_reference(model, subset) -> float:
    """err on the support-matrix path: Tr(obs(precision, pinned + S)^-1) / n
    through ``linalg.trace_of_inverse``, or 0.0 when every vertex is observed."""
    s = frozenset(subset) | model.pinned
    if len(s) == model.n:
        return 0.0
    return linalg.trace_of_inverse(linalg.obs(model.precision_matrix, s)) / model.n


def stacked_sets(models, owner, unobserved) -> list[tuple]:
    """(model, observed vertices) of each set of an ``err_stack`` call."""
    return [(models[j], tuple(v for v in models[j].vertices if not row[v - 1]))
            for j, row in zip(owner, unobserved)]


def supermodularity_checks_reference(seed: int, trials: int) -> list[tuple]:
    """The supermodularity suite's checks (n, A, x, y), drawn as the suite drew
    them one model at a time: x and y by ``rng.choice`` on the free vertices,
    then one scalar ``rng.random()`` per other free vertex, in order."""
    rng = np.random.default_rng(seed)
    checks = []
    while len(checks) < trials:
        n = int(rng.integers(3, 11))
        g = random_gff(n, density=float(rng.uniform(0.1, 0.6)),
                       seed=int(rng.integers(0, 1 << 30)))
        free = [v for v in g.vertices if v != g.pin]
        for _ in range(min(trials - len(checks), 10)):
            x, y = (int(v) for v in rng.choice(free, size=2, replace=False))
            a = {g.pin} | {v for v in free if v not in (x, y) and rng.random() < 0.3}
            checks.append((n, a, x, y))
    return checks


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def eig_extremes(m: SupportedMatrix) -> tuple[float, float]:
    """(smallest nonzero eigenvalue, largest eigenvalue) of the support block.

    Eigenvalues below lambda_max * 1e-12 count as zero. Empty support, or a
    block with no nonzero eigenvalues, yields (0.0, 0.0) by convention.
    """
    if not m.support:
        return (0.0, 0.0)
    w = np.linalg.eigvalsh(m.block)
    lam_max = float(w[-1])
    cutoff = abs(lam_max) * ZERO_EIG_CUTOFF
    nonzero = w[np.abs(w) > cutoff]
    if len(nonzero) == 0:
        return (0.0, 0.0)
    return (float(nonzero[0]), lam_max)


def psd_sandwich_check(a: SupportedMatrix, b: SupportedMatrix, eps: float) -> bool:
    """True iff e^-eps B <= A <= e^eps B in the PSD order, within tolerance."""
    if a.support != b.support:
        raise ValueError(f"supports differ: {a.support} vs {b.support}")
    if not a.support:
        return True
    tol = SANDWICH_TOL * max(float(np.linalg.eigvalsh(b.block)[-1]), 0.0)
    upper = np.exp(eps) * b.block - a.block
    lower = a.block - np.exp(-eps) * b.block
    return (float(np.linalg.eigvalsh(upper)[0]) >= -tol
            and float(np.linalg.eigvalsh(lower)[0]) >= -tol)


def add_reference(a: SupportedMatrix, b: SupportedMatrix) -> SupportedMatrix:
    """Entrywise sum through per-call position dicts and ``np.ix_``."""
    support = tuple(sorted(set(a.support) | set(b.support)))
    k = len(support)
    out = np.zeros((k, k))
    pos = {v: p for p, v in enumerate(support)}
    for m in (a, b):
        if m.support:
            idx = np.array([pos[v] for v in m.support], dtype=int)
            out[np.ix_(idx, idx)] += m.block
    return SupportedMatrix(support, out)


def obs_reference(m: SupportedMatrix, observed) -> SupportedMatrix:
    keep = tuple(v for v in m.support if v not in set(observed))
    idx = [m.support.index(v) for v in keep]
    return SupportedMatrix(keep, m.block[np.ix_(idx, idx)])


def marginal_reference(m: SupportedMatrix, delta) -> SupportedMatrix:
    """Schur complement onto ``delta`` with ``np.ix_`` blocks; raises
    SingularComplement where ``linalg.marginal`` must."""
    keep = tuple(v for v in m.support if v in delta)
    elim = tuple(v for v in m.support if v not in delta)
    if not elim:
        return m
    ki, ei = [m.support.index(v) for v in keep], [m.support.index(v) for v in elim]
    e_block = m.block[np.ix_(ei, ei)]
    w = np.linalg.eigvalsh(e_block)
    if w[0] <= linalg.RANK_TOL * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise SingularComplement(f"eliminated block on {elim} is rank-deficient")
    if not keep:
        return SupportedMatrix.zeros()
    cross = m.block[np.ix_(ei, ki)]
    schur = m.block[np.ix_(ki, ki)] - cross.T @ np.linalg.solve(e_block, cross)
    return SupportedMatrix(keep, 0.5 * (schur + schur.T))


def diag_of_inverse_reference(m: SupportedMatrix, subset) -> float:
    subset = tuple(subset)
    if not subset:
        return 0.0
    idx = [m.support.index(v) for v in subset]
    chol = np.linalg.cholesky(m.block)
    rhs = np.zeros((len(m.support), len(subset)))
    rhs[idx, np.arange(len(subset))] = 1.0
    half = np.linalg.solve(chol, rhs)
    return float(np.sum(half * half))


def factor_total(factors, n: int) -> np.ndarray:
    """The dense n x n sum of per-cluster factors, as ``dp.factorize`` returns them."""
    out = np.zeros((n, n))
    for f in factors:
        idx = [v - 1 for v in f.support]
        out[np.ix_(idx, idx)] += f.block
    return out


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def is_gff_class(block: np.ndarray, abs_tol: float = 0.0) -> bool:
    """Diagonally dominant with non-positive off-diagonal entries, by the
    package's own test (an empty block is in the class)."""
    if block.size == 0:
        return True
    return _in_gff_class(block, block.sum(axis=1), abs_tol)


def gff_round_reference(rounder, p: SupportedMatrix) -> SupportedMatrix:
    """``GffRounder.round`` one entry at a time: each off-diagonal magnitude,
    then each row sum plus the row's rounded off-diagonal magnitudes."""
    k = len(p.support)
    out = np.zeros((k, k))
    row_sums = p.block.sum(axis=1)
    for i in range(k):
        for j in range(i + 1, k):
            mag = rounder.snap(abs(p.block[i, j]))
            out[i, j] = out[j, i] = -mag
    for i in range(k):
        out[i, i] = rounder.snap(row_sums[i]) + np.abs(out[i]).sum() - abs(out[i, i])
    return SupportedMatrix(p.support, out)


def canonical_ray_reference(z: np.ndarray, pitch: float) -> np.ndarray:
    """``rounding.canonical_rays`` on one vector at a time."""
    m = int(np.argmax(np.abs(z)))
    y = z / z[m]
    q = pitch * np.ceil(y / pitch - 0.5)
    q = np.clip(q, -1.0, 1.0)
    q[m] = 1.0
    return q / np.linalg.norm(q)


def gff_relation_eps(q: SupportedMatrix, q2: SupportedMatrix,
                     zero_tol: float = 0.0) -> float:
    """Smallest eps for which the element-wise relation holds between two
    matrices of the dd/M-matrix class: every off-diagonal magnitude and every
    row sum within a factor e^(+-eps). Returns inf if a zero pairs with a
    nonzero (beyond zero_tol)."""
    if q.support != q2.support:
        return math.inf
    k = len(q.support)
    worst = 0.0
    pairs = []
    a, b = q.block, q2.block
    for i in range(k):
        for j in range(i + 1, k):
            pairs.append((abs(a[i, j]), abs(b[i, j])))
    rs_a, rs_b = a.sum(axis=1), b.sum(axis=1)
    for i in range(k):
        pairs.append((rs_a[i], rs_b[i]))
    for x, y in pairs:
        x = 0.0 if abs(x) <= zero_tol else x
        y = 0.0 if abs(y) <= zero_tol else y
        if x == 0.0 and y == 0.0:
            continue
        if x <= 0.0 or y <= 0.0:
            return math.inf
        worst = max(worst, abs(math.log(y / x)))
    return worst


# ---------------------------------------------------------------------------
# tree decompositions
# ---------------------------------------------------------------------------

def check_elimination_order(order, n, graph_edges, clusters):
    """Verify the order is perfect for the decomposition: at each step the
    eliminated vertex plus its remaining (fill) neighbors fit in one cluster."""
    if sorted(order) != list(range(1, n + 1)):
        raise InvalidDecomposition("elimination order is not a permutation of 1..n")
    adj = adjacency(range(1, n + 1), graph_edges)
    for v in order:
        closure = adj[v] | {v}
        if not any(closure <= c for c in clusters):
            raise InvalidDecomposition(
                f"eliminating {v}: neighborhood {sorted(closure)} fits no cluster")
        for a in adj[v]:
            adj[a].discard(v)
            adj[a].update(adj[v] - {a})
    return True


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def parse_report(text: str) -> SelectionReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad report JSON: {exc}") from exc
    guarantee = None
    if payload.get("guarantee") is not None:
        guarantee = Guarantee(payload["guarantee"]["factor"],
                              payload["guarantee"]["source"])
    wall = payload.get("wall_ms")
    return SelectionReport(
        selected=tuple(payload["selected"]),
        err_value=float(payload["err"]),
        solver=payload["solver"],
        n=int(payload["n"]),
        budget_or_alpha=payload.get("budget_or_alpha"),
        guarantee=guarantee,
        wall_time=None if wall is None else wall / 1000.0,
    )
