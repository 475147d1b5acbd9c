"""Reference computations that only the tests use.

The package ships what its solvers and CLI run; these cross-checks of its
results (electrical flows, the regular-graph bound, eigenvalue extremes, the
PSD sandwich, the GFF-class check on whole blocks, the element-wise rounding
relation, the elimination-order check, report parsing, factor totals, err
on the support-matrix path, err and the DP's Schur complement and diagonal
of an inverse in exact rational arithmetic, by elimination, err on trees by
path resistances, the random GFF draw as a scalar loop) live here,
with the straightforward ``np.ix_`` and element-loop forms of the DP kernels
that the package computes on cached position maps. These run the kernels'
general code at every size, so they are also the reference for the 1 x 1
blocks the package answers in scalar arithmetic.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from gmrf_select import linalg
from gmrf_select.errors import (
    NOT_POSITIVE_DEFINITE,
    GmrfSelectError,
    InfeasibleParameters,
    InvalidDecomposition,
    InvariantViolation,
    ParseError,
    RankDeficient,
    SingularMatrix,
)
from gmrf_select.linalg import SupportedMatrix
from gmrf_select.models import (
    GffModel,
    Guarantee,
    SelectionReport,
    _contracted_potentials,
    adjacency,
    random_gff,
)
from gmrf_select.rounding import _in_gff_class, canonical_rays, ordered_gram_schmidt

ZERO_EIG_CUTOFF = 1e-12  # eigenvalues below lambda_max * this count as zero
SANDWICH_TOL = 1e-10     # slack in PSD-order comparisons


class NotUnitRegular(GmrfSelectError):
    """``regular_tightness`` was given a graph that is not unit-resistance
    regular."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def supported(model) -> SupportedMatrix:
    """The model's precision as a SupportedMatrix on 1..n, for the linalg
    functions."""
    return SupportedMatrix(tuple(model.vertices), model.precision_matrix)


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
        raise SingularMatrix("S empty: err is undefined on the full Laplacian")
    err_s = linalg.trace_of_inverse(linalg.obs(supported(gff), s)) / gff.n
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
    return linalg.trace_of_inverse(linalg.obs(supported(model), s)) / model.n


def _exact_rows(block: np.ndarray, rows, cols) -> list[list[Fraction]]:
    """``block[np.ix_(rows, cols)]`` as rows of Fractions: each double
    converts exactly, so a reference built on them answers for the very
    numbers the program saw."""
    return [[Fraction(float(block[i, j])) for j in cols] for i in rows]


def _solve_exact(a, b) -> list[list[Fraction]]:
    """A^-1 B in exact rational arithmetic, A and B given as rows of
    Fractions: Gauss-Jordan elimination takes [A | B] to [I | A^-1 B]. A must
    be positive definite, so no pivot is zero."""
    k = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for p in range(k):
        rows[p] = [x / rows[p][p] for x in rows[p]]
        for r in range(k):
            factor = rows[r][p]
            if r != p and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[p])]
    return [row[k:] for row in rows]


def err_exact(model, subset) -> Fraction:
    """err in exact rational arithmetic, for n <= 12: the trace of the
    unobserved block's exact inverse, over n."""
    s = frozenset(subset) | model.pinned
    free = [v - 1 for v in model.vertices if v not in s]
    k = len(free)
    unit = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]
    inv = _solve_exact(_exact_rows(model.precision_matrix, free, free), unit)
    return sum(inv[r][r] for r in range(k)) / model.n


def schur_exact(m: SupportedMatrix, keep) -> list[list[Fraction]]:
    """M[K,K] - M[K,E] M[E,E]^-1 M[E,K] in exact arithmetic, as rows in
    support order: the exact value of ``linalg.marginal(m, keep)``'s block,
    with K the support's indices in ``keep`` and E the rest."""
    ki = [p for p, v in enumerate(m.support) if v in keep]
    ei = [p for p, v in enumerate(m.support) if v not in keep]
    reach = _solve_exact(_exact_rows(m.block, ei, ei), _exact_rows(m.block, ei, ki))
    cross = _exact_rows(m.block, ki, ei)
    return [[x - sum(c * reach[e][col] for e, c in enumerate(cross[row]))
             for col, x in enumerate(kept)]
            for row, kept in enumerate(_exact_rows(m.block, ki, ki))]


def diag_of_inverse_exact(m: SupportedMatrix, subset) -> Fraction:
    """Sum over t in ``subset`` of (M[V,V]^-1)[t,t] in exact arithmetic:
    the exact value of ``linalg.diag_of_inverse(m, subset)``."""
    cols = [m.support.index(v) for v in subset]
    every = range(len(m.support))
    unit = [[Fraction(int(r == c)) for c in cols] for r in every]
    inv = _solve_exact(_exact_rows(m.block, every, every), unit)
    return sum(inv[c][col] for col, c in enumerate(cols))


def tree_err_exact(gff: GffModel) -> Fraction:
    """err(gff, ()) on a GFF tree in exact rational arithmetic. With only the
    pin observed, a vertex's conditional variance is its path resistance from
    the pin, so err is the mean path resistance. Each resistance converts to a
    Fraction exactly, and one walk from the pin sums the paths, in O(n)."""
    if len(gff.edges) != gff.n - 1:
        raise InfeasibleParameters(f"{len(gff.edges)} edges on {gff.n} vertices is not a tree")
    links = {v: [] for v in gff.vertices}
    for u, v, r in gff.edges:
        links[u].append((v, Fraction(r)))
        links[v].append((u, Fraction(r)))
    path = {gff.pin: Fraction(0)}
    stack = [gff.pin]
    while stack:
        u = stack.pop()
        for w, r in links[u]:
            if w not in path:
                path[w] = path[u] + r
                stack.append(w)
    return sum(path.values()) / gff.n


def stacked_sets(models, owner, unobserved) -> list[tuple]:
    """(model, observed vertices) of each set of an ``err_stack`` call."""
    return [(models[j], tuple(v for v in models[j].vertices if not row[v - 1]))
            for j, row in zip(owner, unobserved)]


def random_gff_reference(n: int, density: float = 0.3,
                         resistance_range=(0.5, 2.0), seed: int = 0) -> GffModel:
    """``random_gff`` as a scalar loop, one generator call per draw: the tree
    edge to each v = 2..n, then a coin per other pair and a resistance per
    edge kept, each resistance exponentiated on its own."""
    if n < 2:
        raise InfeasibleParameters(f"n must be >= 2, got {n}")
    lo, hi = resistance_range
    if not (0 < lo <= hi and np.isfinite(hi)):
        raise InfeasibleParameters(f"bad resistance range {resistance_range}")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleParameters(f"density must lie in [0, 1], got {density}")
    if seed < 0:
        raise InfeasibleParameters(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = np.log(lo), np.log(hi)

    def draw_r():
        return float(np.exp(rng.uniform(log_lo, log_hi)))

    edges = []
    present = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v, draw_r()))
        present.add((u, v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in present and rng.random() < density:
                edges.append((u, v, draw_r()))
    return GffModel(n, edges, pin=1)


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
    """Schur complement onto ``delta`` with ``np.ix_`` blocks and ``eigvalsh``
    at every size; raises SingularMatrix where ``linalg.marginal`` must, with
    its message."""
    keep = tuple(v for v in m.support if v in delta)
    elim = tuple(v for v in m.support if v not in delta)
    if not elim:
        return m
    ki, ei = [m.support.index(v) for v in keep], [m.support.index(v) for v in elim]
    e_block = m.block[np.ix_(ei, ei)]
    w = np.linalg.eigvalsh(e_block)
    if w[0] <= linalg.RANK_TOL * max(w[-1], 0.0):
        raise SingularMatrix(
            f"eliminated block on {elim} is rank-deficient "
            f"(eig range [{w[0]:.3e}, {w[-1]:.3e}])")
    if not keep:
        return SupportedMatrix.zeros()
    cross = m.block[np.ix_(ei, ki)]
    schur = m.block[np.ix_(ki, ki)] - cross.T @ np.linalg.solve(e_block, cross)
    return SupportedMatrix(keep, 0.5 * (schur + schur.T))


def diag_of_inverse_reference(m: SupportedMatrix, subset) -> float:
    """The Cholesky solve at every size, refusing as ``linalg.diag_of_inverse``."""
    subset = tuple(subset)
    if not subset:
        return 0.0
    idx = [m.support.index(v) for v in subset]
    try:
        chol = np.linalg.cholesky(m.block)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(NOT_POSITIVE_DEFINITE.format(exc)) from exc
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
    """``GffRounder.round`` one entry at a time at every size: the class check,
    each off-diagonal magnitude, then each row sum plus the row's rounded
    off-diagonal magnitudes."""
    k = len(p.support)
    out = np.zeros((k, k))
    row_sums = p.block.sum(axis=1)
    if k and not _in_gff_class(p.block, row_sums, rounder.zero_tol):
        raise InvariantViolation("matrix outside the diagonally-dominant M-matrix class")
    for i in range(k):
        for j in range(i + 1, k):
            mag = rounder.snap(abs(p.block[i, j]))
            out[i, j] = out[j, i] = -mag
    for i in range(k):
        out[i, i] = rounder.snap(row_sums[i]) + np.abs(out[i]).sum() - abs(out[i, i])
    return SupportedMatrix(p.support, out)


def svd_round_reference(rounder, p: SupportedMatrix) -> SupportedMatrix:
    """``SvdRounder.round`` through ``eigh``, the sphere net and Gram-Schmidt at
    every size, 1 x 1 included."""
    if not p.support:
        return p
    k = len(p.support)
    w, u = np.linalg.eigh(p.block)
    w = w.tolist()
    if w[0] <= linalg.RANK_TOL * max(w[-1], 0.0):
        raise RankDeficient(
            f"matrix on {p.support} has eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]")
    d = [rounder.snap_eig(x) for x in w]
    u2 = ordered_gram_schmidt(canonical_rays(u, rounder.eps1(k) / math.sqrt(k)))
    out = (u2 * d) @ u2.T
    return SupportedMatrix(p.support, 0.5 * (out + out.T))


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
