"""Gaussian MRF and Gaussian free field models, the average prediction-error
objective (one scorer, ``err_stack``, behind ``err`` and ``err_batch``) and its
cross-checks, effective resistance, the tree-GMRF to GFF reduction, and the
package's graph helpers (``adjacency``, ``search`` and the tree check
``tree_adjacency``).

Vertices are labeled 1..n throughout, matching the file formats, and vertex v
is row v - 1 of a model's precision and covariance. Models are immutable after
construction; every query is a pure function, so concurrent reads are safe.
The covariance is materialized once, lazily. A model's ``pinned`` set (a GFF's
pin, nothing for a GMRF) is observed in every query.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import (
    NOT_POSITIVE_DEFINITE,
    DisconnectedGraph,
    IndependentPairPresent,
    InfeasibleParameters,
    InvalidMatrix,
    InvariantViolation,
    NotATree,
    SingularMatrix,
)

INDEPENDENCE_TOL = 1e-12  # |Sigma_ij| below this (relative) counts as independent


def adjacency(vertices, edges) -> dict:
    """Fresh neighbour sets of an undirected graph; edges are ``(u, v, ...)``
    tuples, so weighted edges work as well."""
    adj = {v: set() for v in vertices}
    for u, v, *_ in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def search(adj, sources, within=None) -> dict:
    """Every vertex reachable from ``sources`` through ``adj``, staying inside
    ``within`` when given, mapped to the vertex it was reached from (a source
    maps to None). The dict is in visit order, so a vertex always comes after
    the vertex it was reached from."""
    parent = dict.fromkeys(sources)
    stack = list(parent)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in parent and (within is None or w in within):
                parent[w] = u
                stack.append(w)
    return parent


def tree_adjacency(n: int, edges) -> dict:
    """Neighbour sets of the tree with vertices 1..n and the given edges; raise
    NotATree if the edges do not form one."""
    if len(edges) != n - 1 or any(u == v for u, v in edges):
        raise NotATree(f"{len(edges)} edges on {n} vertices is not a tree")
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        if u not in adj or v not in adj:
            raise NotATree(f"edge ({u}, {v}) outside 1..{n}")
        if v in adj[u]:
            raise NotATree(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        adj[u].add(v)
        adj[v].add(u)
    if len(search(adj, [1])) != n:
        raise NotATree("graph is disconnected")
    return adj


class _Model:
    """What GFFs and GMRFs share: n, ``pinned`` and the read-only n x n ``precision_matrix``."""

    pinned = frozenset()
    _covariance = None

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def covariance(self) -> np.ndarray:
        """Full n x n covariance, exactly symmetric, pinned rows zero; cached."""
        if self._covariance is None:
            rest = [v - 1 for v in self.vertices if v not in self.pinned]
            cov = np.zeros((self.n, self.n))
            cov[np.ix_(rest, rest)] = inverse(self.precision_matrix[np.ix_(rest, rest)],
                                              "inverting the precision")
            cov.setflags(write=False)
            self._covariance = cov
        return self._covariance


class GffModel(_Model):
    """Gaussian free field: a connected weighted graph with edge resistances
    and one vertex pinned to zero; the precision is the full n x n Laplacian.
    ``pinned`` is {pin}: every solver treats it as observed and never charges
    it against the selection budget."""

    def __init__(self, n: int, edges, pin: int = 1):
        if n < 2:
            raise InfeasibleParameters(f"a GFF needs at least 2 vertices, got {n}")
        if not 1 <= pin <= n:
            raise InfeasibleParameters(f"pin {pin} outside 1..{n}")
        seen = {}
        for (u, v, r) in edges:
            if u == v:
                raise InvariantViolation(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvariantViolation(f"edge ({u},{v}) outside 1..{n}")
            if not (math.isfinite(r) and r > 0):
                raise InvariantViolation(f"resistance {r} on edge ({u},{v}) not in (0, inf)")
            if not math.isfinite(1.0 / r):
                raise InvariantViolation(f"conductance 1/{r} on edge ({u},{v}) overflows")
            key = (min(u, v), max(u, v))
            if key in seen and abs(seen[key] - r) > 1e-12 * r:
                raise InvariantViolation(f"conflicting resistances on edge {key}")
            seen[key] = float(r)
        if len(seen) < n - 1:   # before any walk over n vertices: n comes from a header
            need = "1 edge" if n == 2 else f"{n - 1} edges"
            raise DisconnectedGraph(f"{n} vertices need {need}, got {len(seen)}")
        self.n = n
        self.pin = pin
        self.edges = tuple((u, v, seen[(u, v)]) for (u, v) in sorted(seen))
        self._check_connected()
        self.precision_matrix = laplacian(self)

    @property
    def pinned(self) -> frozenset:
        return frozenset({self.pin})

    def _check_connected(self):
        seen = search(adjacency(self.vertices, self.edges), [1])
        if len(seen) != self.n:
            missing = sorted(set(self.vertices) - seen.keys())
            raise DisconnectedGraph(f"vertices {missing} unreachable from 1")

    def graph_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.edges]


class GmrfModel(_Model):
    """Gaussian MRF given by a full-rank precision matrix; the graph is exactly
    the nonzero pattern of the off-diagonal entries. Nothing is pinned."""

    def __init__(self, precision):
        lam = _checked(precision)
        w = np.linalg.eigvalsh(lam)
        if w[0] <= 0:
            raise InvariantViolation(
                f"precision not positive definite (lambda_min = {w[0]:.3e})")
        self.n = len(lam)
        lam.setflags(write=False)
        self.precision_matrix = lam

    def graph_edges(self) -> list[tuple[int, int]]:
        size = np.abs(self.precision_matrix)
        rows, cols = np.nonzero(np.triu(size > 1e-14 * size.max(), 1))   # row-major
        return list(zip((rows + 1).tolist(), (cols + 1).tolist()))

    @classmethod
    def from_covariance(cls, sigma) -> "GmrfModel":
        """The GMRF whose covariance is ``sigma``, checked as a precision is;
        ``inverse`` refuses a singular or too ill-conditioned ``sigma``."""
        return cls(inverse(_checked(sigma), "its inverse"))


def _checked(matrix) -> np.ndarray:
    """An outside matrix, validated and returned as 0.5 * (a + a.T). It must be
    n x n with n >= 1, finite, no larger in magnitude than half the largest
    float (so a + a.T cannot overflow) and symmetric. InvalidMatrix names the
    first row with a non-finite or too large entry, or the row of the first
    below-diagonal entry that disagrees with its mirror."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise InvalidMatrix(f"block shape {a.shape} is not n x n with n >= 1")
    size = _bounded(a)
    bad = ~np.isclose(a, a.T, atol=1e-12 * (1.0 + size.max()))
    if bad.any():
        below = np.tril(bad | bad.T, -1)
        raise InvalidMatrix("block is not symmetric", row=int(below.any(axis=1).argmax()))
    return 0.5 * (a + a.T)


def inverse(block: np.ndarray, what: str) -> np.ndarray:
    """The inverse of a symmetric block, as 0.5 * (inv + inv.T). SingularMatrix
    refuses a block LAPACK cannot invert, or whose inverse fails ``_bounded``;
    ``what`` names the inversion in its message."""
    try:
        inv = np.linalg.inv(block)
        _bounded(inv)   # before inv + inv.T, which could overflow
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"covariance is singular ({what}: {exc})") from exc
    except InvalidMatrix as exc:
        raise SingularMatrix(f"covariance is ill-conditioned ({what}: {exc})") from exc
    return 0.5 * (inv + inv.T)


def _bounded(a: np.ndarray) -> np.ndarray:
    """|a|, once every entry is finite and at most half the largest float."""
    bad = ~np.isfinite(a)
    if bad.any():
        raise InvalidMatrix("block has non-finite entries", row=int(bad.any(axis=1).argmax()))
    size, half_max = np.abs(a), np.finfo(float).max / 2
    bad = size > half_max
    if bad.any():
        raise InvalidMatrix(f"block has entries above {half_max:.6g} in magnitude",
                            row=int(bad.any(axis=1).argmax()))
    return size


@dataclass(frozen=True)
class Guarantee:
    factor: float
    source: str


@dataclass(frozen=True)
class SelectionReport:
    """Result of one selection run. ``err_value`` is always recomputed from the
    model by ``err``, never taken from solver internals."""

    selected: tuple[int, ...]
    err_value: float
    solver: str
    n: int
    budget_or_alpha: float | int | None
    guarantee: Guarantee | None = None
    wall_time: float | None = None
    details: dict = field(default_factory=dict)


BUDGET_FACTOR = 1.0 / (1.0 - 1.0 / math.e)


def cover_factor(gff: GffModel) -> float:
    """1 + ln((n-1)^2 R/r) with R the largest and r the smallest edge resistance."""
    resistances = [r for _, _, r in gff.edges]
    return 1.0 + math.log((gff.n - 1) ** 2 * max(resistances) / min(resistances))


def make_report(model, selected, solver, budget_or_alpha,
                started=None, details=None) -> SelectionReport:
    """Every report, and the one place its guarantee is decided: from the solver,
    the model's class and the DP's target ``eps_prime`` in ``details``."""
    sel = tuple(sorted(set(selected)))
    wall = (time.perf_counter() - started) if started is not None else None
    details = dict(details or {})
    guarantee = None
    if solver == "dp" and "eps_prime" in details:
        guarantee = Guarantee(1.0 + details["eps_prime"], "tree DP, target factor")
    elif solver == "greedy-budget" and isinstance(model, GffModel):
        guarantee = Guarantee(BUDGET_FACTOR, "supermodular greedy, budget")
    elif solver == "greedy-cover" and isinstance(model, GffModel):
        guarantee = Guarantee(cover_factor(model), "supermodular cover, log-ratio bound")
    return SelectionReport(
        selected=sel,
        err_value=err(model, sel),
        solver=solver,
        n=model.n,
        budget_or_alpha=budget_or_alpha,
        guarantee=guarantee,
        wall_time=wall,
        details=details,
    )


# ---------------------------------------------------------------------------
# the objective and its cross-checks
# ---------------------------------------------------------------------------

def laplacian(gff: GffModel) -> np.ndarray:
    """Graph Laplacian as a read-only n x n array, vertex v in row v - 1:
    off-diagonal -1/r_ij, diagonal the row's conductance sum. The model
    validated its edges, so it is built as is, exactly symmetric."""
    lam = np.zeros((gff.n, gff.n))
    fill_laplacian(lam, gff.edges)
    lam.setflags(write=False)
    return lam


def fill_laplacian(lam: np.ndarray, edges) -> None:
    """Write the Laplacian of ``edges`` into the zeroed n x n array ``lam``
    (a view will do): distinct pairs (u, v, r) with valid resistances, each
    row's total summed in edge order. A total that overflows is refused."""
    total = [0.0] * len(lam)   # Python floats: an overflow gives inf, not a numpy warning
    for u, v, r in edges:
        c = 1.0 / r
        total[u - 1] += c
        total[v - 1] += c
        lam[u - 1, v - 1] = lam[v - 1, u - 1] = -c
    for v, t in enumerate(total, 1):
        if not math.isfinite(t):
            raise InvariantViolation(f"total conductance at vertex {v} overflows")
    lam[np.diag_indices(len(lam))] = total


def _effective_observed(model, subset) -> frozenset:
    s = frozenset(subset) | model.pinned
    if not s <= set(model.vertices):
        raise InvariantViolation(f"selection {sorted(s)} outside 1..{model.n}")
    return s


def _queried(model, i: int, subset) -> frozenset:
    """frozenset(subset), after checking that vertex i and each vertex of the
    subset lie in 1..n: the range rule of every per-vertex query."""
    s = frozenset(subset)
    for v in (i, *sorted(s)):
        if v not in model.vertices:
            raise InvariantViolation(f"vertex {v} outside 1..{model.n}")
    return s


def err(model, subset) -> float:
    """Average expected squared prediction error of the unobserved variables:
    (1/n) Tr(Lambda[Sbar, Sbar]^-1). The model's pinned vertices are always in
    the observed set; for a GFF Lambda is the full Laplacian. The one-set case
    of ``err_batch``."""
    return err_batch(model, [subset])[0]


def err_batch(model, subsets) -> list[float]:
    """err of each set, through one ``err_stack`` call. InvariantViolation
    names the first set that is not a selection."""
    subsets = [tuple(s) for s in subsets]
    flat = [v for s in subsets for v in s]
    if not set(flat) <= set(model.vertices):
        for s in subsets:
            _effective_observed(model, s)   # raises at the first set that is not a selection
    free = np.ones((len(subsets), model.n), dtype=bool)
    for v in model.pinned:
        free[:, v - 1] = False
    rows = np.arange(len(subsets)).repeat([len(s) for s in subsets])
    free[rows, np.array(flat, dtype=int) - 1] = False
    return err_stack(model.precision_matrix[None], [model.n],
                     np.zeros(len(subsets), dtype=np.intp), free).tolist()


def err_stack(precisions, ns, owner, unobserved) -> np.ndarray:
    """err of many sets drawn from many models. ``precisions`` stacks the
    models' precisions, each zero-padded to the stack's width, and ``ns``
    holds their n. Set i is scored on model ``owner[i]`` with vertex v
    unobserved where ``unobserved[i, v - 1]`` (never past that model's n, nor
    at a pinned vertex). The unobserved blocks of one size go through one
    stacked Cholesky and one stacked inverse: Tr(A^-1) = ||L^-1||_F^2 for
    A = L L^t, and LAPACK still factors each block alone. If a block is not
    positive definite, SingularMatrix names the first such set in set order."""
    ns = np.asarray(ns, dtype=float)
    sizes = unobserved.sum(axis=1)
    out = np.zeros(len(owner))
    try:
        for k in sorted(set(sizes.tolist()) - {0}):   # np.unique would import numpy.ma
            which = (sizes == k).nonzero()[0]
            own, idx = owner[which], unobserved[which].nonzero()[1].reshape(len(which), k)
            inv_l = np.linalg.inv(np.linalg.cholesky(
                precisions[own[:, None, None], idx[:, :, None], idx[:, None, :]]))
            # squared in place and freed before the next size: the call's largest arrays
            inv_l *= inv_l
            out[which] = inv_l.sum(axis=(1, 2)) / ns[own]
            del inv_l
    except np.linalg.LinAlgError:
        for j, row in zip(owner, unobserved):   # each block factored alone, in set order
            try:
                np.linalg.cholesky(precisions[j][np.ix_(row, row)])
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(
                    f"unobserved block on {tuple((row.nonzero()[0] + 1).tolist())} is singular: "
                    + NOT_POSITIVE_DEFINITE.format(exc)) from exc
        raise
    return out


def conditional_variance(model, i: int, subset) -> float:
    """V[X_i | X_S] via the covariance route; 0 when i is observed."""
    s = _queried(model, i, subset) | model.pinned
    if i in s:
        return 0.0
    sigma = model.covariance()
    s_idx = [v - 1 for v in sorted(s - model.pinned)]
    if not s_idx:
        return float(sigma[i - 1, i - 1])
    ss = sigma[np.ix_(s_idx, s_idx)]
    si = sigma[s_idx, i - 1]
    try:
        sol = np.linalg.solve(ss, si)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"Sigma[S,S] singular for S={sorted(s)}") from exc
    return float(sigma[i - 1, i - 1] - si @ sol)


def predictor_weights(model, i: int, subset) -> tuple[tuple[int, ...], np.ndarray]:
    """Weights of the best linear predictor (the conditional mean) of X_i from
    X_S: the row for i of -Lambda[Sbar,Sbar]^-1 Lambda[Sbar,S], the harmonic
    weights on a GFF (pin auto-inserted). Returns (sorted observed indices,
    weights in that order)."""
    s = _queried(model, i, subset) | model.pinned
    if i in s:
        raise InvariantViolation(f"target {i} is observed")
    order = tuple(sorted(s))
    lam = model.precision_matrix
    sbar = tuple(v for v in model.vertices if v not in s)
    bi, si = [v - 1 for v in sbar], [v - 1 for v in order]
    try:
        w_all = -np.linalg.solve(lam[np.ix_(bi, bi)], lam[np.ix_(bi, si)])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"unobserved block singular for S={order}") from exc
    return order, w_all[sbar.index(i)]


def _contracted_potentials(gff: GffModel, i: int, s: frozenset):
    """Potentials with S contracted to ground and unit current injected at i,
    solved from the edge list alone. Returns (phi, pos), where pos maps each
    vertex outside S to its row of phi."""
    rest = [v for v in gff.vertices if v not in s]
    pos = {v: p for p, v in enumerate(rest)}
    a = np.zeros((len(rest), len(rest)))
    for u, v, r in gff.edges:
        c = 1.0 / r
        if u in pos and v in pos:
            a[pos[u], pos[u]] += c
            a[pos[v], pos[v]] += c
            a[pos[u], pos[v]] -= c
            a[pos[v], pos[u]] -= c
        elif u in pos:
            a[pos[u], pos[u]] += c
        elif v in pos:
            a[pos[v], pos[v]] += c
    rhs = np.zeros(len(rest))
    rhs[pos[i]] = 1.0
    return np.linalg.solve(a, rhs), pos


def effective_resistance(gff: GffModel, i: int, subset) -> float:
    """R_eff(i, S): contract S to one node, inject unit current at i, and read
    off the potential. Assembled from the edge list, independently of the
    precision-matrix machinery. A GFF is connected, so every i reaches S."""
    s = _queried(gff, i, subset)
    if not s:
        raise InvariantViolation("S must be nonempty")
    if i in s:
        raise InvariantViolation(f"vertex {i} is in S")
    phi, pos = _contracted_potentials(gff, i, s)
    return float(phi[pos[i]])


# ---------------------------------------------------------------------------
# tree-GMRF -> GFF reduction
# ---------------------------------------------------------------------------

def tree_gmrf_to_gff(model: GmrfModel):
    """Rescale a tree GMRF so its precision becomes diagonally dominant with
    non-positive off-diagonals, then realize it as the conditional law of a GFF
    given observed auxiliary vertices.

    Returns (w, gff, observed_tail): the conditional distribution of the GFF's
    first n variables given the tail equals the law of (w_1 X_1, ..., w_n X_n).
    """
    n = model.n
    edges = model.graph_edges()
    parent = search(tree_adjacency(n, edges), [1])

    sigma = model.covariance()
    diag = np.sqrt(np.diag(sigma))
    independent = np.triu(np.abs(sigma) <= np.outer(INDEPENDENCE_TOL * diag, diag), 1)
    if independent.any():
        i, j = divmod(int(independent.argmax()), n)   # the first pair in row order
        raise IndependentPairPresent(f"variables {i + 1} and {j + 1} are independent")

    lam = model.precision_matrix
    # root-to-leaf sign pass: make every scaled off-diagonal non-positive
    sign = np.zeros(n)
    for v, p in parent.items():
        sign[v - 1] = 1.0 if p is None else -np.sign(lam[p - 1, v - 1]) * sign[p - 1]
    b = np.outer(sign, sign) * lam
    scale = np.abs(b).max()
    row_sums = b.sum(axis=1)
    if row_sums.min() >= -1e-12 * scale:
        mag = np.ones(n)
    else:
        # B is SPD with non-positive off-diagonals, so B^-1 1 > 0 entrywise and
        # the scaled row sums become exactly a_i > 0.
        mag = np.linalg.solve(b, np.ones(n))
        if mag.min() <= 0:
            raise InvariantViolation("magnitude schedule not positive")
    lam_scaled = (mag[:, None] * mag[None, :]) * b
    w = sign / mag

    rs = lam_scaled.sum(axis=1)
    rs_tol = 1e-12 * np.abs(np.diag(lam_scaled)).max()
    gff_edges = []
    for u, v in edges:
        c = -lam_scaled[u - 1, v - 1]
        if c <= 0:
            raise InvariantViolation(f"scaled edge ({u},{v}) lost its coupling")
        gff_edges.append((u, v, 1.0 / c))
    dominant = np.flatnonzero(rs > rs_tol)   # one auxiliary vertex per strictly dominant row
    if not dominant.size:
        raise InvariantViolation("no strictly dominant row; precision not PD?")
    tail = tuple(range(n + 1, n + 1 + dominant.size))
    gff_edges += [(int(i) + 1, aux, 1.0 / rs[i]) for i, aux in zip(dominant, tail)]
    gff = GffModel(n + len(tail), gff_edges, pin=tail[0])
    return w, gff, tail


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def random_gff(n: int, density: float = 0.3,
               resistance_range=(0.5, 2.0), seed: int = 0) -> GffModel:
    """Connected random GFF: a random spanning tree plus extra edges with the
    given per-pair probability; resistances log-uniform in the range."""
    if n < 2:
        raise InfeasibleParameters(f"n must be >= 2, got {n}")
    lo, hi = resistance_range
    if not (0 < lo <= hi and np.isfinite(hi)):
        raise InfeasibleParameters(f"bad resistance range {resistance_range}")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleParameters(f"density must lie in [0, 1], got {density}")
    if seed < 0:
        raise InfeasibleParameters(f"seed must be >= 0, got {seed}")
    return GffModel(n, random_gff_edges(n, density, resistance_range, seed), pin=1)


def random_gff_edges(n: int, density: float, resistance_range, seed: int) -> list:
    """``random_gff``'s edges (u, v, r), u < v, in draw order: a tree edge
    from u = ``integers(1, v)`` to each v = 2..n, then each other pair with
    probability ``density``. A coin or a resistance is one double d of the
    seed's own stream, r = exp(a + (b - a) d) for the range's logs a and b
    (``uniform``'s formula), so the pairs read their doubles in blocks."""
    rng = np.random.default_rng(seed)
    pairs, draws = [], []
    for v in range(2, n + 1):
        pairs.append((int(rng.integers(1, v)), v))
        draws.append(rng.random())
    tree = set(pairs)
    need = (n - 1) * (n - 2)   # a coin and a resistance for each other pair, at most
    doubles = chain.from_iterable(rng.random(min(need - i, 1 << 16)).tolist()
                                  for i in range(0, need, 1 << 16))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in tree and next(doubles) < density:
                pairs.append((u, v))
                draws.append(next(doubles))
    log_lo, log_hi = (np.log(r) for r in resistance_range)
    resistances = np.exp(log_lo + (log_hi - log_lo) * np.array(draws)).tolist()
    return [(u, v, r) for (u, v), r in zip(pairs, resistances)]


def random_gmrf(n: int, tree_width_hint: int = 2,
                condition_cap: float = 1e4, seed: int = 0) -> GmrfModel:
    """Random GMRF whose graph is a partial k-tree of width <= tree_width_hint,
    with the condition number capped by a uniform diagonal shift."""
    if n < 2:
        raise InfeasibleParameters(f"n must be >= 2, got {n}")
    if not condition_cap > 1:
        raise InfeasibleParameters(f"condition cap must exceed 1, got {condition_cap}")
    if tree_width_hint < 1:
        raise InfeasibleParameters(f"tree width hint must be >= 1, got {tree_width_hint}")
    if seed < 0:
        raise InfeasibleParameters(f"seed must be >= 0, got {seed}")
    w = min(tree_width_hint, n - 1)
    rng = np.random.default_rng(seed)
    cliques = [tuple(range(1, w + 2))]   # w <= n - 1
    edge_set = set(combinations(cliques[0], 2))
    for v in range(w + 2, n + 1):
        base = cliques[int(rng.integers(0, len(cliques)))]
        keep = sorted(rng.choice(len(base), size=min(w, len(base)), replace=False))
        sub = tuple(base[t] for t in keep)
        for u in sub:
            edge_set.add((min(u, v), max(u, v)))
        cliques.append(sub + (v,))
    lam = np.zeros((n, n))
    for u, v in sorted(edge_set):
        val = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
        lam[u - 1, v - 1] = val
        lam[v - 1, u - 1] = val
    lam[np.diag_indices(n)] = np.abs(lam).sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
    eig = np.linalg.eigvalsh(lam)
    if eig[-1] / eig[0] > condition_cap:
        shift = (eig[-1] - condition_cap * eig[0]) / (condition_cap - 1.0)
        lam += shift * np.eye(n)
    return GmrfModel(lam)
