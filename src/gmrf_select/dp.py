"""Message-passing dynamic program on a normalized tree decomposition.

Messages flow bottom-up toward the empty root cluster. A message for directed
edge i->j maps (rounded inside-precision P, rounded outside-prior Q, separator
observations S, budget N) to the optimal total error of the variables strictly
inside the subtree at i, with a backpointer for solution extraction.

State handling: the reachable rounded inside-precisions are enumerated
bottom-up (they do not depend on Q); outside priors are evaluated lazily
top-down and memoized, starting from the all-zeros prior at the root. The
state cap is enforced on actually materialized states.

Both recursions take one step per cluster: each local choice (L-hat and the
separator observations it implies per child) is combined with every admissible
combination of child messages; a leaf is the case with no children.

The model's pinned vertices (a GFF's pin) are pre-observed: their rows and
columns are removed from every factor, and they never count against the budget.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from . import linalg
from .decomposition import TreeDecomposition, search
from .errors import (
    EliminationOrderBroken,
    EmptyTable,
    InvariantViolation,
    NumericFailure,
    SingularComplement,
    SingularMatrix,
    StateSpaceExceeded,
)
from .linalg import SupportedMatrix, add, marginal, obs
from .models import GffModel, Guarantee, SelectionReport, make_report
from .rounding import GffRounder, SvdRounder

DEFAULT_STATE_CAP = 10_000_000
EPS_CLAMP = 1e-12
KEY_QUANTUM_REL = 1e-9   # relative key quantization collapsing float round-off
AUDIT_CAP = 500


# ---------------------------------------------------------------------------
# factorization of the precision into per-cluster terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterFactors:
    """Per-cluster precision terms summing to the model precision entrywise."""

    factors: tuple[SupportedMatrix, ...]   # one per cluster, on the cluster's support

    def total(self, n: int) -> np.ndarray:
        out = np.zeros((n, n))
        for f in self.factors:
            out += f.to_dense()
        return out


def factorize(model, td: TreeDecomposition, mode: str) -> ClusterFactors:
    """Split the precision matrix across clusters.

    gff mode: each edge's Laplacian term goes to the lowest-index cluster
    containing both endpoints. general mode: Cholesky of Lambda - sigma*I in
    the elimination order, rows assigned to covering clusters, plus the
    sigma-diagonal split with per-cluster shares of at least sigma/m.
    """
    if mode not in ("gff", "general"):
        raise InvariantViolation(f"unknown factorization mode {mode!r}")
    blocks = [np.zeros((len(c), len(c))) for c in td.clusters]
    supports = [tuple(sorted(c)) for c in td.clusters]
    pos = [{v: t for t, v in enumerate(s)} for s in supports]
    if mode == "gff":
        if not isinstance(model, GffModel):
            raise InvariantViolation("gff factorization needs a GffModel")
        for u, v, r in model.edges:
            home = next((t for t, c in enumerate(td.clusters) if u in c and v in c), None)
            if home is None:
                raise InvariantViolation(f"edge ({u},{v}) inside no cluster")
            c = 1.0 / r
            pu, pv = pos[home][u], pos[home][v]
            blocks[home][pu, pu] += c
            blocks[home][pv, pv] += c
            blocks[home][pu, pv] -= c
            blocks[home][pv, pu] -= c
        return ClusterFactors(tuple(SupportedMatrix(model.n, s, b)
                                    for s, b in zip(supports, blocks)))

    lam = model.precision()
    if len(lam.support) != model.n:
        raise InvariantViolation("general factorization needs full support")
    w = np.linalg.eigvalsh(lam.block)
    lam_min = float(w[0])
    if lam_min <= 1e-12 * max(float(w[-1]), 0.0):
        raise InvariantViolation("general factorization needs positive definite Lambda")

    order = td.elimination_order
    perm = np.array([v - 1 for v in order])
    a_perm = lam.block[np.ix_(perm, perm)]
    chol = None
    for backoff in (1e-9, 1e-7, 1e-5):
        shift = lam_min * (1.0 - backoff)
        try:
            chol = np.linalg.cholesky(a_perm - shift * np.eye(model.n))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericFailure("shifted Cholesky failed at every backoff")

    for col in range(model.n):
        vec = chol[:, col]
        scale = np.abs(vec).max()
        rows = np.nonzero(np.abs(vec) > 1e-13 * scale)[0]
        verts = [order[r] for r in rows]
        home = next((t for t, c in enumerate(td.clusters) if set(verts) <= c), None)
        if home is None:
            raise EliminationOrderBroken(
                f"Cholesky column for vertex {order[col]} has support {sorted(verts)}, "
                f"inside no cluster")
        idx = [pos[home][v] for v in verts]
        sub = vec[rows]
        blocks[home][np.ix_(idx, idx)] += np.outer(sub, sub)
    bags_of = {v: [t for t, c in enumerate(td.clusters) if v in c]
               for v in range(1, model.n + 1)}
    for v, bags in bags_of.items():
        share = shift / len(bags)
        for t in bags:
            blocks[t][pos[t][v], pos[t][v]] += share
    return ClusterFactors(tuple(SupportedMatrix(model.n, s, b)
                                for s, b in zip(supports, blocks)))


# ---------------------------------------------------------------------------
# the message table
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    value: float
    p_mat: SupportedMatrix
    local: tuple[int, ...]                 # L-hat, the vertices observed in Gamma_ij
    children: tuple | None                 # per child: (cluster, q_key, s, n, p_key)
    tiebreak: tuple


@dataclass
class MessageTable:
    """Lazily materialized messages: per directed edge, a map from evaluated contexts
    (Q-key, S-hat, N-hat) to reachable P-hats with values and backpointers.
    ``rounding_audit`` keeps the first roundings computed; memoized repeats add none."""

    td: TreeDecomposition
    mode: str
    eps: float
    budget: int
    tables: dict = field(default_factory=dict)   # (i, j) -> {context -> {p_key -> Entry}}
    heights: dict = field(default_factory=dict)  # (i, j) -> message height
    rounding_audit: list = field(default_factory=list)  # (pre, post) pairs, capped
    states: int = 0
    contexts: int = 0
    root_edge: tuple | None = None
    root_context: tuple | None = None

    def sizing_report(self) -> str:
        return (f"mode={self.mode} eps={self.eps:.3e} budget={self.budget} "
                f"edges={len(self.tables)} contexts={self.contexts} states={self.states}")


class _DpRun:
    """One bottom-up/lazy-top-down DP execution over a fixed decomposition."""

    def __init__(self, model, td, b, eps, rounding, state_cap):
        self.b = int(b)
        self.state_cap = state_cap
        factors = factorize(model, td, "gff" if rounding == "gff" else "general")
        self.sys_factors = tuple(
            obs(f, model.pinned & set(f.support)) for f in factors.factors)
        self.sys_clusters = [frozenset(c) - model.pinned for c in td.clusters]

        w = np.linalg.eigvalsh(obs(model.precision(), model.pinned).block)
        self.key_quantum = max(float(w[-1]), 1e-12) * KEY_QUANTUM_REL

        # allow for drift accumulated over the tree height in the runtime
        # range checks; the nets themselves are unchanged
        drift = (1.0 + 1e-6) * math.exp(min(2.0 * max(td.height, 1) * eps, 0.5))
        if rounding == "gff":
            self.rounder = GffRounder.for_model(model, eps, range_factor=drift)
        elif rounding == "svd":
            self.rounder = SvdRounder.for_system(float(w[0]), float(w[-1]), td.m, eps,
                                                 range_factor=drift)
        else:
            raise InvariantViolation(f"unknown rounding mode {rounding!r}")

        adj = td.neighbors()
        parent = search(adj, [td.root])
        self.children = {u: sorted(v for v in adj[u] if parent[v] == u)
                         for u in range(td.m)}

        self.mt = MessageTable(td, rounding, eps, self.b)
        for u in reversed(parent):
            if u != td.root:
                self.mt.heights[(u, parent[u])] = 1 + max(
                    (self.mt.heights[(k, u)] for k in self.children[u]), default=0)
        self._reach = {}
        self._kernels = {}   # (kernel, cluster, operand bits, observed, keep) -> result

    # -- small helpers --

    def _bump(self, kind, amount=1):
        if kind == "context":
            self.mt.contexts += amount
        else:
            self.mt.states += amount
        if self.mt.contexts + self.mt.states > self.state_cap:
            raise StateSpaceExceeded(self.mt.sizing_report())

    def key_of(self, m: SupportedMatrix) -> tuple:
        ints = np.rint(m.block / self.key_quantum).astype(np.int64)
        return (m.support, ints.tobytes())

    def _round(self, m: SupportedMatrix) -> SupportedMatrix:
        out = self.rounder.round(m)
        if len(self.mt.rounding_audit) < AUDIT_CAP:
            self.mt.rounding_audit.append((m, out))
        return out

    def sep(self, i, j) -> frozenset:
        return self.sys_clusters[i] & self.sys_clusters[j]

    def gamma(self, i, j) -> frozenset:
        return self.sys_clusters[i] - self.sys_clusters[j]

    def _kernel(self, kind, i, operands, observed, keep):
        """A kernel on base = sys_factors[i] + operands (added in order) with the
        ``observed`` variables conditioned out; None if a block is singular.
        Kind "p" is the inside precision Round(Marginal(., keep)); kind "t" is the
        trace term, the summed conditional variances of the kept Gamma-side
        variables (the separator variables stay unobserved). Memoized for the run
        on the exact operand bits, so a repeat gets what recomputing gives."""
        key = (kind, i, tuple((m.support, m.block.tobytes()) for m in operands),
               frozenset(observed), keep)
        if key not in self._kernels:
            base = self.sys_factors[i]
            for m in operands:
                base = add(base, m)
            try:
                block = obs(base, observed)
                self._kernels[key] = (
                    self._round(marginal(block, keep)) if kind == "p" else
                    linalg.diag_of_inverse(block, sorted(keep & set(block.support))))
            except (SingularComplement, SingularMatrix, np.linalg.LinAlgError):
                self._kernels[key] = None
        return self._kernels[key]

    def _local_choices(self, i, j, s_hat, budget):
        """(L-hat, observed set, per-child separator observations) for every local
        choice of edge i->j observing at most ``budget`` vertices, smallest first."""
        gamma = sorted(self.gamma(i, j))
        for size in range(min(len(gamma), budget - len(s_hat)) + 1):
            for l_hat in combinations(gamma, size):
                observed = set(s_hat) | set(l_hat)
                yield l_hat, observed, tuple(tuple(sorted(observed & self.sep(c, i)))
                                             for c in self.children[i])

    # -- bottom-up: reachable rounded inside-precisions (independent of Q) --

    def reachable(self, edge, s_hat) -> dict:
        """{p_key: (p_mat, min_budget)} over all admissible local choices."""
        key = (edge, s_hat)
        if key in self._reach:
            return self._reach[key]
        i, j = edge
        out = {}
        target = self.sep(i, j) - set(s_hat)
        for _, observed, s_kids in self._local_choices(i, j, s_hat, self.b):
            reach = [self.reachable((c, i), s).values()
                     for c, s in zip(self.children[i], s_kids)]
            for combo in product(*reach):   # one empty combination at a leaf
                n_total = len(observed) + sum(n - len(s) for (_, n), s in zip(combo, s_kids))
                if n_total > self.b:
                    continue
                p = self._kernel("p", i, tuple(p for p, _ in combo), observed, target)
                if p is None:
                    continue
                pk = self.key_of(p)
                if pk not in out:
                    self._bump("state")
                if pk not in out or n_total < out[pk][1]:
                    out[pk] = (p, n_total)
        self._reach[key] = out
        return out

    # -- lazy top-down evaluation --

    def evaluate(self, edge, q_mat: SupportedMatrix, q_key, s_hat, n_hat) -> dict:
        """{p_key: Entry} for one (Q, S, N) context of a directed edge;
        ``q_key`` is ``key_of(q_mat)``."""
        i, j = edge
        ctx = (q_key, s_hat, n_hat)
        done = self.mt.tables.get(edge, {})
        if ctx in done:
            return done[ctx]
        self._bump("context")
        table = {}
        gamma = self.gamma(i, j)
        target = self.sep(i, j) - set(s_hat)
        for l_hat, observed, s_kids in self._local_choices(i, j, s_hat, n_hat):
            n_kids = n_hat - len(observed) + sum(map(len, s_kids))
            for value, p_kids, kids_ptr in self._child_entries(i, observed, s_kids,
                                                               n_kids, q_mat):
                p = self._kernel("p", i, p_kids, observed, target)
                if p is None:
                    continue
                tr = self._kernel("t", i, (*p_kids, q_mat), observed, gamma - set(l_hat))
                if tr is None:
                    continue
                self._store(table, p, value + tr, l_hat, kids_ptr)
        self.mt.tables.setdefault(edge, {})[ctx] = table
        return table

    def _child_entries(self, i, observed, s_kids, n_kids, q_mat):
        """(summed child value, child P's, backpointers) for every pair of child
        entries that together observe ``n_kids`` vertices (separators included);
        one (0.0, (), None) at a leaf. Each child's outside prior folds in the
        sibling's P and the parent's Q."""
        if not s_kids:
            yield 0.0, (), None
            return
        (k, l), (s_ik, s_il) = self.children[i], s_kids
        reach_l = self.reachable((l, i), s_il)
        for n_k in range(len(s_ik), n_kids - len(s_il) + 1):
            n_l = n_kids - n_k
            for pl_key, (p_li, min_l) in sorted(reach_l.items()):
                if min_l > n_l:
                    continue
                q_ik = self._kernel("p", i, (p_li, q_mat), observed,
                                    self.sep(k, i) - set(s_ik))
                if q_ik is None:
                    continue
                key_ik = self.key_of(q_ik)
                for pk_key, ent_k in self.evaluate((k, i), q_ik, key_ik, s_ik, n_k).items():
                    q_il = self._kernel("p", i, (ent_k.p_mat, q_mat), observed,
                                        self.sep(l, i) - set(s_il))
                    if q_il is None:
                        continue
                    key_il = self.key_of(q_il)
                    ent_l = self.evaluate((l, i), q_il, key_il, s_il, n_l).get(pl_key)
                    if ent_l is not None:
                        yield (ent_k.value + ent_l.value, (ent_k.p_mat, p_li),
                               ((k, key_ik, s_ik, n_k, pk_key), (l, key_il, s_il, n_l, pl_key)))

    def _store(self, table, p_mat, value, l_hat, kids_ptr):
        pk = self.key_of(p_mat)
        tiebreak = (tuple(l_hat),
                    tuple((c[0], c[2], c[3], c[4]) for c in (kids_ptr or ())))
        old = table.get(pk)
        if old is None:
            self._bump("state")
        if old is None or (value, tiebreak) < (old.value, old.tiebreak):
            table[pk] = Entry(value=value, p_mat=p_mat, local=tuple(l_hat),
                              children=kids_ptr, tiebreak=tiebreak)


def run_dp(model, td: TreeDecomposition, b: int, eps: float, rounding: str,
           state_cap: int = DEFAULT_STATE_CAP) -> MessageTable:
    """Run the full DP; the returned table contains the evaluated root context
    (all-zeros outside prior, empty separator, full budget)."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    if state_cap < 0:
        raise InvariantViolation(f"state cap must be >= 0, got {state_cap}")
    run = _DpRun(model, td, b, eps, rounding, state_cap)
    (root_neighbor,) = run.children[td.root]
    zero_q = SupportedMatrix.zeros(model.n)
    zero_key = run.key_of(zero_q)
    table = run.evaluate((root_neighbor, td.root), zero_q, zero_key, (), b)
    if not table:
        raise NumericFailure(
            "no finite root message; every configuration hit a singular block")
    run.mt.root_edge = (root_neighbor, td.root)
    run.mt.root_context = (zero_key, (), b)
    return run.mt


def extract_solution(mt: MessageTable, model, td: TreeDecomposition,
                     b: int) -> SelectionReport:
    """Walk backpointers from the minimizing root entry; recompute err fresh."""
    started = time.perf_counter()
    if mt.root_edge is None:
        raise EmptyTable("run_dp has not populated this table")
    root_edge = mt.root_edge
    root_ctx = mt.root_context
    table = mt.tables[root_edge][root_ctx]
    if not table:
        raise EmptyTable("root message has no finite entries")
    best_key = min(table, key=lambda k: (table[k].value, table[k].tiebreak, k))

    selected = set()

    def walk(edge, ctx, p_key):
        entry = mt.tables[edge][ctx][p_key]
        selected.update(entry.local)
        selected.update(ctx[1])
        for child in entry.children or ():
            c, q_key, s, n, pk = child
            walk((c, edge[0]), (q_key, s, n), pk)

    walk(root_edge, root_ctx, best_key)
    if len(selected) > b:
        raise InvariantViolation(
            f"extracted {len(selected)} observations with budget {b}")
    report = make_report(model, selected | model.pinned, "dp", b, started=started,
                         details={"table_value": table[best_key].value,
                                  "sizing": mt.sizing_report()})
    table_err = table[best_key].value / model.n
    bound = _accumulated_factor(mt)
    if math.isfinite(bound):
        if report.err_value > bound * table_err * (1 + 1e-9) + 1e-12:
            raise InvariantViolation(
                f"recomputed err {report.err_value!r} exceeds table value "
                f"{table_err!r} by more than the factor {bound!r}")
    return report


def _accumulated_factor(mt: MessageTable) -> float:
    h = max(mt.heights.values(), default=1)
    if mt.mode == "svd":
        return math.exp(min(2.0 * h * mt.eps, 700.0))
    kappa = mt.td.width
    exponent = mt.eps * (3.0 ** min(4.0 * kappa * h, 680.0 / math.log(3.0)))
    return math.exp(min(exponent, 700.0))


def dp_select(model, td: TreeDecomposition, b: int, eps_prime: float,
              rounding: str | None = None,
              state_cap: int = DEFAULT_STATE_CAP) -> SelectionReport:
    """Choose the internal rounding resolution from the target factor
    (1 + eps_prime) and the decomposition height, then run the DP and extract.

    gff mode shrinks eps exponentially in the width and height (clamped at
    machine precision, with a warning); svd mode shrinks it linearly in the
    height.
    """
    if not 0.0 < eps_prime < 1.0:
        raise InvariantViolation(f"eps_prime must lie in (0, 1), got {eps_prime}")
    if rounding is None:
        rounding = "gff" if isinstance(model, GffModel) else "svd"
    if rounding == "gff" and not isinstance(model, GffModel):
        raise InvariantViolation("gff factorization needs a GffModel")
    h = max(td.height, 1)
    details = {"eps_prime": eps_prime, "rounding": rounding}
    if rounding == "gff":
        kappa = td.width
        log_eps = math.log(eps_prime) - math.log(4.0) - 4.0 * kappa * h * math.log(3.0)
        eps_theory = math.exp(log_eps) if log_eps > -700 else 0.0
        details["eps_theoretical"] = eps_theory
        eps = max(eps_theory, EPS_CLAMP)
        if eps_theory < EPS_CLAMP:
            details["eps_clamped"] = True
            warnings.warn(
                f"theoretical rounding resolution {eps_theory:.3e} is below machine "
                f"precision; clamped to {EPS_CLAMP:.0e}", RuntimeWarning, stacklevel=2)
    else:
        eps = eps_prime / (4.0 * (2.0 * h + 1.0))
        details["eps_theoretical"] = eps
    details["eps_used"] = eps
    mt = run_dp(model, td, b, eps, rounding, state_cap=state_cap)
    report = extract_solution(mt, model, td, b)
    return replace(report,
                   guarantee=Guarantee(1.0 + eps_prime, "tree DP, target factor"),
                   details={**report.details, **details})
