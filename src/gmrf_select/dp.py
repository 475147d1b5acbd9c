"""Message-passing dynamic program on a normalized tree decomposition.

Messages flow bottom-up toward the empty root cluster. A message for directed
edge i->j maps (rounded inside-precision P, rounded outside-prior Q, separator
observations S, budget N) to the optimal total error of the variables strictly
inside the subtree at i, with the set of vertices that optimum observes.

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
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import linalg
from .decomposition import TreeDecomposition
from .errors import (
    InstanceTooLarge,
    InvalidDecomposition,
    InvariantViolation,
    NumericFailure,
    SingularMatrix,
)
from .linalg import SupportedMatrix, add, marginal, obs
from .models import GffModel, SelectionReport, adjacency, make_report, search
from .rounding import GffRounder, SvdRounder

DEFAULT_STATE_CAP = 10_000_000
EPS_CLAMP = 1e-12
KEY_QUANTUM_REL = 1e-9   # relative key quantization collapsing float round-off
AUDIT_CAP = 500
_MISSING = object()   # memo miss; a cached None is a dropped configuration


# ---------------------------------------------------------------------------
# factorization of the precision into per-cluster terms
# ---------------------------------------------------------------------------

def factorize(model, td: TreeDecomposition) -> tuple[SupportedMatrix, ...]:
    """Split the precision matrix across clusters: one factor per cluster, on
    the cluster's support, the factors summing to the precision entrywise.

    A GFF: each edge's Laplacian term goes to the lowest-index cluster
    containing both endpoints. A GMRF: Cholesky of Lambda - sigma*I in the
    elimination order, rows assigned to covering clusters, plus the
    sigma-diagonal split with per-cluster shares of at least sigma/m.
    """
    blocks = [np.zeros((len(c), len(c))) for c in td.clusters]
    supports = [tuple(sorted(c)) for c in td.clusters]
    pos = [{v: t for t, v in enumerate(s)} for s in supports]
    if isinstance(model, GffModel):
        for u, v, r in model.edges:
            home = next((t for t, c in enumerate(td.clusters) if u in c and v in c), None)
            if home is None:
                raise InvalidDecomposition(f"edge ({u},{v}) inside no cluster")
            c = 1.0 / r
            pu, pv = pos[home][u], pos[home][v]
            blocks[home][pu, pu] += c
            blocks[home][pv, pv] += c
            blocks[home][pu, pv] -= c
            blocks[home][pv, pu] -= c
        return tuple(SupportedMatrix(s, b) for s, b in zip(supports, blocks))

    w = np.linalg.eigvalsh(model.precision_matrix)
    lam_min = float(w[0])
    if lam_min <= linalg.RANK_TOL * max(float(w[-1]), 0.0):
        raise InvariantViolation("general factorization needs positive definite Lambda")

    order = td.elimination_order
    perm = np.array([v - 1 for v in order])
    a_perm = model.precision_matrix[np.ix_(perm, perm)]
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
            raise InvalidDecomposition(
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
    return tuple(SupportedMatrix(s, b) for s, b in zip(supports, blocks))


# ---------------------------------------------------------------------------
# the message table
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    value: float
    p_mat: SupportedMatrix
    chosen: frozenset                      # every vertex observed inside the subtree
    tiebreak: tuple


class MessageTable:
    """One bottom-up/lazy-top-down DP execution over a fixed decomposition.

    Messages are materialized lazily: per directed edge, a map from evaluated
    contexts (Q-key, S-hat, N-hat) to reachable P-hats with their entries.
    ``mode`` is "gff" (element-wise rounding) for a GffModel, else "svd".
    ``rounding_audit`` keeps the first roundings computed; memoized repeats add none."""

    def __init__(self, model, td, b, eps, state_cap):
        self.started = time.perf_counter()   # the solve's clock, read by extract_solution
        self.model = model
        self.td = td
        self.mode = "gff" if isinstance(model, GffModel) else "svd"
        self.eps = eps
        self.budget = int(b)
        self.state_cap = state_cap
        self.tables = {}            # (i, j) -> {context -> {p_key -> Entry}}
        self.rounding_audit = []    # (pre, post) pairs, capped
        self.states = self.contexts = 0
        self.root_table = None
        self.sys_factors = tuple(
            obs(f, model.pinned & set(f.support)) for f in factorize(model, td))
        self.sys_clusters = [frozenset(c) - model.pinned for c in td.clusters]

        rest = [v - 1 for v in model.vertices if v not in model.pinned]
        w = np.linalg.eigvalsh(model.precision_matrix[np.ix_(rest, rest)])
        self.key_quantum = max(float(w[-1]), 1e-12) * KEY_QUANTUM_REL

        # allow for drift accumulated over the tree height in the runtime
        # range checks; the nets themselves are unchanged
        drift = (1.0 + 1e-6) * math.exp(min(2.0 * td.height * eps, 0.5))
        if self.mode == "gff":
            self.rounder = GffRounder.for_model(model, eps, range_factor=drift)
        else:
            self.rounder = SvdRounder(lam_lo=float(w[0]) / td.m, lam_hi=float(w[-1]), eps=eps,
                                      range_factor=drift)

        adj = adjacency(range(td.m), td.tree_edges)
        parent = search(adj, [td.root])
        self.children = {u: sorted(v for v in adj[u] if parent[v] == u)
                         for u in range(td.m)}
        self._reach = {}
        self._kernels = {}   # (kernel, cluster, *operand bits, observed, keep) -> result

    def sizing_report(self) -> str:
        return (f"mode={self.mode} eps={self.eps:.3e} budget={self.budget} "
                f"edges={len(self.tables)} contexts={self.contexts} states={self.states}")

    # -- small helpers --

    def _bump(self, kind):
        if kind == "context":
            self.contexts += 1
        else:
            self.states += 1
        if self.contexts + self.states > self.state_cap:
            raise InstanceTooLarge(self.sizing_report())

    def key_of(self, m: SupportedMatrix) -> tuple:
        ints = np.rint(m.block / self.key_quantum).astype(np.int64)
        return (m.support, ints.tobytes())

    def _round(self, m: SupportedMatrix) -> SupportedMatrix:
        out = self.rounder.round(m)
        if len(self.rounding_audit) < AUDIT_CAP:
            self.rounding_audit.append((m, out))
        return out

    def sep(self, i, j) -> frozenset:
        return self.sys_clusters[i] & self.sys_clusters[j]

    def gamma(self, i, j) -> frozenset:
        return self.sys_clusters[i] - self.sys_clusters[j]

    def _kernel(self, kind, i, operands, observed, keep):
        """A kernel on base = sys_factors[i] + operands (summed left to right) with
        the ``observed`` variables conditioned out; None if a block is singular.
        Kind "p" gives (P, key_of(P)) for the inside precision P =
        Round(Marginal(., keep)), so each result is keyed once; kind "t" gives
        the trace term, the summed conditional variances of the kept
        Gamma-side variables (the separator variables stay unobserved). Memoized
        for the run on the exact operand bits, so a repeat gets what recomputing
        gives."""
        key = (kind, i, *[(m.support, m.block.tobytes()) for m in operands],
               frozenset(observed), keep)
        out = self._kernels.get(key, _MISSING)
        if out is not _MISSING:
            return out
        base = self.sys_factors[i]
        if operands:
            base = add(base, *operands)
        try:
            block = obs(base, observed)
            if kind == "p":
                p = self._round(marginal(block, keep))
                out = (p, self.key_of(p))
            else:
                out = linalg.diag_of_inverse(
                    block, tuple(v for v in block.support if v in keep))
        except (SingularMatrix, np.linalg.LinAlgError):
            out = None
        self._kernels[key] = out
        return out

    def _local_choices(self, i, j, s_hat, budget):
        """(L-hat, observed set, per-child separator observations) for every local
        choice of edge i->j observing at most ``budget`` vertices, smallest first."""
        gamma = sorted(self.gamma(i, j))
        seps = [self.sep(c, i) for c in self.children[i]]
        for size in range(min(len(gamma), budget - len(s_hat)) + 1):
            for l_hat in combinations(gamma, size):
                observed = frozenset(s_hat).union(l_hat)
                yield l_hat, observed, tuple(tuple(sorted(observed & sep)) for sep in seps)

    # -- bottom-up: reachable rounded inside-precisions (independent of Q) --

    def reachable(self, edge, s_hat) -> dict:
        """{p_key: (p_mat, min_budget)} over all admissible local choices."""
        key = (edge, s_hat)
        if key in self._reach:
            return self._reach[key]
        i, j = edge
        out = {}
        target = self.sep(i, j).difference(s_hat)
        for _, observed, s_kids in self._local_choices(i, j, s_hat, self.budget):
            reach = [self.reachable((c, i), s).values()
                     for c, s in zip(self.children[i], s_kids)]
            for combo in product(*reach):   # one empty combination at a leaf
                n_total = len(observed) + sum(n - len(s) for (_, n), s in zip(combo, s_kids))
                if n_total > self.budget:
                    continue
                hit = self._kernel("p", i, tuple(p for p, _ in combo), observed, target)
                if hit is None:
                    continue
                p, pk = hit
                old = out.get(pk)
                if old is None:
                    self._bump("state")
                if old is None or n_total < old[1]:
                    out[pk] = (p, n_total)
        self._reach[key] = out
        return out

    # -- lazy top-down evaluation --

    def evaluate(self, edge, q_mat: SupportedMatrix, q_key, s_hat, n_hat) -> dict:
        """{p_key: Entry} for one (Q, S, N) context of a directed edge;
        ``q_key`` is ``key_of(q_mat)``."""
        i, j = edge
        ctx = (q_key, s_hat, n_hat)
        done = self.tables.get(edge, {})
        if ctx in done:
            return done[ctx]
        self._bump("context")
        table = {}
        gamma = self.gamma(i, j)
        target = self.sep(i, j).difference(s_hat)
        for l_hat, observed, s_kids in self._local_choices(i, j, s_hat, n_hat):
            n_kids = n_hat - len(observed) + sum(map(len, s_kids))
            gamma_keep = gamma.difference(l_hat)
            for value, p_kids, kids_chosen, kids_tie in self._child_entries(
                    i, observed, s_kids, n_kids, q_mat):
                hit = self._kernel("p", i, p_kids, observed, target)
                if hit is None:
                    continue
                # with every Gamma-side variable observed the trace term is 0
                tr = (self._kernel("t", i, (*p_kids, q_mat), observed, gamma_keep)
                      if gamma_keep else 0.0)
                if tr is None:
                    continue
                self._store(table, *hit, value + tr, l_hat, kids_chosen, kids_tie)
        self.tables.setdefault(edge, {})[ctx] = table
        return table

    def _child_entries(self, i, observed, s_kids, n_kids, q_mat):
        """(summed child value, child P's, union of the children's chosen sets,
        tiebreak part) for every pair of child entries that together observe
        ``n_kids`` vertices (separators included); one empty pair at a leaf.
        Each child's outside prior folds in the sibling's P and the parent's Q."""
        if not s_kids:
            yield 0.0, (), frozenset(), ()
            return
        (k, l), (s_ik, s_il) = self.children[i], s_kids
        reach_l = sorted(self.reachable((l, i), s_il).items())
        target_k = self.sep(k, i).difference(s_ik)
        target_l = self.sep(l, i).difference(s_il)
        for n_k in range(len(s_ik), n_kids - len(s_il) + 1):
            n_l = n_kids - n_k
            for pl_key, (p_li, min_l) in reach_l:
                if min_l > n_l:
                    continue
                hit = self._kernel("p", i, (p_li, q_mat), observed, target_k)
                if hit is None:
                    continue
                for pk_key, ent_k in self.evaluate((k, i), *hit, s_ik, n_k).items():
                    hit = self._kernel("p", i, (ent_k.p_mat, q_mat), observed, target_l)
                    if hit is None:
                        continue
                    ent_l = self.evaluate((l, i), *hit, s_il, n_l).get(pl_key)
                    if ent_l is not None:
                        yield (ent_k.value + ent_l.value, (ent_k.p_mat, p_li),
                               ent_k.chosen | ent_l.chosen,
                               ((k, s_ik, n_k, pk_key), (l, s_il, n_l, pl_key)))

    def _store(self, table, p_mat, pk, value, l_hat, kids_chosen, kids_tie):
        tiebreak = (tuple(l_hat), kids_tie)
        old = table.get(pk)
        if old is None:
            self._bump("state")
        if old is None or (value, tiebreak) < (old.value, old.tiebreak):
            table[pk] = Entry(value, p_mat, frozenset(l_hat) | kids_chosen, tiebreak)


def run_dp(model, td: TreeDecomposition, b: int, eps: float,
           state_cap: int = DEFAULT_STATE_CAP) -> MessageTable:
    """Run the full DP; ``root_table`` holds the evaluated root context
    (all-zeros outside prior, empty separator, full budget)."""
    if b < 0:
        raise InvariantViolation(f"budget must be >= 0, got {b}")
    if state_cap < 0:
        raise InvariantViolation(f"state cap must be >= 0, got {state_cap}")
    if not (math.isfinite(eps) and eps > 0):
        raise InvariantViolation(f"eps must be finite and > 0, got {eps}")
    mt = MessageTable(model, td, b, eps, state_cap)
    (root_neighbor,) = mt.children[td.root]
    zero_q = SupportedMatrix.zeros()
    mt.root_table = mt.evaluate((root_neighbor, td.root), zero_q, mt.key_of(zero_q), (), b)
    if not mt.root_table:
        raise NumericFailure(
            "no finite root message; every configuration hit a singular block")
    return mt


def extract_solution(mt: MessageTable, details=None) -> SelectionReport:
    """Report the minimizing root entry's chosen set and err (fresh), plus ``details``."""
    table, model, b = mt.root_table, mt.model, mt.budget
    if not table:
        raise NumericFailure("run_dp has not populated a finite root message")
    best = table[min(table, key=lambda k: (table[k].value, table[k].tiebreak, k))]
    if len(best.chosen) > b:
        raise InvariantViolation(
            f"extracted {len(best.chosen)} observations with budget {b}")
    report = make_report(model, best.chosen | model.pinned, "dp", b, started=mt.started,
                         details={"table_value": best.value,
                                  "sizing": mt.sizing_report(), **(details or {})})
    table_err = best.value / model.n
    bound = _accumulated_factor(mt)   # finite: every exponent is capped at 700
    if report.err_value > bound * table_err * (1 + 1e-9) + 1e-12:
        raise InvariantViolation(
            f"recomputed err {report.err_value!r} exceeds table value "
            f"{table_err!r} by more than the factor {bound!r}")
    return report


def _accumulated_factor(mt: MessageTable) -> float:
    h = mt.td.height
    if mt.mode == "svd":
        return math.exp(min(2.0 * h * mt.eps, 700.0))
    kappa = mt.td.width
    exponent = mt.eps * (3.0 ** min(4.0 * kappa * h, 680.0 / math.log(3.0)))
    return math.exp(min(exponent, 700.0))


def dp_select(model, td: TreeDecomposition, b: int, eps_prime: float,
              state_cap: int = DEFAULT_STATE_CAP) -> SelectionReport:
    """Choose the internal rounding resolution from the target factor
    (1 + eps_prime) and the decomposition height, then run the DP and extract.

    The model picks the rounding: a GFF gets gff mode, which shrinks eps
    exponentially in the width and height (clamped at machine precision, noted
    in details); a GMRF gets svd mode, which shrinks it linearly in the height.
    """
    if not 0.0 < eps_prime < 1.0:
        raise InvariantViolation(f"eps_prime must lie in (0, 1), got {eps_prime}")
    rounding = "gff" if isinstance(model, GffModel) else "svd"
    h = td.height
    details = {"eps_prime": eps_prime, "rounding": rounding}
    if rounding == "gff":
        kappa = td.width
        log_eps = math.log(eps_prime) - math.log(4.0) - 4.0 * kappa * h * math.log(3.0)
        eps_theory = math.exp(log_eps) if log_eps > -700 else 0.0
        details["eps_theoretical"] = eps_theory
        eps = max(eps_theory, EPS_CLAMP)
        if eps_theory < EPS_CLAMP:
            details["eps_clamped"] = True
            details["note"] = (f"theoretical rounding resolution {eps_theory:.3e} is below "
                               f"machine precision; clamped to {EPS_CLAMP:.0e}")
    else:
        eps = eps_prime / (4.0 * (2.0 * h + 1.0))
        details["eps_theoretical"] = eps
    details["eps_used"] = eps
    return extract_solution(run_dp(model, td, b, eps, state_cap=state_cap), details)
