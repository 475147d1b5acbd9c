"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6's budget half
asserts the stated greedy factor e/(e-1); that certificate is known not to
hold on all instances (the classical mixed bound does, and is also checked
here), so violations halt the test with the offending instances reported
rather than being absorbed. See README, "greedy certificate caveat".
"""

import itertools
import math
import time

import numpy as np
import pytest

from gmrf_select.decomposition import balance_for_tree, normalize, parse_and_normalize, write_td_text
from gmrf_select.dp import dp_select, factorize
from gmrf_select.exact import exact_budget, exact_cover
from gmrf_select.greedy import greedy_budget, greedy_cover
from gmrf_select.linalg import SupportedMatrix, marginal, obs, trace_of_inverse
from gmrf_select.models import (
    BUDGET_FACTOR,
    GmrfModel,
    conditional_variance,
    effective_resistance,
    err,
    laplacian,
    random_gff,
    tree_gmrf_to_gff,
)
from gmrf_select.rounding import GffRounder, SvdRounder

from conftest import (
    COUNTEREXAMPLE_SIGMA,
    k5_gff,
    random_pd_supported,
    random_tree_gmrf,
    triangle_chain_gmrf,
    unit_cycle,
)
from oracles import (
    eig_extremes,
    factor_total,
    gff_relation_eps,
    psd_sandwich_check,
    reduced_covariance,
)


def report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>2} [{status}] {title}"
    if detail:
        line += f" -- {detail}"
    print(line)
    if not ok:
        pytest.fail(line)


def test_criterion_01_counterexample_reproduction():
    started = time.perf_counter()
    model = GmrfModel.from_covariance(COUNTEREXAMPLE_SIGMA)
    expected = {(1,): 0.1887, (1, 2): 0.1162, (1, 3): 0.1009, (1, 2, 3): 0.0263}
    errs = {s: err(model, s) for s in expected}
    values_ok = all(abs(errs[s] - expected[s]) <= 2e-4 for s in expected)
    gap_first = errs[(1,)] - errs[(1, 2)]
    gap_second = errs[(1, 3)] - errs[(1, 2, 3)]
    violated = gap_first < gap_second
    elapsed = time.perf_counter() - started
    report(1, "counterexample errs and supermodularity violation",
           values_ok and violated and elapsed < 1.0,
           f"errs={[round(errs[s], 5) for s in expected]}, "
           f"gaps {gap_first:.4f} < {gap_second:.4f}, {elapsed:.3f}s")


def test_criterion_02_k5_reproduction():
    g = k5_gff()
    variances = [conditional_variance(g, i, {1}) for i in range(2, 6)]
    var_ok = all(abs(v - 1.0) <= 1e-9 for v in variances)
    cov = reduced_covariance(g)           # over {2,3,4,5}
    sub = cov[np.ix_([0, 1, 2], [0, 1, 2])]
    lam_min = float(np.linalg.eigvalsh(sub)[0])
    eig_ok = abs(lam_min - 0.5) <= 1e-9
    report(2, "K5 (r=5/2) unit variances and 0.5 eigenvalue",
           var_ok and eig_ok, f"V={variances[0]:.12f}, lam_min={lam_min:.12f}")


def test_criterion_03_regular_tightness_exhaustive():
    started = time.perf_counter()
    checked = 0
    for n in range(3, 11):
        g = unit_cycle(n)
        lap = laplacian(g)
        edges = [(u, v) for u, v, _ in g.edges]
        for size in range(1, n + 1):
            for s in itertools.combinations(range(1, n + 1), size):
                s_set = set(s)
                sbar = [v for v in range(1, n + 1) if v not in s_set]
                bound = (1.0 - len(s) / n) / 2.0
                err_s = (trace_of_inverse(obs(lap, s_set)) / n) if sbar else 0.0
                assert err_s >= bound - 1e-12, (n, s)
                independent = not any(u not in s_set and v not in s_set
                                      for u, v in edges)
                assert (abs(err_s - bound) <= 1e-9) == independent, (n, s)
                checked += 1
    elapsed = time.perf_counter() - started
    report(3, "cycle tightness bound, exhaustive n<=10",
           elapsed < 10.0, f"{checked} sets, {elapsed:.2f}s")


def test_criterion_04_three_path_agreement():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        g = random_gff(n, density=float(rng.uniform(0.1, 0.5)),
                       seed=int(rng.integers(1 << 30)))
        s = {g.pin} | {v for v in g.vertices if rng.random() < 0.4}
        rest = [v for v in g.vertices if v not in s]
        e1 = err(g, s)
        e2 = sum(conditional_variance(g, i, s) for i in rest) / n
        e3 = sum(effective_resistance(g, i, s) for i in rest) / n
        scale = max(e1, 1e-300)
        worst = max(worst, abs(e1 - e2) / scale, abs(e1 - e3) / scale)
        assert abs(e1 - e2) <= 1e-9 * scale
        assert abs(e1 - e3) <= 1e-9 * scale
    report(4, "three-path agreement on 100 random GFFs", True,
           f"worst relative gap {worst:.2e}")


def test_criterion_05_supermodularity_suite():
    rng = np.random.default_rng(105)
    checked = 0
    violations = 0
    while checked < 1000:
        n = int(rng.integers(3, 11))
        g = random_gff(n, density=float(rng.uniform(0.1, 0.6)),
                       seed=int(rng.integers(1 << 30)))
        free = [v for v in g.vertices if v != g.pin]
        if len(free) < 2:
            continue
        for _ in range(min(10, 1000 - checked)):
            x, y = (int(v) for v in rng.choice(free, size=2, replace=False))
            a = {g.pin} | {v for v in free if v not in (x, y) and rng.random() < 0.3}
            lhs = err(g, a) - err(g, a | {x})
            rhs = err(g, a | {y}) - err(g, a | {x, y})
            if lhs < rhs - 1e-9:
                violations += 1
            checked += 1
    report(5, "supermodularity over 1000 random tuples",
           violations == 0, f"{checked} tuples, {violations} violations")


def test_criterion_06_greedy_guarantees():
    rng = np.random.default_rng(106)
    budget_findings = []
    classical_ok = True
    cover_ok = True
    for t in range(200):
        n = int(rng.integers(3, 11))
        seed = int(rng.integers(1 << 30))
        g = random_gff(n, density=float(rng.uniform(0.0, 0.5)), seed=seed)
        b = int(rng.integers(0, 5))
        gr = greedy_budget(g, b)
        ex = exact_budget(g, b)
        if gr.err_value > BUDGET_FACTOR * ex.err_value + 1e-9:
            budget_findings.append(
                f"instance(seed={seed}, n={n}, b={b}): greedy={gr.err_value:.6f} "
                f"exact={ex.err_value:.6f} "
                f"ratio={gr.err_value / ex.err_value:.3f} > {BUDGET_FACTOR:.4f}")
        base = err(g, {g.pin})
        classical = base / math.e + (1 - 1 / math.e) * ex.err_value
        classical_ok &= gr.err_value <= classical + 1e-9
        alpha = base * float(rng.uniform(0.05, 0.95))
        gc = greedy_cover(g, alpha)
        ec = exact_cover(g, alpha)
        cover_ok &= len(gc.selected) <= gc.guarantee.factor * len(ec.selected) + 1e-9
    assert classical_ok, "classical mixed bound violated (implementation bug)"
    assert cover_ok, "cover certificate violated (implementation bug)"
    for line in budget_findings:
        print(f"  FINDING greedy-budget stated factor exceeded: {line}")
    report(6, "greedy guarantees over 200 random GFFs",
           not budget_findings,
           f"{len(budget_findings)} stated-factor findings; classical and "
           f"cover bounds hold")


def test_criterion_07_dp_approximation():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    tree_ok = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
        b = int(rng.integers(0, 4))
        td = balance_for_tree(n, g.graph_edges())
        sel = dp_select(g, td, b, 0.1)
        ex = exact_budget(g, b)
        assert sel.err_value <= 1.1 * ex.err_value + 1e-9, \
            f"tree n={n} b={b}: dp={sel.err_value} exact={ex.err_value}"
        tree_ok += 1
    width2_ok = 0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        model, edges, bags, links = triangle_chain_gmrf(n, rng)
        b = int(rng.integers(0, 3))
        td_raw = normalize(bags, links, n, edges)
        td = parse_and_normalize(write_td_text(td_raw), model)  # file surface
        sel = dp_select(model, td, b, 0.1)
        ex = exact_budget(model, b)
        assert sel.err_value <= 1.1 * ex.err_value + 1e-9, \
            f"width2 n={n} b={b}: dp={sel.err_value} exact={ex.err_value}"
        width2_ok += 1
    elapsed = time.perf_counter() - started
    report(7, "dp within 1.1x of exact",
           elapsed < 300.0,
           f"{tree_ok} trees + {width2_ok} width-2 instances, {elapsed:.1f}s")


def test_criterion_08_rounding_contracts():
    rng = np.random.default_rng(108)
    # svd mode: sandwich + idempotence on 100 in-range PD matrices
    sr = SvdRounder(lam_lo=0.4 / 12, lam_hi=9.0, eps=0.1)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        eigs = np.exp(rng.uniform(np.log(sr.lam_lo), np.log(sr.lam_hi), size=k))
        block = (q * eigs) @ q.T
        p = SupportedMatrix(tuple(range(1, k + 1)), 0.5 * (block + block.T))
        out = sr.round(p)
        assert psd_sandwich_check(out, p, sr.eps)
        again = sr.round(out)
        assert np.abs(again.block - out.block).max() <= \
            1e-9 * max(np.abs(out.block).max(), 1e-300)
    # gff mode: element-wise relation at eps + exact idempotence
    base_gff = random_gff(8, density=0.4, resistance_range=(0.5, 2.0), seed=108)
    gr = GffRounder.for_model(base_gff, eps=0.06)

    def random_g(k):
        block = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.7:
                    c = float(np.exp(rng.uniform(np.log(gr.c_l * 1.2),
                                                 np.log(gr.c_h * 0.8))))
                    block[i, j] = block[j, i] = -c
        extra = np.exp(rng.uniform(np.log(gr.c_l * 1.2), np.log(gr.c_h * 0.8), k))
        block[np.diag_indices(k)] = -block.sum(axis=1) + extra
        return SupportedMatrix(tuple(range(1, k + 1)), block)

    trace_ok = True
    for _ in range(100):
        p = random_g(int(rng.integers(1, 5)))
        out = gr.round(p)
        assert gff_relation_eps(p, out, zero_tol=gr.zero_tol) <= gr.eps + 1e-9
        again = gr.round(out)
        assert np.array_equal(again.block, out.block)
        # trace stability at the realized relation eps
        rel = gff_relation_eps(p, out, zero_tol=gr.zero_tol)
        t1, t2 = trace_of_inverse(p), trace_of_inverse(out)
        trace_ok &= t2 <= math.exp(rel) * t1 * (1 + 1e-9)
        trace_ok &= t2 >= math.exp(-rel) * t1 * (1 - 1e-9)
    report(8, "rounding contracts (sandwich, relation, idempotence, trace)",
           trace_ok, "100 matrices per mode")


def test_criterion_09_factorization():
    rng = np.random.default_rng(109)
    pairs = 0
    for _ in range(25):
        n = int(rng.integers(3, 11))
        g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
        td = balance_for_tree(n, g.graph_edges())
        cf = factorize(g, td)
        lap = g.precision_matrix.block
        assert np.allclose(factor_total(cf, n), lap, atol=1e-10 * max(np.abs(lap).max(), 1)), \
            "gff factor sum mismatch"
        pairs += 1
    for _ in range(25):
        n = int(rng.integers(3, 9))
        model, edges, bags, links = triangle_chain_gmrf(n, rng)
        td = normalize(bags, links, n, edges)
        cf = factorize(model, td)
        lam = model.precision_matrix.block
        assert np.allclose(factor_total(cf, n), lam, atol=1e-10 * np.abs(lam).max()), \
            "general factor sum mismatch"
        w = np.linalg.eigvalsh(lam)
        for f in cf:
            if not f.support:
                continue
            fw = np.linalg.eigvalsh(f.block)
            assert fw[0] >= w[0] / td.m, "factor lambda_min below lambda_min/m"
            assert fw[-1] <= w[-1] + 1e-9, "factor lambda_max above lambda_max"
        pairs += 1
    report(9, "cluster factorization sums and eigenvalue bounds", True,
           f"{pairs} (model, decomposition) pairs")


def test_criterion_10_tree_reduction():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 10))
        model = random_tree_gmrf(n, rng)
        w, gff, tail = tree_gmrf_to_gff(model)
        lap = laplacian(gff).block
        cond_cov = np.linalg.inv(lap[:n, :n])
        d = np.diag(w)
        gap = np.abs(d @ model.covariance() @ d - cond_cov).max()
        worst = max(worst, gap)
        assert gap <= 1e-8, f"covariance mismatch {gap}"
    report(10, "tree-GMRF to GFF covariance match on 50 models", True,
           f"worst entrywise gap {worst:.2e}")


def test_criterion_11_eigenvalue_preservation():
    rng = np.random.default_rng(111)
    for _ in range(100):
        k = int(rng.integers(3, 8))
        m = random_pd_supported(rng, range(1, k + 1))
        lo, _ = eig_extremes(m)
        o = set(int(v) for v in rng.choice(np.arange(1, k + 1),
                                           size=int(rng.integers(1, k)),
                                           replace=False))
        delta = set(int(v) for v in rng.choice(np.arange(1, k + 1),
                                               size=int(rng.integers(1, k)),
                                               replace=False))
        lo_obs, _ = eig_extremes(obs(m, o))
        lo_marg, _ = eig_extremes(marginal(m, delta))
        assert lo_obs >= lo - 1e-9, "obs shrank lambda_min"
        assert lo_marg >= lo - 1e-9, "marginal shrank lambda_min"
    report(11, "obs/marginal never shrink lambda_min (100 draws)", True)
