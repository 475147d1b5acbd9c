import math

import numpy as np
import pytest

from gmrf_select.errors import (EigenvalueOutOfRange, InvariantViolation, OutOfGridRange,
                                RankDeficient)
from gmrf_select.linalg import SupportedMatrix, marginal, obs, trace_of_inverse
from gmrf_select.models import random_gff
from gmrf_select.rounding import (
    GffRounder,
    SvdRounder,
    canonical_rays,
    log_grid_snap,
)

from oracles import (
    canonical_ray_reference,
    gff_relation_eps,
    gff_round_reference,
    is_gff_class,
    psd_sandwich_check,
    supported,
)


def random_g_matrix(rng, k, lo=0.05, hi=2.0):
    """Random diagonally-dominant M-matrix on support 1..k."""
    block = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.7:
                c = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                block[i, j] = block[j, i] = -c
    slack = np.exp(rng.uniform(np.log(lo), np.log(hi), size=k))
    block[np.diag_indices(k)] = -block.sum(axis=1) + slack
    return SupportedMatrix(tuple(range(1, k + 1)), block)


class TestLogGridSnap:
    def test_between_points_goes_to_log_nearest(self):
        base, eps = 0.2, 0.3
        for k in range(5):
            low = base * math.exp(k * eps)
            mid_low = low * math.exp(0.4 * eps)
            mid_high = low * math.exp(0.6 * eps)
            assert abs(log_grid_snap(mid_low, base, eps, 10) - low) < 1e-12
            assert abs(log_grid_snap(mid_high, base, eps, 10)
                       - low * math.exp(eps)) < 1e-12

    def test_tie_goes_lower(self):
        base, eps = 1.0, 0.5
        tie = base * math.exp(0.5 * eps)
        assert abs(log_grid_snap(tie, base, eps, 10) - base) < 1e-12

    def test_clipping(self):
        assert log_grid_snap(1e-9, 1.0, 0.5, 4) == 1.0
        assert abs(log_grid_snap(1e9, 1.0, 0.5, 4) - math.exp(2.0)) < 1e-9


class TestGffRound:
    def rounder(self, eps=0.05):
        g = random_gff(8, density=0.4, resistance_range=(0.5, 2.0), seed=5)
        return g, GffRounder.for_model(g, eps=eps)

    def test_fixed_point(self):
        g, r = self.rounder()
        sub = obs(supported(g), {4, 5, 6, 7, 8})
        rounded = r.round(sub)
        again = r.round(rounded)
        assert np.array_equal(rounded.block, again.block)

    def test_scalar_log_rounding_oracle(self):
        g, r = self.rounder(eps=0.1)
        v = r.c_l * math.exp(3.7 * r.eps)
        m = SupportedMatrix((2,), np.array([[v]]))
        out = r.round(m)
        # oracle: nearest exponent in log space
        k = round(math.log(v / r.c_l) / r.eps)
        assert abs(out.block[0, 0] - r.c_l * math.exp(k * r.eps)) < 1e-15

    def test_zero_row_sum_stays_zero(self):
        # a pure sub-Laplacian block has zero row sums
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g, r = self.rounder()
        out = r.round(SupportedMatrix((1, 2), block))
        assert np.allclose(out.block.sum(axis=1), 0.0, atol=1e-15)

    def test_element_relation_at_half_eps(self):
        rng = np.random.default_rng(1)
        g, r = self.rounder(eps=0.08)
        for _ in range(100):
            m = random_g_matrix(rng, int(rng.integers(1, 5)),
                                lo=r.c_l * 1.2, hi=r.c_h * 0.8)
            out = r.round(m)
            rel = gff_relation_eps(m, out, zero_tol=r.zero_tol)
            assert rel <= r.eps / 2 + 1e-9

    def test_out_of_range_raises(self):
        g, r = self.rounder()
        big = SupportedMatrix((1,), np.array([[r.c_h * 10.0]]))
        with pytest.raises(OutOfGridRange):
            r.round(big)
        small = SupportedMatrix((1,), np.array([[r.c_l / 10.0]]))
        with pytest.raises(OutOfGridRange):
            r.round(small)

    def test_outside_the_class_raises(self):
        # a positive off-diagonal: refused before any entry is snapped
        r = GffRounder(c_l=0.1, c_h=10.0, eps=0.1)
        with pytest.raises(InvariantViolation) as info:
            r.round(SupportedMatrix((1, 2), np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert str(info.value) == "matrix outside the diagonally-dominant M-matrix class"

    def test_net_membership(self):
        rng = np.random.default_rng(2)
        g, r = self.rounder(eps=0.05)
        m = random_g_matrix(rng, 3, lo=r.c_l * 1.5, hi=r.c_h * 0.5)
        out = r.round(m)
        grid = {0.0} | {r.c_l * math.exp(k * r.eps) for k in range(r.top_index + 1)}
        for i in range(3):
            for j in range(i + 1, 3):
                assert any(abs(abs(out.block[i, j]) - p) < 1e-12 * max(p, 1) for p in grid)
        for rs in out.block.sum(axis=1):
            assert any(abs(rs - p) < 1e-9 * max(p, 1e-9) for p in grid)


class TestGffOpsErrorPropagation:
    def perturb(self, m, rng, eps):
        """Entry-wise e^(+-eps) perturbation staying in the class."""
        k = len(m.support)
        out = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                if m.block[i, j] != 0.0:
                    out[i, j] = out[j, i] = -abs(m.block[i, j]) * math.exp(
                        float(rng.uniform(-eps, eps)))
        rs = m.block.sum(axis=1)
        for i in range(k):
            rs_new = rs[i] * math.exp(float(rng.uniform(-eps, eps)))
            out[i, i] = rs_new + np.abs(out[i]).sum() - abs(out[i, i])
        return SupportedMatrix(m.support, out)

    def test_obs_preserves_relation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_g_matrix(rng, 4)
            m2 = self.perturb(m, rng, 0.05)
            base = gff_relation_eps(m, m2)
            o = {int(rng.integers(1, 5))}
            after = gff_relation_eps(obs(m, o), obs(m2, o))
            assert after <= base + 1e-12

    def test_single_marginal_triples_relation(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = random_g_matrix(rng, 4)
            eps = 0.02
            m2 = self.perturb(m, rng, eps)
            actual = gff_relation_eps(m, m2)
            target = sorted(m.support)[:3]
            try:
                a = marginal(m, target)
                b = marginal(m2, target)
            except Exception:
                continue
            after = gff_relation_eps(a, b, zero_tol=1e-13)
            assert after <= 3.0 * actual + 1e-9

    def test_trace_stability(self):
        # e^-eps Tr(Q^-1) <= Tr(Q'^-1) <= e^eps Tr(Q^-1) for Q' ~eps Q
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = random_g_matrix(rng, int(rng.integers(1, 6)))
            eps = float(rng.uniform(0.005, 0.1))
            m2 = self.perturb(m, rng, eps)
            actual = gff_relation_eps(m, m2)
            t1 = trace_of_inverse(m)
            t2 = trace_of_inverse(m2)
            assert t2 <= math.exp(actual) * t1 * (1 + 1e-9)
            assert t2 >= math.exp(-actual) * t1 * (1 - 1e-9)


class TestSvdRound:
    def rounder(self, eps=0.1, lam_min=0.5, lam_max=8.0, m=10):
        return SvdRounder(lam_lo=lam_min / m, lam_hi=lam_max, eps=eps)

    def random_in_range(self, rng, k, r):
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        eigs = np.exp(rng.uniform(np.log(r.lam_lo), np.log(r.lam_hi), size=k))
        block = (q * eigs) @ q.T
        return SupportedMatrix(tuple(range(1, k + 1)), 0.5 * (block + block.T))

    def test_sandwich_and_idempotence(self):
        rng = np.random.default_rng(6)
        r = self.rounder(eps=0.1)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            p = self.random_in_range(rng, k, r)
            out = r.round(p)
            assert psd_sandwich_check(out, p, r.eps)
            again = r.round(out)
            scale = np.abs(out.block).max()
            assert np.abs(again.block - out.block).max() <= 1e-9 * scale

    def test_diagonal_grid_fixed_point(self):
        r = self.rounder(eps=0.1)
        d = np.diag([r.lam_lo * math.exp(2 * 0.05), r.lam_lo * math.exp(9 * 0.05)])
        p = SupportedMatrix((1, 2), d)
        out = r.round(p)
        assert np.array_equal(out.block, p.block)

    def test_scalar(self):
        r = self.rounder(eps=0.2)
        v = 0.9
        out = r.round(SupportedMatrix((2,), np.array([[v]])))
        assert abs(math.log(out.block[0, 0] / v)) <= r.eps / 2 + 1e-12

    def test_out_of_range(self):
        r = self.rounder()
        with pytest.raises(EigenvalueOutOfRange):
            r.round(SupportedMatrix((1,), np.array([[r.lam_hi * 5.0]])))

    def test_rank_deficient(self):
        r = self.rounder()
        with pytest.raises(RankDeficient):
            r.round(SupportedMatrix((1, 2), np.array([[1.0, 1.0], [1.0, 1.0]])))

    def test_canonical_ray_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            z = rng.normal(size=k)
            z /= np.linalg.norm(z)
            pitch = 10.0 ** -int(rng.integers(1, 6))
            ray = canonical_rays(z[:, None], pitch)[:, 0]
            again = canonical_rays(ray[:, None], pitch)[:, 0]
            assert np.allclose(np.abs(again), np.abs(ray), atol=1e-14)
            assert abs(np.linalg.norm(ray) - 1.0) < 1e-12
            # stays within a bounded angle of the input
            assert abs(float(ray @ z)) >= 1.0 - 2 * k * pitch ** 2 - pitch


def test_is_gff_class():
    assert is_gff_class(np.array([[2.0, -1.0], [-1.0, 1.5]]))
    assert not is_gff_class(np.array([[2.0, 1.0], [1.0, 2.0]]))       # positive off-diag
    assert not is_gff_class(np.array([[0.5, -1.0], [-1.0, 2.0]]))    # not dominant
    assert is_gff_class(np.array([[-2.2e-16]]), abs_tol=1e-12)       # noise-level zero


def test_gff_round_matches_element_loop():
    # round() snaps Python floats and sums the rounded rows in one reduction;
    # the bits must be those of the entry-by-entry loop (tests/oracles.py)
    rng = np.random.default_rng(31)
    r = GffRounder(c_l=1e-3, c_h=1e3, eps=0.05, range_factor=1.01)
    for _ in range(3000):
        m = random_g_matrix(rng, int(rng.integers(1, 7)), lo=0.002, hi=500.0)
        out, ref = r.round(m), gff_round_reference(r, m)
        assert out.support == ref.support and out.block.tobytes() == ref.block.tobytes()


def test_vectorised_rays_match_canonical_ray():
    rng = np.random.default_rng(32)
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        x = rng.normal(size=(k, k))
        _, u = np.linalg.eigh(x + x.T)
        pitch = float(10.0 ** rng.uniform(-6.0, -0.5))
        one_by_one = np.column_stack([canonical_ray_reference(u[:, i], pitch)
                                      for i in range(k)])
        assert canonical_rays(u, pitch).tobytes() == one_by_one.tobytes()
        one = canonical_rays(u[:, :1], pitch)[:, 0]
        assert one.tobytes() == one_by_one[:, 0].tobytes()


def test_range_errors_print_plain_floats():
    # the DP hands the rounders numpy scalars; messages show the plain float
    g = GffRounder(c_l=0.01, c_h=100.0, eps=0.1)
    with pytest.raises(OutOfGridRange) as info:
        g.snap(np.float64(1.6930901125533637e-3))
    assert str(info.value) == ("value 0.0016930901125533637 outside [9.512294e-03, "
                               "1.051271e+02] (grid [1.000000e-02, 1.000000e+02], "
                               "eps=1.000e-01)")
    s = SvdRounder(lam_lo=0.05, lam_hi=8.0, eps=0.1)
    with pytest.raises(EigenvalueOutOfRange) as info:
        s.snap_eig(np.float64(12.5))
    assert str(info.value) == "eigenvalue 12.5 outside [5.000000e-02, 8.000000e+00]"
