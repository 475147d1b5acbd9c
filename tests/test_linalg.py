import math

import numpy as np
import pytest

from gmrf_select.errors import IndexOutOfSupport, SingularMatrix
from gmrf_select.linalg import (
    SupportedMatrix,
    add,
    diag_of_inverse,
    marginal,
    obs,
    trace_of_inverse,
)

from conftest import one_by_one_entries, outcome, random_pd_supported
from oracles import (
    add_reference,
    diag_of_inverse_reference,
    eig_extremes,
    marginal_reference,
    obs_reference,
    psd_sandwich_check,
)


def path3_laplacian():
    return SupportedMatrix((1, 2, 3), np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0]]))


class TestConstruction:
    def test_constructor_only_freezes(self):
        # the caller's block is stored as given: not copied, not symmetrized
        block = np.array([[1.0, 2.0], [4.0, 5.0]])
        m = SupportedMatrix((1, 3), block)
        assert m.block is block and not block.flags.writeable
        assert block.tolist() == [[1.0, 2.0], [4.0, 5.0]]

    def test_equality_is_identity_and_matrices_hash(self):
        a, b = path3_laplacian(), path3_laplacian()
        assert a == a and a != b and not (a == b)
        assert a in [b, a] and b not in [a]
        assert {a: 1, b: 2}[b] == 2 and len({a, b, a}) == 2
        assert hash(a) == hash(a)


class TestObs:
    def test_empty_observation_is_identity(self):
        m = path3_laplacian()
        out = obs(m, ())
        assert out.support == m.support
        assert np.array_equal(out.block, m.block)

    def test_full_observation_empties_support(self):
        m = path3_laplacian()
        out = obs(m, {1, 2, 3})
        assert out.support == ()
        assert out.block.shape == (0, 0)

    def test_path3_remove_middle(self):
        # delete row/column 2 of the explicit Laplacian by hand
        out = obs(path3_laplacian(), {2})
        assert out.support == (1, 3)
        assert np.allclose(out.block, np.diag([1.0, 1.0]))

    def test_outside_support_raises(self):
        with pytest.raises(IndexOutOfSupport):
            obs(path3_laplacian(), {4})


class TestMarginal:
    def test_full_target_is_identity(self):
        m = path3_laplacian()
        out = marginal(m, {1, 2, 3})
        assert np.array_equal(out.block, m.block)

    def test_schur_2x2(self):
        m = SupportedMatrix((1, 2), np.array([[2.0, -1.0], [-1.0, 2.0]]))
        out = marginal(m, {1})
        # oracle: invert, take the complement submatrix, invert back
        inv = np.linalg.inv(m.block)
        oracle = 1.0 / inv[0, 0]
        assert out.support == (1,)
        assert abs(out.block[0, 0] - 1.5) < 1e-12
        assert abs(out.block[0, 0] - oracle) < 1e-12

    def test_diagonal_matrix_restricts(self):
        m = SupportedMatrix((1, 2, 4), np.diag([2.0, 3.0, 5.0]))
        out = marginal(m, {2, 4})
        assert out.support == (2, 4)
        assert np.allclose(out.block, np.diag([3.0, 5.0]))

    def test_singular_complement_raises(self):
        m = SupportedMatrix((1, 2), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrix):
            marginal(m, {1})

    def test_target_outside_support_raises(self):
        with pytest.raises(IndexOutOfSupport, match=r"^marginal target \[4\] outside support$"):
            marginal(path3_laplacian(), {1, 4})

    def test_commutes_with_restriction(self):
        # marginal(obs(M, O), D \ O) equals obs-then-eliminate done by dense algebra
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = random_pd_supported(rng, range(1, 7))
            o = set(int(v) for v in rng.choice(np.arange(1, 7), size=2, replace=False))
            delta = {v for v in range(1, 7) if rng.random() < 0.5} | {1, 2}
            keep = sorted((delta - o))
            left = marginal(obs(m, o), keep)
            dense = m.block
            idx_keep = [v - 1 for v in keep]
            idx_elim = [v - 1 for v in range(1, 7) if v not in o and v not in keep]
            a = dense[np.ix_(idx_keep, idx_keep)]
            b = dense[np.ix_(idx_elim, idx_keep)]
            c = dense[np.ix_(idx_elim, idx_elim)]
            oracle = a - b.T @ np.linalg.solve(c, b)
            assert np.allclose(left.block, oracle, atol=1e-10)


class TestTraceOfInverse:
    def test_diagonal(self):
        m = SupportedMatrix((1, 2), np.diag([2.0, 4.0]))
        assert abs(trace_of_inverse(m) - 0.75) < 1e-14

    def test_empty_support(self):
        assert trace_of_inverse(SupportedMatrix.zeros()) == 0.0

    def test_hand_inverse(self):
        m = SupportedMatrix((1, 2), np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert abs(trace_of_inverse(m) - 4.0 / 3.0) < 1e-12

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            m = random_pd_supported(rng, range(1, k + 1))
            oracle = float(np.trace(np.linalg.inv(m.block)))
            assert abs(trace_of_inverse(m) - oracle) <= 1e-9 * abs(oracle)

    def test_singular_raises(self):
        m = SupportedMatrix((1, 2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            trace_of_inverse(m)

    def test_diag_of_inverse_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            m = random_pd_supported(rng, range(1, k + 1))
            subset = [v for v in range(1, k + 1) if rng.random() < 0.6]
            inv = np.linalg.inv(m.block)
            oracle = sum(inv[v - 1, v - 1] for v in subset)
            assert abs(diag_of_inverse(m, subset) - oracle) <= 1e-9 * max(abs(oracle), 1)


    def test_diag_of_inverse_outside_support_raises(self):
        with pytest.raises(IndexOutOfSupport, match=r"^index 4 not in support \(1, 2, 3\)$"):
            diag_of_inverse(path3_laplacian(), (1, 4))


class TestEigExtremes:
    def test_identity(self):
        m = SupportedMatrix((1, 2, 3), np.eye(3))
        assert eig_extremes(m) == (1.0, 1.0)

    def test_diagonal(self):
        m = SupportedMatrix((1, 2), np.diag([0.5, 3.0]))
        lo, hi = eig_extremes(m)
        assert abs(lo - 0.5) < 1e-12 and abs(hi - 3.0) < 1e-12

    def test_k5_laplacian_restricted(self):
        # 2I - 0.4J on 4 nodes: eigenvalues {0.4, 2, 2, 2}
        block = 2.0 * np.eye(4) - 0.4 * np.ones((4, 4))
        m = SupportedMatrix((2, 3, 4, 5), block)
        lo, hi = eig_extremes(m)
        assert abs(lo - 0.4) < 1e-12 and abs(hi - 2.0) < 1e-12

    def test_zero_matrix_convention(self):
        m = SupportedMatrix((1, 2), np.zeros((2, 2)))
        assert eig_extremes(m) == (0.0, 0.0)

    def test_singular_laplacian_skips_zero(self):
        m = path3_laplacian()
        lo, hi = eig_extremes(m)
        assert lo > 0.9  # eigenvalues are 0, 1, 3
        assert abs(hi - 3.0) < 1e-12


class TestPsdSandwich:
    def test_reflexive(self):
        m = path3_laplacian()
        assert psd_sandwich_check(m, m, 0.0)

    def test_scalar_boundary(self):
        i2 = SupportedMatrix((1, 2), np.eye(2))
        two = SupportedMatrix((1, 2), 2.0 * np.eye(2))
        over = SupportedMatrix((1, 2), 2.001 * np.eye(2))
        assert psd_sandwich_check(two, i2, math.log(2.0))
        assert not psd_sandwich_check(over, i2, math.log(2.0))

    def test_support_mismatch(self):
        a = SupportedMatrix((1, 2), np.eye(2))
        b = SupportedMatrix((1, 3), np.eye(2))
        with pytest.raises(ValueError, match="supports differ"):
            psd_sandwich_check(a, b, 0.1)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b = random_pd_supported(rng, (1, 2, 3))
            a = random_pd_supported(rng, (1, 2, 3))
            hits = [eps for eps in (0.01, 0.1, 0.5, 1.0, 3.0)
                    if psd_sandwich_check(a, b, eps)]
            # true at eps implies true at every larger eps on the grid
            if hits:
                first = hits[0]
                assert all(e in hits for e in (0.01, 0.1, 0.5, 1.0, 3.0) if e >= first)


class TestEigenvaluePreservation:
    def test_obs_and_marginal_do_not_shrink_lambda_min(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.integers(3, 8))
            m = random_pd_supported(rng, range(1, k + 1))
            lo, _ = eig_extremes(m)
            o = set(int(v) for v in rng.choice(np.arange(1, k + 1),
                                               size=int(rng.integers(1, k)),
                                               replace=False))
            lo_obs, _ = eig_extremes(obs(m, o))
            assert lo_obs >= lo - 1e-9
            delta = set(int(v) for v in rng.choice(np.arange(1, k + 1),
                                                   size=int(rng.integers(1, k)),
                                                   replace=False))
            lo_marg, _ = eig_extremes(marginal(m, delta))
            assert lo_marg >= lo - 1e-9


def test_add_unions_support():
    a = SupportedMatrix((1, 2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    b = SupportedMatrix((2, 3), np.array([[2.0, 0.0], [0.0, 2.0]]))
    out = add(a, b)
    assert out.support == (1, 2, 3)
    assert out.block[1, 1] == 3.0
    assert out.block[0, 1] == 0.5
    assert out.block[2, 2] == 2.0


def test_add_of_several_sums_left_to_right():
    a = SupportedMatrix((1, 2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    b = SupportedMatrix((2, 3), np.array([[2.0, 0.0], [0.0, 2.0]]))
    c = SupportedMatrix((3,), np.array([[0.25]]))
    out = add(a, b, c)
    assert out.support == (1, 2, 3)
    assert out.block[1, 1] == 3.0 and out.block[2, 2] == 2.25
    assert add(a).block.tobytes() == a.block.tobytes()


# The kernels compute on cached position maps; each must give the bits of the
# np.ix_ form it replaced (tests/oracles.py), on random supports within 1..n
# and random symmetric blocks of up to 6 x 6.

def random_support(rng, n, k):
    return tuple(sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=k, replace=False)))


def random_symmetric(rng, support):
    k = len(support)
    x = rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-3.0, 3.0)
    return SupportedMatrix(support, x + x.T)


def random_operand(rng, n, rank_deficient=False):
    """A block on a random support of size 0..6: symmetric, positive definite,
    or (``rank_deficient``) a PSD block of lower rank."""
    support = random_support(rng, n, int(rng.integers(0, min(n, 6) + 1)))
    k = len(support)
    if not rank_deficient:
        return random_pd_supported(rng, support)
    x = rng.normal(size=(k, int(rng.integers(0, k + 1))))
    block = x @ x.T
    return SupportedMatrix(support, 0.5 * (block + block.T))


def same(m, ref):
    return m.support == ref.support and m.block.tobytes() == ref.block.tobytes()


class TestKernelBits:
    def test_add_of_three_is_the_nested_sum(self):
        rng = np.random.default_rng(101)
        for _ in range(3000):
            n = int(rng.integers(1, 10))
            a, b, c = (random_symmetric(rng, random_support(rng, n, int(rng.integers(0, min(n, 6) + 1))))
                       for _ in range(3))
            out = add(a, b, c)
            assert same(out, add_reference(add_reference(a, b), c))
            assert same(out, add(add(a, b), c))

    def test_obs_matches_reference(self):
        rng = np.random.default_rng(102)
        for _ in range(3000):
            n = int(rng.integers(1, 10))
            m = random_operand(rng, n)
            observed = {v for v in m.support if rng.random() < 0.4}
            assert same(obs(m, observed), obs_reference(m, observed))

    def test_marginal_matches_reference_and_drops_alike(self):
        rng = np.random.default_rng(103)
        dropped = 0
        for _ in range(3000):
            n = int(rng.integers(1, 10))
            m = random_operand(rng, n, rank_deficient=rng.random() < 0.3)
            delta = frozenset(v for v in m.support if rng.random() < 0.5)
            try:
                ref = marginal_reference(m, delta)
            except SingularMatrix:
                dropped += 1
                with pytest.raises(SingularMatrix):
                    marginal(m, delta)
                continue
            assert same(marginal(m, delta), ref)
        assert dropped > 100

    def test_diag_of_inverse_matches_reference(self):
        rng = np.random.default_rng(104)
        for _ in range(3000):
            n = int(rng.integers(1, 10))
            m = random_operand(rng, n)
            subset = [v for v in m.support if rng.random() < 0.6]
            rng.shuffle(subset)
            assert (diag_of_inverse(m, subset).hex()
                    == diag_of_inverse_reference(m, subset).hex())

    def test_one_by_one_blocks_match_the_general_code(self):
        # marginal reads a 1 x 1 eliminated block's eigenvalue off its entry and
        # diag_of_inverse answers a 1 x 1 block in scalar arithmetic: the same
        # bits as eigvalsh and the Cholesky solve, or the same refusal
        rng = np.random.default_rng(105)
        answered = 0
        for i, a in enumerate(one_by_one_entries(105, 10_000, 1e-3, 1e3)):
            kept = i % 3   # kept indices beside the eliminated one, 0..2
            m = random_pd_supported(rng, range(1, kept + 2))
            block = m.block.copy()
            block[0, 0] = a
            m = SupportedMatrix(m.support, block)
            assert outcome(marginal, m, m.support[1:]) == outcome(marginal_reference, m,
                                                                  m.support[1:]), a
            scalar = SupportedMatrix((4,), np.array([[a]]))
            got = outcome(diag_of_inverse, scalar, (4,))
            assert got == outcome(diag_of_inverse_reference, scalar, (4,)), a
            answered += got[0] is float
        assert answered > 2500
