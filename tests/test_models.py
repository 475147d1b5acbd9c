import sys
from fractions import Fraction

import numpy as np
import pytest

from gmrf_select.decomposition import balance_for_tree
from gmrf_select.dp import dp_select, extract_solution, run_dp
from gmrf_select.errors import (
    DisconnectedGraph,
    IndependentPairPresent,
    InfeasibleParameters,
    InvalidMatrix,
    InvariantViolation,
    NotATree,
    SingularMatrix,
)
from gmrf_select.exact import exact_budget, exact_cover
from gmrf_select.greedy import greedy_budget, greedy_cover
from gmrf_select.linalg import obs, trace_of_inverse
from gmrf_select.models import (
    BUDGET_FACTOR,
    GffModel,
    GmrfModel,
    Guarantee,
    conditional_variance,
    cover_factor,
    effective_resistance,
    err,
    err_batch,
    laplacian,
    make_report,
    predictor_weights,
    random_gff,
    random_gmrf,
    tree_gmrf_to_gff,
)

from conftest import (
    COUNTEREXAMPLE_SIGMA,
    k5_gff,
    outcome,
    random_tree_gmrf,
    unit_cycle,
    unit_path,
)
from oracles import (
    NotUnitRegular,
    electrical_flow,
    err_exact,
    flow_energy,
    random_gff_reference,
    regular_tightness,
    supported,
    tree_err_exact,
)


class TestLaplacian:
    def test_single_edge(self):
        g = GffModel(2, [(1, 2, 2.0)])
        assert np.allclose(laplacian(g), [[0.5, -0.5], [-0.5, 0.5]])

    def test_unit_path(self):
        lap = laplacian(unit_path(3))
        assert np.allclose(np.diag(lap), [1.0, 2.0, 1.0])
        assert lap[0, 1] == -1.0 and lap[1, 2] == -1.0 and lap[0, 2] == 0.0

    def test_k5(self):
        lap = laplacian(k5_gff())
        assert np.allclose(np.diag(lap), 1.6)
        off = lap - np.diag(np.diag(lap))
        assert np.allclose(off[off != 0], -0.4)

    def test_rows_sum_to_zero(self):
        g = random_gff(9, density=0.4, seed=3)
        assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            GffModel(4, [(1, 2, 1.0), (3, 4, 1.0)])
        # n - 1 edges, but one closes a cycle: found by the walk
        with pytest.raises(DisconnectedGraph, match=r"^vertices \[4\] unreachable from 1$"):
            GffModel(4, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])


def test_gmrf_precision_must_be_symmetric():
    # every precision goes through the model's one check, files and library callers alike
    with pytest.raises(InvalidMatrix, match="^block is not symmetric$"):
        GmrfModel(np.array([[2.0, 1.0], [0.0, 2.0]]))


# (matrix, message, row at fault) of each outside matrix a GMRF refuses
BAD_MATRICES = {
    "shape": (np.ones((2, 3)), r"^block shape \(2, 3\) is not n x n with n >= 1$", None),
    "empty": (np.zeros((0, 0)), r"^block shape \(0, 0\) is not n x n", None),
    "scalar": (np.float64(3.0), r"^block shape \(\) is not n x n", None),
    "inf": (np.array([[1.0, np.inf], [np.inf, 1.0]]), "^block has non-finite entries$", 0),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^block has non-finite entries$", 0),
    # twice the entry overflows, so it could not be averaged with its mirror
    "too-large": (np.array([[1.0, 0.0], [0.0, -1e308]]),
                  r"^block has entries above 8\.98847e\+307 in magnitude$", 1),
    "asymmetric": (np.array([[1.0, 0.5], [0.2, 1.0]]), "^block is not symmetric$", 1),
}


class TestMatrixCheck:
    @pytest.mark.parametrize("build", [GmrfModel, GmrfModel.from_covariance],
                             ids=["precision", "covariance"])
    @pytest.mark.parametrize("case", sorted(BAD_MATRICES))
    def test_rejects(self, build, case):
        # a covariance is checked before it is inverted
        matrix, message, row = BAD_MATRICES[case]
        with pytest.raises(InvalidMatrix, match=message) as info:
            build(matrix)
        assert info.value.row == row

    def test_accepts_valid_input(self):
        m = GmrfModel([[2.0, -1.0], [-1.0, 2.0]])
        assert m.n == 2 and m.precision_matrix.shape == (2, 2)
        assert m.precision_matrix[1, 0] == -1.0
        # a matrix symmetric to round-off is stored as the mean of it and its mirror
        block = np.array([[2.0, -1.0], [-1.0 - 2.0 ** -51, 2.0]])
        stored = GmrfModel(block).precision_matrix
        assert stored is not block and not stored.flags.writeable
        assert stored.tobytes() == (0.5 * (block + block.T)).tobytes()
        assert stored[0, 1] == stored[1, 0] != -1.0


class TestErr:
    def test_counterexample_values(self, counterexample_model):
        m = counterexample_model
        assert abs(err(m, {1}) - 0.1887) < 2e-4
        assert abs(err(m, {1, 2}) - 0.1162) < 2e-4
        assert abs(err(m, {1, 3}) - 0.1009) < 2e-4
        assert abs(err(m, {1, 2, 3}) - 0.0263) < 2e-4

    def test_full_set_is_zero(self, counterexample_model):
        assert err(counterexample_model, {1, 2, 3, 4}) == 0.0
        assert err(unit_cycle(4), {1, 2, 3, 4}) == 0.0

    def test_c4_independent_complement(self):
        assert abs(err(unit_cycle(4), {1, 3}) - 0.25) < 1e-12

    def test_pin_auto_inserted(self):
        g = unit_path(4)
        assert err(g, ()) == err(g, {1})
        assert err(g, {3}) == err(g, {1, 3})


class TestConditionalVariance:
    def test_k5_unconditional(self):
        g = k5_gff()
        for i in range(2, 6):
            assert abs(conditional_variance(g, i, {1}) - 1.0) < 1e-9

    def test_observed_is_zero(self):
        assert conditional_variance(unit_path(3), 2, {1, 2}) == 0.0

    def test_series_resistance(self):
        assert abs(conditional_variance(unit_path(3), 3, {1}) - 2.0) < 1e-12

    def test_gmrf_route(self, counterexample_model):
        m = counterexample_model
        # oracle: Schur on the covariance directly
        sig = COUNTEREXAMPLE_SIGMA
        oracle = sig[3, 3] - sig[3, 0] ** 2 / sig[0, 0]
        assert abs(conditional_variance(m, 4, {1}) - oracle) < 1e-12


class TestPredictorWeights:
    def test_zero_when_uncorrelated(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        m = GmrfModel.from_covariance(sigma)
        order, w = predictor_weights(m, 3, {1, 2})
        assert order == (1, 2)
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_path3_harmonic(self):
        order, w = predictor_weights(unit_path(3), 2, {1, 3})
        assert order == (1, 3)
        assert np.allclose(w, [0.5, 0.5])

    def test_counterexample_single(self, counterexample_model):
        order, w = predictor_weights(counterexample_model, 4, {1})
        assert order == (1,)
        assert abs(w[0] - (-0.0527 / 0.4435)) < 1e-9

    def test_residual_equals_conditional_variance(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            if rng.random() < 0.5:
                model = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
                sigma = model.covariance()
            else:
                model = random_gmrf(n, 2, seed=int(rng.integers(1 << 30)))
                sigma = model.covariance()
            pin = {model.pin} if isinstance(model, GffModel) else set()
            s = sorted(pin | {v for v in model.vertices if rng.random() < 0.4})
            targets = [v for v in model.vertices if v not in s]
            if not s or not targets:
                continue
            i = int(rng.choice(targets))
            order, w = predictor_weights(model, i, s)
            idx = [v - 1 for v in order]
            resid = (sigma[i - 1, i - 1] - 2.0 * w @ sigma[idx, i - 1]
                     + w @ sigma[np.ix_(idx, idx)] @ w)
            assert abs(resid - conditional_variance(model, i, s)) < 1e-10

    def test_observed_target_raises(self):
        with pytest.raises(InvariantViolation, match="^target 2 is observed$"):
            predictor_weights(unit_path(3), 2, {2})


class TestEffectiveResistance:
    def test_single_edge(self):
        assert abs(effective_resistance(GffModel(2, [(1, 2, 2.0)]), 2, {1}) - 2.0) < 1e-12

    def test_triangle_parallel(self):
        g = unit_cycle(3)
        assert abs(effective_resistance(g, 2, {1}) - 2.0 / 3.0) < 1e-12

    def test_path_nearest_source(self):
        assert abs(effective_resistance(unit_path(3), 3, {1, 2}) - 1.0) < 1e-12

    def test_empty_s_raises(self):
        with pytest.raises(InvariantViolation, match="^S must be nonempty$"):
            effective_resistance(unit_path(3), 2, set())

    def test_vertex_in_s_raises(self):
        with pytest.raises(InvariantViolation, match="^vertex 2 is in S$"):
            effective_resistance(unit_path(3), 2, {1, 2})


# each per-vertex query refuses a target or an S vertex outside 1..n by name;
# index 0 would otherwise wrap to vertex n's row
VERTEX_RANGE_CASES = [
    (conditional_variance, 0, {1}, 0),
    (conditional_variance, 9, {1}, 9),
    (conditional_variance, 2, {9}, 9),
    (predictor_weights, 0, {1}, 0),
    (predictor_weights, 9, {1}, 9),
    (predictor_weights, 2, {0}, 0),
    (effective_resistance, 2, {9}, 9),
    (effective_resistance, 9, {1}, 9),
    (effective_resistance, 0, {1}, 0),
]


@pytest.mark.parametrize("query, i, s, bad", VERTEX_RANGE_CASES)
def test_vertex_queries_check_their_range(query, i, s, bad):
    with pytest.raises(InvariantViolation, match=rf"^vertex {bad} outside 1\.\.3$"):
        query(unit_path(3), i, s)


class TestThomson:
    def test_electrical_flow_energy_equals_resistance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            g = random_gff(n, density=0.5, seed=int(rng.integers(1 << 30)))
            s = {1} | {v for v in range(2, n + 1) if rng.random() < 0.3}
            targets = [v for v in g.vertices if v not in s]
            if not targets:
                continue
            t = int(rng.choice(targets))
            flow = electrical_flow(g, t, s)

            def influx(v):
                total = 0.0
                for a, b, _ in g.edges:
                    if b == v:
                        total += flow[(a, b)]
                    elif a == v:
                        total -= flow[(a, b)]
                return total

            # feasibility: unit flow into t, conservation off S u {t}
            assert abs(influx(t) - 1.0) < 1e-9
            for v in g.vertices:
                if v not in s and v != t:
                    assert abs(influx(v)) < 1e-9
            energy = flow_energy(g, flow)
            reff = effective_resistance(g, t, s)
            assert abs(energy - reff) < 1e-8

    def test_flow_is_minimal_among_perturbations(self):
        g = unit_cycle(5)
        s, t = {1}, 3
        flow = dict(electrical_flow(g, t, s))
        base = flow_energy(g, flow)
        # add a circulation around the cycle: stays a unit flow, energy can't drop
        rng = np.random.default_rng(5)
        cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
        for _ in range(20):
            c = float(rng.normal() * 0.3)
            pert = dict(flow)
            for u, v in cycle:
                pert[(u, v)] = pert[(u, v)] + c
                pert[(v, u)] = -pert[(u, v)]
            assert flow_energy(g, pert) >= base - 1e-12


class TestRegularTightness:
    def test_c4_tight(self):
        bound, tight = regular_tightness(unit_cycle(4), {1, 3})
        assert abs(bound - 0.25) < 1e-12 and tight

    def test_c4_not_tight(self):
        # oracle: err({1,2}) from the explicit 2x2 complement block
        g = unit_cycle(4)
        block = obs(supported(g), {1, 2})
        oracle = trace_of_inverse(block) / 4
        assert abs(oracle - 1.0 / 3.0) < 1e-12
        bound, tight = regular_tightness(g, {1, 2})
        assert abs(bound - 0.25) < 1e-12 and not tight

    def test_full_set(self):
        assert regular_tightness(unit_cycle(6), set(range(1, 7))) == (0.0, True)

    def test_non_regular_rejected(self):
        with pytest.raises(NotUnitRegular):
            regular_tightness(unit_path(3), {1})
        weighted = GffModel(3, [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0)])
        with pytest.raises(NotUnitRegular):
            regular_tightness(weighted, {1})


class TestMonotonicityAndSupermodularity:
    def test_monotone_nested(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(3, 10))
            if rng.random() < 0.5:
                model = random_gff(n, density=0.3, seed=int(rng.integers(1 << 30)))
            else:
                model = random_gmrf(n, 2, seed=int(rng.integers(1 << 30)))
            small = {v for v in model.vertices if rng.random() < 0.3}
            big = small | {v for v in model.vertices if rng.random() < 0.3}
            assert err(model, small) >= err(model, big) - 1e-12

    def test_gff_supermodular(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 300:
            n = int(rng.integers(3, 10))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            free = [v for v in g.vertices if v != g.pin]
            if len(free) < 2:
                continue
            x, y = (int(v) for v in rng.choice(free, size=2, replace=False))
            a = {g.pin} | {v for v in free if v not in (x, y) and rng.random() < 0.3}
            lhs = err(g, a) - err(g, a | {x})
            rhs = err(g, a | {y}) - err(g, a | {x, y})
            assert lhs >= rhs - 1e-9
            checked += 1

    def test_counterexample_violates_supermodularity(self, counterexample_model):
        m = counterexample_model
        gap1 = err(m, {1}) - err(m, {1, 2})
        gap2 = err(m, {1, 3}) - err(m, {1, 2, 3})
        assert abs(gap1 - 0.0725) < 2e-4
        assert abs(gap2 - 0.0746) < 2e-4
        assert gap1 < gap2


class TestThreePathAgreement:
    def test_paths_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            s = {g.pin} | {v for v in g.vertices if rng.random() < 0.4}
            e1 = err(g, s)
            rest = [v for v in g.vertices if v not in s]
            e2 = sum(conditional_variance(g, i, s) for i in rest) / n
            e3 = sum(effective_resistance(g, i, s) for i in rest) / n
            scale = max(e1, 1e-300)
            assert abs(e1 - e2) <= 1e-9 * scale
            assert abs(e1 - e3) <= 1e-9 * scale

    def test_paths_agree_with_any_pin(self):
        # the covariance route indexes the full covariance by vertex; a pin
        # other than 1 shifts every reduced index, so draw the pin too
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            g = GffModel(n, g.edges, pin=int(rng.integers(1, n + 1)))
            s = {v for v in g.vertices if rng.random() < 0.4}
            rest = [v for v in g.vertices if v not in s | {g.pin}]
            e1 = err(g, s)
            e2 = sum(conditional_variance(g, i, s) for i in rest) / n
            e3 = sum(effective_resistance(g, i, s | {g.pin}) for i in rest) / n
            scale = max(e1, 1e-300)
            assert abs(e1 - e2) <= 1e-9 * scale
            assert abs(e1 - e3) <= 1e-9 * scale


def test_err_paths_match_exact_arithmetic():
    """err, err_batch, exact's score and the three-path sums against
    ``err_exact`` on 50 GFFs and 50 width-2 GMRFs (n 3-12). The largest
    relative gap measured was 6.6e-16 at this seed and 9.8e-16 over seeds
    1-3 and 16-18 (err, seed 18)."""
    def close(got, want):
        return abs(Fraction(got) - want) <= 4e-15 * want

    rng = np.random.default_rng(16)
    for t in range(100):
        n, seed = int(rng.integers(3, 13)), int(rng.integers(1 << 30))
        model = (random_gff(n, density=float(rng.uniform(0.1, 0.5)), seed=seed) if t % 2 == 0
                 else random_gmrf(n, tree_width_hint=2, seed=seed))
        sets = [tuple(v for v in model.vertices if rng.random() < 0.4) for _ in range(2)]
        exact = [err_exact(model, s) for s in sets]
        assert all(map(close, [err(model, s) for s in sets], exact)), (t, sets)
        assert all(map(close, err_batch(model, sets), exact)), (t, sets)
        report = exact_budget(model, int(rng.integers(1, min(3, n - 1) + 1)))
        assert close(report.err_value, err_exact(model, report.selected)), (t, report.selected)
        s = frozenset(sets[0]) | model.pinned
        rest = [v for v in model.vertices if v not in s]
        assert close(sum(conditional_variance(model, i, s) for i in rest) / n, exact[0]), t
        if isinstance(model, GffModel):
            assert close(sum(effective_resistance(model, i, s) for i in rest) / n, exact[0]), t


def test_tree_err_matches_exact_path_resistances():
    """err with only the pin observed on 40 GFF trees (n 3-300) against the
    mean path resistance from the pin in exact arithmetic. The largest
    relative gap measured was 1.1e-14 here and 1.2e-14 over seeds 0-9."""
    for n in (3, 6, 12, 25, 50, 100, 200, 300):
        for seed in range(5):
            g = random_gff(n, density=0.0, seed=seed)
            want = tree_err_exact(g)
            assert abs(Fraction(err(g, ())) - want) <= 1e-13 * want, (n, seed)


class TestTreeGmrfToGff:
    def test_dd_m_matrix_keeps_unit_weights(self):
        lam = np.array([[2.0, -1.0, 0.0],
                        [-1.0, 3.0, -1.0],
                        [0.0, -1.0, 2.0]])
        w, gff, tail = tree_gmrf_to_gff(GmrfModel(lam))
        assert np.allclose(np.abs(w), 1.0)
        assert np.allclose(w, w[0] * np.sign(w[0]) * np.abs(w))  # constant sign
        # one auxiliary vertex per strictly dominant row (all three here)
        assert len(tail) == 3

    def test_two_node_chain_flips_sign(self):
        m = GmrfModel(np.array([[2.0, 1.0], [1.0, 2.0]]))
        w, gff, tail = tree_gmrf_to_gff(m)
        assert np.allclose(np.abs(w), 1.0)
        assert w[0] * w[1] < 0
        assert len(tail) == 2
        tree_r = [r for u, v, r in gff.edges if u <= 2 and v <= 2]
        assert len(tree_r) == 1 and abs(tree_r[0] - 1.0) < 1e-12

    def test_mixed_signs_alternate(self):
        lam = np.array([[2.0, 0.8, 0.0],
                        [0.8, 2.0, -0.7],
                        [0.0, -0.7, 2.0]])
        w, gff, tail = tree_gmrf_to_gff(GmrfModel(lam))
        assert w[0] * w[1] < 0      # positive coupling needs a flip
        assert w[1] * w[2] > 0      # negative coupling keeps the sign

    def test_covariance_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = random_tree_gmrf(n, rng)
            w, gff, tail = tree_gmrf_to_gff(m)
            lap = laplacian(gff)
            cond_cov = np.linalg.inv(lap[:n, :n])
            d = np.diag(w)
            assert np.allclose(d @ m.covariance() @ d, cond_cov, atol=1e-8)
            # scaled precision is dd with non-positive off-diagonals
            lam_s = np.diag(1 / w) @ m.precision_matrix @ np.diag(1 / w)
            off = lam_s - np.diag(np.diag(lam_s))
            assert off.max() <= 1e-9
            assert lam_s.sum(axis=1).min() >= -1e-9
            assert len(tail) <= n

    def test_non_dd_tree_needs_magnitudes(self):
        lam = np.array([[1.0, -0.7, 0.0],
                        [-0.7, 1.0, -0.7],
                        [0.0, -0.7, 1.0]])
        m = GmrfModel(lam)
        w, gff, tail = tree_gmrf_to_gff(m)
        lap = laplacian(gff)
        d = np.diag(w)
        assert np.allclose(d @ m.covariance() @ d,
                           np.linalg.inv(lap[:3, :3]), atol=1e-8)
        assert not np.allclose(np.abs(w), 1.0)

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            tree_gmrf_to_gff(GmrfModel.from_covariance(COUNTEREXAMPLE_SIGMA))

    def test_cycle_with_tree_edge_count_rejected(self):
        # n - 1 = 3 edges, but they close the triangle 1-2-3 and leave 4 alone
        lam = np.array([[3.0, -1.0, -1.0, 0.0],
                        [-1.0, 3.0, -1.0, 0.0],
                        [-1.0, -1.0, 3.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(NotATree, match="graph is disconnected"):
            tree_gmrf_to_gff(GmrfModel(lam))

    def test_independent_pair_rejected(self):
        sigma = np.diag([1.0, 2.0])
        with pytest.raises((IndependentPairPresent, NotATree)):
            tree_gmrf_to_gff(GmrfModel.from_covariance(sigma))

    def test_weakly_coupled_pair_named(self):
        # a connected tree whose path couplings of -1e-5 leave Cov(X1, X4)
        # near 1e-15: the first pair under the tolerance, in row order
        lam = np.eye(4)
        for i in range(3):
            lam[i, i + 1] = lam[i + 1, i] = -1e-5
        with pytest.raises(IndependentPairPresent, match="^variables 1 and 4 are independent$"):
            tree_gmrf_to_gff(GmrfModel(lam))


DBL_MAX = sys.float_info.max


def gff_argument_sets(count=3000):
    """Seeded ``random_gff`` arguments (n, density, resistance_range, seed):
    n 2-40, density 0, 1 or uniform, and ranges from (5e-324, 1e-300) to
    (1e300, DBL_MAX), fixed or log-uniform between those ends."""
    rng = np.random.default_rng(36)
    ranges = [(5e-324, 1e-300), (1e300, DBL_MAX), (5e-324, DBL_MAX), (1e-13, 1.0), (0.5, 2.0),
              (1.0, 1.0)]
    for i in range(count):
        n = int(rng.integers(2, 41))
        density = (0.0, 1.0, float(rng.random()))[i % 3]
        if i % 2:
            resistance_range = ranges[i // 2 % len(ranges)]
        else:   # 10^-323.3 is 5e-324, 10^308.25 just below DBL_MAX
            resistance_range = tuple(10.0 ** np.sort(rng.uniform(-323.3, 308.25, 2)))
        yield n, density, tuple(map(float, resistance_range)), int(rng.integers(0, 1 << 31))


class TestGenerators:
    def test_draw_is_the_scalar_loop(self):
        # every coin and resistance read from blocks of the stream: the same
        # edges in the same order, the same precision bytes, or the same refusal
        for args in gff_argument_sets():
            assert outcome(random_gff, *args) == outcome(random_gff_reference, *args), args

    def test_determinism(self):
        a = random_gff(10, density=0.3, seed=7)
        b = random_gff(10, density=0.3, seed=7)
        assert a.edges == b.edges
        c = random_gmrf(8, 2, seed=7)
        d = random_gmrf(8, 2, seed=7)
        assert np.array_equal(c.precision_matrix, d.precision_matrix)

    def test_two_vertices(self):
        g = random_gff(2, density=0.0, seed=1)
        assert len(g.edges) == 1

    def test_resistances_in_range(self):
        g = random_gff(10, density=0.3, resistance_range=(0.5, 2.0), seed=7)
        assert all(0.5 <= r <= 2.0 for _, _, r in g.edges)
        # connectivity is enforced by the constructor; reaching here is the assert

    def test_condition_cap(self):
        m = random_gmrf(12, 3, condition_cap=50.0, seed=3)
        eig = np.linalg.eigvalsh(m.precision_matrix)
        assert eig[-1] / eig[0] <= 50.0 * (1 + 1e-9)

    def test_condition_cap_shift(self):
        # at cap 10 these instances need the diagonal shift
        for seed in range(4):
            kappa = np.linalg.cond(random_gmrf(30, 3, seed=seed).precision_matrix)
            eig = np.linalg.eigvalsh(random_gmrf(30, 3, condition_cap=10.0, seed=seed)
                                     .precision_matrix)
            assert kappa > 10.0 and eig[-1] / eig[0] <= 10.0 * (1 + 1e-9)

    def test_infeasible(self):
        with pytest.raises(InfeasibleParameters):
            random_gff(1, seed=0)
        with pytest.raises(InfeasibleParameters):
            random_gff(4, resistance_range=(2.0, 1.0), seed=0)
        with pytest.raises(InfeasibleParameters):
            random_gmrf(5, 2, condition_cap=0.5, seed=0)
        with pytest.raises(InfeasibleParameters, match=r"^n must be >= 2, got 1$"):
            random_gmrf(1)
        for density in (float("nan"), -0.1, 1.5):
            with pytest.raises(InfeasibleParameters, match="density"):
                random_gff(6, density=density, seed=0)
        with pytest.raises(InfeasibleParameters, match="condition cap"):
            random_gmrf(6, 2, condition_cap=float("nan"), seed=0)   # nan <= 1 is false
        for width in (0, -2):
            with pytest.raises(InfeasibleParameters, match="width"):
                random_gmrf(6, width, seed=0)


def test_gmrf_graph_matches_pattern():
    m = random_gmrf(8, 2, seed=11)
    lam = m.precision_matrix
    edges = set(m.graph_edges())
    for i in range(1, 9):
        for j in range(i + 1, 9):
            assert ((i, j) in edges) == (abs(lam[i - 1, j - 1]) > 1e-14)


def test_invalid_gff_inputs():
    with pytest.raises(InvariantViolation):
        GffModel(3, [(1, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(InvariantViolation):
        GffModel(3, [(1, 2, -1.0), (2, 3, 1.0)])
    # each conductance 1e308 is finite, vertex 2's total is not; refused with
    # no numpy overflow warning (pytest turns warnings into errors)
    with pytest.raises(InvariantViolation, match="total conductance at vertex 2 overflows"):
        GffModel(3, [(1, 2, 1e-308), (2, 3, 1e-308)])


def test_singular_precision_block_gives_singular_matrix():
    # 2^900 + 2^-1000 rounds to 2^900, so the block of vertices 2 and 3 is
    # exactly singular; LAPACK's inverse fails and the covariance says why
    g = GffModel(3, [(1, 2, 2.0 ** 1000), (2, 3, 2.0 ** -900)])
    with pytest.raises(SingularMatrix) as info:
        conditional_variance(g, 2, {1})
    assert str(info.value) == "covariance is singular (inverting the precision: Singular matrix)"


def test_report_selection_holds_the_pin():
    """make_report adds the model's pinned vertices to the selection it
    reports, so no solver or command adds them itself."""
    g = GffModel(4, [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5)], pin=3)
    report = make_report(g, (1,), "eval", None)
    assert report.selected == (1, 3)
    assert report.err_value == err(g, (1, 3))


GUARANTEE_MODELS = {"gff": lambda: random_gff(6, density=0.0, seed=1),
                    "gmrf": lambda: random_gmrf(6, 1, seed=0)}   # both trees
# (solver, model kind) -> (factor of the model, source); every other row promises nothing
GUARANTEE_TABLE = {
    ("greedy-budget", "gff"): (lambda m: BUDGET_FACTOR, "supermodular greedy, budget"),
    ("greedy-cover", "gff"): (cover_factor, "supermodular cover, log-ratio bound"),
    ("dp", "gff"): (lambda m: 1.0 + 0.2, "tree DP, target factor"),
    ("dp", "gmrf"): (lambda m: 1.0 + 0.2, "tree DP, target factor"),
}


@pytest.mark.parametrize("kind", sorted(GUARANTEE_MODELS))
@pytest.mark.parametrize("solver", ["eval", "exact-budget", "exact-cover", "greedy-budget",
                                    "greedy-cover", "dp", "extract-solution"])
def test_guarantee_table(solver, kind):
    """Every row of what a report promises, as make_report decides it."""
    model = GUARANTEE_MODELS[kind]()
    alpha = 0.5 * err(model, ())
    td = balance_for_tree(model.n, model.graph_edges())
    run = {
        "eval": lambda: make_report(model, model.pinned, "eval", None),
        "exact-budget": lambda: exact_budget(model, 2),
        "exact-cover": lambda: exact_cover(model, alpha),
        "greedy-budget": lambda: greedy_budget(model, 2),
        "greedy-cover": lambda: greedy_cover(model, alpha),
        "dp": lambda: dp_select(model, td, 2, 0.2),
        "extract-solution": lambda: extract_solution(run_dp(model, td, 2, 0.05)),
    }[solver]
    report = run()
    row = GUARANTEE_TABLE.get((solver, kind))
    assert report.guarantee == (row and Guarantee(row[0](model), row[1]))
