import math

import numpy as np
import pytest

from gmrf_select.errors import InvariantViolation, NumericFailure
from gmrf_select.greedy import greedy_budget, greedy_cover
from gmrf_select.io import parse_model_text
from gmrf_select.models import (
    BUDGET_FACTOR,
    GffModel,
    cover_factor,
    err,
    random_gff,
    random_gmrf,
)

from conftest import unit_path, wide_gff_text


def naive_greedy(model, b):
    """Reference implementation: fresh argmin each round, lowest-index ties."""
    s = {model.pin} if isinstance(model, GffModel) else set()
    for _ in range(b):
        remaining = [v for v in model.vertices if v not in s]
        if not remaining:
            break
        s.add(min(remaining, key=lambda x: (err(model, s | {x}), x)))
    return tuple(sorted(s))


class TestGreedyBudget:
    def test_zero_budget(self):
        g = unit_path(4)
        rep = greedy_budget(g, 0)
        assert rep.selected == (1,)
        assert abs(rep.err_value - err(g, {1})) < 1e-12

    def test_budget_covers_everything(self):
        g = unit_path(4)
        rep = greedy_budget(g, 3)
        assert rep.selected == (1, 2, 3, 4)
        assert rep.err_value == 0.0
        rep = greedy_budget(g, 99)
        assert rep.selected == (1, 2, 3, 4)

    def test_matches_naive_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            g = random_gff(n, density=float(rng.uniform(0, 0.5)),
                           seed=int(rng.integers(1 << 30)))
            b = int(rng.integers(0, 5))
            assert greedy_budget(g, b).selected == naive_greedy(g, b)
        # GMRFs, and unit paths, whose exact ties must still go to the lowest index
        for _ in range(60):
            n = int(rng.integers(3, 11))
            m = random_gmrf(n, int(rng.integers(1, 4)), seed=int(rng.integers(1 << 30)))
            b = int(rng.integers(0, n + 1))
            assert greedy_budget(m, b).selected == naive_greedy(m, b)
            p = unit_path(n + 10, pin=int(rng.integers(1, n + 11)))
            b = int(rng.integers(0, p.n))
            assert greedy_budget(p, b).selected == naive_greedy(p, b)

    def test_rebuild_every_round_same_selection(self, monkeypatch):
        # with no drift tolerance every round rebuilds Sigma and chooses twice
        import gmrf_select.greedy as greedy_mod
        models = [random_gff(12, density=0.3, seed=1), random_gmrf(12, 3, seed=2),
                  unit_path(15, pin=6)]
        expected = [greedy_budget(g, 8).selected for g in models]
        calls = []
        real_choose = greedy_mod._choose
        monkeypatch.setattr(greedy_mod, "DRIFT_TOL", 0.0)
        monkeypatch.setattr(greedy_mod, "_choose",
                            lambda *args: calls.append(args) or real_choose(*args))
        assert [greedy_budget(g, 8).selected for g in models] == expected
        assert len(calls) == 2 * 8 * len(models)

    def test_sigma_built_once_per_solve(self, monkeypatch):
        # the downdates track Sigma, so no round rebuilds it
        import gmrf_select.greedy as greedy_mod
        calls = []
        real_inverse = greedy_mod.inverse
        monkeypatch.setattr(greedy_mod, "inverse",
                            lambda *args: calls.append(args) or real_inverse(*args))
        for seed in range(3):
            for m in (random_gff(40, density=0.1, seed=seed),
                      random_gff(12, density=0, seed=seed), random_gmrf(30, 2, seed=seed)):
                calls.clear()
                greedy_budget(m, m.n // 3)
                greedy_cover(m, 0.3 * err(m, m.pinned))
                assert len(calls) == 2   # one inverse per solve, at its start

    def test_non_finite_gain_is_refused(self, monkeypatch):
        # the scaling keeps the gains of a finite covariance finite; a NaN one
        # is still refused, not left without a winner
        import gmrf_select.greedy as greedy_mod
        monkeypatch.setattr(greedy_mod, "_scaled", lambda sigma: (sigma * np.nan, 1.0))
        with pytest.raises(NumericFailure, match="greedy's best gain is nan"):
            greedy_budget(unit_path(4), 1)

    def test_negative_variance_is_refused(self):
        # the inverted Laplacian's variances at 4, 6 and 7 are about -4.5e15:
        # no gain ranks the round, so it is refused before any gain is formed
        model = parse_model_text(wide_gff_text("wide7"))
        with pytest.raises(NumericFailure, match="vertex 4 has variance -4.5"):
            greedy_budget(model, 1)
        with pytest.raises(NumericFailure, match="vertex 4 has variance -4.5"):
            greedy_cover(model, 0.1)

    def test_zero_variance_after_downdate_is_refused(self):
        # the first round answers as exact does; its downdate leaves a zero
        # variance, which the second round refuses before dividing by it
        model = parse_model_text(wide_gff_text("wide173"))
        report = greedy_budget(model, 1)
        assert report.selected == (1, 6)
        assert f"{report.err_value:.12g}" == "0.870787546462"
        for solve in (lambda: greedy_budget(model, 2), lambda: greedy_cover(model, 0.1)):
            with pytest.raises(NumericFailure, match="has variance 0"):
                solve()

    def test_err_increase_is_refused(self, monkeypatch):
        # an err that grows with the set's size breaks greedy's descent check
        import gmrf_select.greedy as greedy_mod
        true_err = greedy_mod.err
        monkeypatch.setattr(greedy_mod, "err",
                            lambda model, s: true_err(model, s) + 10.0 * len(s))
        with pytest.raises(InvariantViolation, match="greedy err increased"):
            greedy_budget(unit_path(4), 1)

    def test_path5_vs_exact(self):
        from gmrf_select.exact import exact_budget
        g = unit_path(5)
        gr = greedy_budget(g, 1)
        ex = exact_budget(g, 1)
        assert gr.err_value <= BUDGET_FACTOR * ex.err_value + 1e-9

    def test_certificate_only_for_gff(self):
        g = random_gff(5, seed=0)
        assert greedy_budget(g, 1).guarantee is not None
        assert abs(greedy_budget(g, 1).guarantee.factor - BUDGET_FACTOR) < 1e-12
        m = random_gmrf(5, 2, seed=0)
        assert greedy_budget(m, 1).guarantee is None

    def test_descent_strict_until_done(self):
        g = random_gff(7, density=0.3, seed=3)
        errs = [greedy_budget(g, b).err_value for b in range(0, 7)]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= prev + 1e-12
            if prev > 0:
                assert nxt < prev
        assert errs[-1] == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(InvariantViolation):
            greedy_budget(unit_path(3), -1)


class TestGreedyCover:
    def test_alpha_already_satisfied(self):
        g = unit_path(4)
        rep = greedy_cover(g, err(g, {1}) + 1.0)
        assert rep.selected == (1,)

    def test_alpha_zero_takes_everything(self):
        g = unit_path(4)
        rep = greedy_cover(g, 0.0)
        assert rep.selected == (1, 2, 3, 4)

    def test_cover_within_certificate(self):
        from gmrf_select.exact import exact_cover
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            alpha = err(g, {g.pin}) * float(rng.uniform(0.05, 0.9))
            gr = greedy_cover(g, alpha)
            ex = exact_cover(g, alpha)
            assert gr.err_value <= alpha
            assert len(gr.selected) <= gr.guarantee.factor * len(ex.selected) + 1e-9

    def test_alpha_equal_to_prefix_err_stops_there(self):
        # alpha is err of a greedy prefix to the last bit, so the stop test
        # must compare the freshly computed err, not an accumulated one
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(4, 12))
            g = random_gff(n, density=float(rng.uniform(0, 0.5)),
                           seed=int(rng.integers(1 << 30)))
            k = int(rng.integers(1, n - 1))
            prefix = greedy_budget(g, k)
            rep = greedy_cover(g, prefix.err_value)
            assert rep.selected == prefix.selected

    def test_pin_other_than_one(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            g = random_gff(n, density=float(rng.uniform(0, 0.5)),
                           seed=int(rng.integers(1 << 30)))
            g = GffModel(n, g.edges, pin=int(rng.integers(2, n + 1)))
            alpha = err(g, {g.pin}) * float(rng.uniform(0.05, 0.9))
            rep = greedy_cover(g, alpha)
            assert g.pin in rep.selected
            assert rep.err_value <= alpha
            b = int(rng.integers(0, n))
            assert greedy_budget(g, b).selected == naive_greedy(g, b)

    def test_cover_factor_formula(self):
        g = GffModel(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0)])
        expected = 1.0 + math.log(3 ** 2 * 2.0 / 0.5)
        assert abs(cover_factor(g) - expected) < 1e-12


class TestPermutationEquivariance:
    def test_relabeling_maps_output(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            perm = list(rng.permutation(np.arange(1, n + 1)))
            to_new = {old: int(new) for old, new in zip(range(1, n + 1), perm)}
            g2 = GffModel(n, [(to_new[u], to_new[v], r) for u, v, r in g.edges],
                          pin=to_new[g.pin])
            b = int(rng.integers(1, 4))
            base = greedy_budget(g, b)
            mapped = greedy_budget(g2, b)
            assert abs(base.err_value - mapped.err_value) < 1e-9
            # relabeled run equals running on relabeled indices (ties break
            # on the relabeled order, so compare err, not the raw sets)
            assert abs(err(g2, {to_new[v] for v in base.selected})
                       - base.err_value) < 1e-9


def test_classical_budget_bound_holds():
    # greedy err <= (1/e) err(start) + (1 - 1/e) optimum, from the standard
    # submodular-maximization reduction; checked because the stated pure
    # multiplicative factor can fail (see the acceptance suite).
    from gmrf_select.exact import exact_budget
    rng = np.random.default_rng(18)
    for _ in range(80):
        n = int(rng.integers(3, 10))
        g = random_gff(n, density=float(rng.uniform(0, 0.5)),
                       seed=int(rng.integers(1 << 30)))
        b = int(rng.integers(0, 5))
        gr = greedy_budget(g, b)
        ex = exact_budget(g, b)
        bound = err(g, {g.pin}) / math.e + (1 - 1 / math.e) * ex.err_value
        assert gr.err_value <= bound + 1e-9
