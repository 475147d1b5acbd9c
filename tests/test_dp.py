import gc
import math
import sys
import weakref

import numpy as np
import pytest

import gmrf_select.dp as dp_mod
from gmrf_select import io, linalg, models
from gmrf_select.cli import main
from gmrf_select.decomposition import balance_for_tree, normalize
from gmrf_select.dp import (
    DEFAULT_STATE_CAP,
    MessageTable,
    dp_select,
    extract_solution,
    factorize,
    run_dp,
)
from gmrf_select.errors import (
    InstanceTooLarge,
    InvalidDecomposition,
    InvariantViolation,
    NumericFailure,
    SingularMatrix,
)
from gmrf_select.exact import exact_budget
from gmrf_select.linalg import SupportedMatrix
from gmrf_select.models import GffModel, err, random_gff

from conftest import random_tree_gmrf, triangle_chain_gmrf, unit_path
from oracles import (eig_extremes, factor_total, gff_relation_eps, is_gff_class,
                     psd_sandwich_check)


class TestFactorize:
    def test_single_cluster_is_lambda(self):
        m, edges, bags, links = triangle_chain_gmrf(3, np.random.default_rng(0))
        td = normalize([{1, 2, 3}], [], 3, edges)
        cf = factorize(m, td)
        assert np.allclose(factor_total(cf, 3), m.precision_matrix, atol=1e-10)

    def test_gff_edge_assignment_sums_to_laplacian(self):
        g = unit_path(3)
        td = normalize([{1, 2}, {2, 3}], [(0, 1)], 3, g.graph_edges())
        cf = factorize(g, td)
        assert np.allclose(factor_total(cf, 3), g.precision_matrix, atol=1e-12)
        for f in cf:
            assert is_gff_class(f.block, abs_tol=1e-12)

    def test_general_mode_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m, edges, bags, links = triangle_chain_gmrf(n, rng)
            td = normalize(bags, links, n, edges)
            cf = factorize(m, td)
            lam = m.precision_matrix
            assert np.allclose(factor_total(cf, n), lam,
                               atol=1e-10 * np.abs(lam).max())
            w = np.linalg.eigvalsh(lam)
            for f in cf:
                if not f.support:
                    continue
                lo, hi = eig_extremes(f)
                fw = np.linalg.eigvalsh(f.block)
                assert fw[0] >= w[0] / td.m          # rank |V_j| and lower bound
                assert hi <= w[-1] + 1e-9

    def test_gff_factor_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
            td = balance_for_tree(n, g.graph_edges())
            cf = factorize(g, td)
            lap = g.precision_matrix
            assert np.allclose(factor_total(cf, n), lap, atol=1e-10 * np.abs(lap).max())
            for f in cf:
                assert is_gff_class(f.block, abs_tol=1e-12)

    def test_elimination_order_broken(self):
        m, edges, bags, links = triangle_chain_gmrf(5, np.random.default_rng(3))
        td = normalize(bags, links, 5, edges)
        # forge a decomposition object with a bad order to hit the error path
        bad = td.__class__(td.n, td.clusters, td.tree_edges,
                           tuple(reversed(td.elimination_order)))
        with pytest.raises(InvalidDecomposition):
            factorize(m, bad)

    def test_gff_edge_in_no_cluster(self):
        # a decomposition of the path 1-2-3 given a triangle: no cluster holds
        # edge (1,3), a bad decomposition as on the GMRF branch
        triangle = GffModel(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        td = normalize([{1, 2}, {2, 3}], [(0, 1)], 3, [(1, 2), (2, 3)])
        for solve in (lambda: factorize(triangle, td), lambda: dp_select(triangle, td, 1, 0.1)):
            with pytest.raises(InvalidDecomposition, match=r"^edge \(1,3\) inside no cluster$"):
                solve()


class TestRunDp:
    def test_budget_zero_single_state(self):
        g = unit_path(4)
        td = balance_for_tree(4, g.graph_edges())
        mt = run_dp(g, td, 0, 0.02)
        rep = extract_solution(mt)
        assert rep.selected == (1,)
        assert abs(rep.err_value - err(g, {1})) < 1e-12

    def test_path4_b1_close_to_exact(self):
        g = unit_path(4)
        td = balance_for_tree(4, g.graph_edges())
        mt = run_dp(g, td, 1, 0.02)
        rep = extract_solution(mt)
        ex = exact_budget(g, 1)
        assert rep.err_value <= 1.1 * ex.err_value + 1e-9

    def test_determinism(self):
        g = random_gff(7, density=0.0, seed=12)
        td = balance_for_tree(7, g.graph_edges())
        a = extract_solution(run_dp(g, td, 2, 0.05))
        b = extract_solution(run_dp(g, td, 2, 0.05))
        assert a.selected == b.selected
        assert a.err_value == b.err_value

    def test_state_cap(self):
        g = random_gff(9, density=0.0, seed=4)
        td = balance_for_tree(9, g.graph_edges())
        with pytest.raises(InstanceTooLarge) as info:
            run_dp(g, td, 3, 1e-12, state_cap=25)
        assert "states" in str(info.value)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("rounding", ["gff", "svd"])
    def test_eps_must_be_finite_and_positive(self, rounding, eps):
        # the model picks the rounding: a GFF tree gets gff, a tree GMRF svd
        g = unit_path(4) if rounding == "gff" else random_tree_gmrf(4, np.random.default_rng(0))
        td = balance_for_tree(4, g.graph_edges())
        with pytest.raises(InvariantViolation, match=r"^eps must be finite and > 0, got "):
            run_dp(g, td, 2, eps)

    def test_extract_before_run_raises(self):
        g = unit_path(4)
        mt = MessageTable(g, balance_for_tree(4, g.graph_edges()), 1, 0.02, DEFAULT_STATE_CAP)
        with pytest.raises(NumericFailure,
                           match="^run_dp has not populated a finite root message$"):
            extract_solution(mt)

    def test_every_prior_singular_empties_the_root(self, monkeypatch, tmp_path, capsys):
        # cluster 0 holds only the pin, so every root configuration needs a
        # child prior; with none computable no root message is finite
        def singular(*args):
            raise SingularMatrix("forced singular block")

        monkeypatch.setattr(dp_mod, "marginal", singular)
        g = random_gff(12, density=0.0, seed=2)
        td = balance_for_tree(12, g.graph_edges())
        message = "no finite root message; every configuration hit a singular block"
        with pytest.raises(NumericFailure) as info:
            run_dp(g, td, 3, 1e-12)
        assert str(info.value) == message
        path = tmp_path / "tree12.gff"
        path.write_text(io.format_model(g))
        assert main(["select", "dp", "--input", str(path), "--budget", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_recomputed_err_above_the_table_bound_is_refused(self, monkeypatch):
        g = unit_path(4)
        mt = run_dp(g, balance_for_tree(4, g.graph_edges()), 1, 0.02)
        monkeypatch.setattr(dp_mod, "_accumulated_factor", lambda mt: 0.5)
        with pytest.raises(InvariantViolation, match="exceeds table value"):
            extract_solution(mt)

    def test_post_hoc_check_fires_at_the_svd_factor(self):
        # svd mode, h = 3, eps = 0.01: the factor is e^(2 h eps) = e^0.06. A
        # best root value just under n err / factor is refused, one just over
        # it passes
        m = random_tree_gmrf(8, np.random.default_rng(3))
        td = balance_for_tree(8, m.graph_edges())
        assert td.height == 3
        for slack, refused in ((1 + 1e-6, True), (1 - 1e-6, False)):
            mt = run_dp(m, td, 2, 0.01)
            table = mt.root_table
            key = min(table, key=lambda k: (table[k].value, table[k].tiebreak, k))
            value = m.n * err(m, table[key].chosen) / (math.exp(0.06) * slack)
            table[key] = table[key]._replace(value=value)
            if refused:
                with pytest.raises(InvariantViolation, match="exceeds table value"):
                    extract_solution(mt)
            else:
                extract_solution(mt)

    def test_budget_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
            b = int(rng.integers(0, 4))
            td = balance_for_tree(n, g.graph_edges())
            mt = run_dp(g, td, b, 0.05)
            rep = extract_solution(mt)
            assert len([v for v in rep.selected if v != g.pin]) <= b

    def test_value_accounting_matches_exact_at_tiny_eps(self):
        # with rounding at the machine clamp the root table value must equal
        # the exhaustive optimum (times n), which pins the per-cluster error
        # accounting, not just the extracted set
        rng = np.random.default_rng(55)
        for _ in range(12):
            n = int(rng.integers(3, 11))
            g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
            b = int(rng.integers(0, 4))
            td = balance_for_tree(n, g.graph_edges())
            mt = run_dp(g, td, b, 1e-12)
            best = min(e.value for e in mt.root_table.values())
            ex = exact_budget(g, b)
            assert abs(best / n - ex.err_value) <= 1e-9 * max(ex.err_value, 1e-12)


class TestTableInvariants:
    def test_gff_audit_relation_and_range(self):
        g = random_gff(8, density=0.0, seed=21)
        td = balance_for_tree(8, g.graph_edges())
        mt = run_dp(g, td, 2, 0.05)
        assert mt.rounding_audit
        from gmrf_select.rounding import GffRounder
        r = GffRounder.for_model(g, 0.05)
        for pre, post in mt.rounding_audit:
            rel = gff_relation_eps(pre, post, zero_tol=r.zero_tol * 4)
            assert rel <= mt.eps + 1e-9
            nz = [abs(post.block[i, j])
                  for i in range(len(post.support))
                  for j in range(i + 1, len(post.support))
                  if post.block[i, j] != 0.0]
            nz += [s for s in post.block.sum(axis=1) if s > r.zero_tol]
            for v in nz:
                assert r.c_l * 0.99 <= v <= r.c_h * 1.01

    def test_svd_audit_sandwich_and_confinement(self):
        rng = np.random.default_rng(6)
        m, edges, bags, links = triangle_chain_gmrf(6, rng)
        td = normalize(bags, links, 6, edges)
        mt = run_dp(m, td, 2, 0.05)
        assert mt.rounding_audit
        w = np.linalg.eigvalsh(m.precision_matrix)
        for pre, post in mt.rounding_audit:
            if not pre.support:
                continue
            assert psd_sandwich_check(post, pre, mt.eps)
            lo, hi = eig_extremes(post)
            assert lo >= w[0] / td.m * math.exp(-0.5) - 1e-9
            assert hi <= w[-1] * math.exp(0.5) + 1e-9


class TestDpSelect:
    def test_trees_within_target(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(4, 13))
            g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
            b = int(rng.integers(0, 4))
            td = balance_for_tree(n, g.graph_edges())
            sel = dp_select(g, td, b, 0.1)
            ex = exact_budget(g, b)
            assert sel.err_value <= 1.1 * ex.err_value + 1e-9

    def test_wall_time_covers_the_whole_solve(self, monkeypatch):
        # a clock that advances one second per message evaluation: the report
        # times the table build and every evaluation, not only the lookup
        import time
        clock = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        true_evaluate = MessageTable.evaluate

        def ticking(mt, *args):
            clock[0] += 1.0
            return true_evaluate(mt, *args)

        monkeypatch.setattr(MessageTable, "evaluate", ticking)
        g = random_gff(8, density=0.0, seed=3)
        report = dp_select(g, balance_for_tree(8, g.graph_edges()), 2, 0.1)
        assert report.wall_time == clock[0] > 1.0

    def test_coarser_eps_not_finer_state_count(self):
        g = random_gff(9, density=0.0, seed=8)
        td = balance_for_tree(9, g.graph_edges())
        fine = dp_select(g, td, 2, 0.1)
        coarse = dp_select(g, td, 2, 0.5)
        ex = exact_budget(g, 2)
        assert fine.err_value <= 1.1 * ex.err_value + 1e-9
        assert coarse.err_value <= 1.5 * ex.err_value + 1e-9

    def test_width2_svd_within_target(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            m, edges, bags, links = triangle_chain_gmrf(n, rng)
            td = normalize(bags, links, n, edges)
            b = int(rng.integers(0, 3))
            sel = dp_select(m, td, b, 0.1)
            ex = exact_budget(m, b)
            assert sel.selected == tuple(sorted(sel.selected))
            assert sel.err_value <= 1.1 * ex.err_value + 1e-9

    def test_width2_gff_rounding(self):
        # element-wise rounding on a bounded-treewidth (non-tree) GFF
        rng = np.random.default_rng(58)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            plain = [(1, 2)] + [e for v in range(3, n + 1)
                                for e in ((v - 2, v), (v - 1, v))]
            edges = [(u, v, float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
                     for u, v in plain]
            g = GffModel(n, edges, pin=int(rng.integers(1, n + 1)))
            bags = [{i, i + 1, i + 2} for i in range(1, n - 1)]
            links = [(i, i + 1) for i in range(len(bags) - 1)]
            td = normalize(bags, links, n, plain)
            b = int(rng.integers(0, 3))
            sel = dp_select(g, td, b, 0.1)
            ex = exact_budget(g, b)
            assert sel.err_value <= 1.1 * ex.err_value + 1e-9

    def test_single_edge_graph_exact(self):
        g = GffModel(2, [(1, 2, 1.3)])
        td = balance_for_tree(2, [(1, 2)])
        sel = dp_select(g, td, 1, 0.3)
        assert sel.selected == (1, 2)
        assert sel.err_value == 0.0

    def test_guarantee_and_details(self):
        g = unit_path(5)
        td = balance_for_tree(5, g.graph_edges())
        sel = dp_select(g, td, 1, 0.1)
        assert sel.guarantee.factor == pytest.approx(1.1)
        assert sel.details["eps_clamped"] is True
        assert sel.details["eps_theoretical"] < 1e-12
        assert sel.details["note"] == (
            f"theoretical rounding resolution {sel.details['eps_theoretical']:.3e} "
            "is below machine precision; clamped to 1e-12")

    def test_eps_prime_out_of_range(self):
        g = unit_path(3)
        td = balance_for_tree(3, g.graph_edges())
        with pytest.raises(InvariantViolation):
            dp_select(g, td, 1, 1.5)

    def test_svd_rounding_on_tree_gmrf(self):
        # svd mode on a tree-structured GMRF
        rng = np.random.default_rng(10)
        from conftest import random_tree_gmrf
        m = random_tree_gmrf(6, rng)
        td = balance_for_tree(6, m.graph_edges())
        sel = dp_select(m, td, 2, 0.1)
        ex = exact_budget(m, 2)
        assert sel.err_value <= 1.1 * ex.err_value + 1e-9

    def test_non_default_pin(self):
        edges = [(1, 2, 1.0), (2, 3, 0.7), (3, 4, 1.4), (2, 5, 0.9)]
        g = GffModel(5, edges, pin=3)
        td = balance_for_tree(5, g.graph_edges())
        for b in (0, 1, 2):
            sel = dp_select(g, td, b, 0.1)
            ex = exact_budget(g, b)
            assert g.pin in sel.selected
            assert len([v for v in sel.selected if v != g.pin]) <= b
            assert sel.err_value <= 1.1 * ex.err_value + 1e-9


def on_tree(model):
    return model, balance_for_tree(model.n, model.graph_edges())


def triangle_chain(n, seed):
    model, edges, bags, links = triangle_chain_gmrf(n, np.random.default_rng(seed))
    return model, normalize(bags, links, n, edges)


def pinned_tree(n, seed, pin):
    g = random_gff(n, density=0.0, seed=seed)
    return on_tree(GffModel(n, g.edges, pin=pin))


# (model and decomposition, details["rounding"], budget, eps_prime, details["sizing"],
# table_value.hex(), selected); the DP must reproduce these figures bit for bit
MEMO_CASES = {
    "gff": (lambda: on_tree(random_gff(12, density=0.0, seed=2)), "gff", 3, 0.1,
            "mode=gff eps=1.000e-12 budget=3 edges=11 contexts=98 states=158",
            "0x1.bf3485182c7b0p+2", (1, 7, 9, 12)),
    "svd": (lambda: on_tree(random_tree_gmrf(10, np.random.default_rng(2))), "svd", 2, 0.5,
            "mode=svd eps=1.389e-02 budget=2 edges=9 contexts=209 states=366",
            "0x1.4adc33eae8e04p+2", (2, 7)),
    "gff-pin7": (lambda: pinned_tree(12, 3, 7), "gff", 3, 0.1,
                 "mode=gff eps=1.000e-12 budget=3 edges=13 contexts=781 states=1328",
                 "0x1.03805d8013d41p+3", (1, 4, 7, 12)),
    "svd-chain": (lambda: triangle_chain(9, 3), "svd", 2, 0.3,
                  "mode=svd eps=5.769e-03 budget=2 edges=11 contexts=408 states=657",
                  "0x1.865d9f9a21008p+1", (1, 9)),
}


def counted_dp_select(monkeypatch, case):
    """dp_select on a MEMO_CASES model; also every (support, block bytes,
    target) passed to the DP's marginal."""
    make, _, b, eps_prime, *_ = MEMO_CASES[case]
    model, td = make()
    seen = []
    true_marginal = dp_mod.marginal

    def counting(m, delta):
        seen.append((m.support, m.block.tobytes(), frozenset(delta)))
        return true_marginal(m, delta)

    monkeypatch.setattr(dp_mod, "marginal", counting)
    return dp_select(model, td, b, eps_prime), seen


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
class TestKernelMemo:
    def test_marginal_inputs_computed_about_once(self, monkeypatch, case):
        # without the memo, each distinct input recurs 3-9 times on average
        _, seen = counted_dp_select(monkeypatch, case)
        assert seen
        assert len(seen) <= 2 * len(set(seen))

    def test_sizing_and_table_value_unchanged(self, monkeypatch, case):
        report, _ = counted_dp_select(monkeypatch, case)
        _, rounding, _, _, sizing, value, selected = MEMO_CASES[case]
        assert report.details["rounding"] == rounding
        assert report.details["sizing"] == sizing
        assert report.details["table_value"].hex() == value
        assert report.selected == selected


class TestSingularBlockDrop:
    def test_kernel_drops_singular_block_once(self, monkeypatch):
        # an operand cancelling a cluster's factor leaves a zero block: both
        # kernels drop it (None), and the memo answers a repeat without work
        g, td = on_tree(random_gff(8, density=0, seed=1))
        mt = MessageTable(g, td, 1, 0.1, DEFAULT_STATE_CAP)
        i = next(t for t, f in enumerate(mt.sys_factors) if len(f.support) >= 2)
        f = mt.sys_factors[i]
        cancel = (SupportedMatrix(f.support, -f.block),)
        keep = frozenset(f.support[:1])
        calls = []
        true_marginal, true_diag = dp_mod.marginal, dp_mod.linalg.diag_of_inverse
        monkeypatch.setattr(dp_mod, "marginal",
                            lambda *a: calls.append("p") or true_marginal(*a))
        monkeypatch.setattr(dp_mod.linalg, "diag_of_inverse",
                            lambda *a: calls.append("t") or true_diag(*a))
        for kind in ("p", "t"):
            assert mt._kernel(kind, i, cancel, set(), keep) is None
            assert mt._kernel(kind, i, cancel, set(), keep) is None
        assert calls == ["p", "t"]

    def test_dropped_configurations_keep_the_optimum(self, monkeypatch):
        # a resistance spread of 1e14 makes some inside-precision blocks singular
        g = random_gff(8, density=0.0, seed=139662128,
                       resistance_range=(1.0079770156104522e-07, 18731635.696855657))
        dropped = []
        true_kernel = MessageTable._kernel

        def counting(self, kind, *args):
            out = true_kernel(self, kind, *args)
            if out is None:
                dropped.append(kind)
            return out

        monkeypatch.setattr(MessageTable, "_kernel", counting)
        report = dp_select(*on_tree(g), 1, 0.1)
        assert "p" in dropped
        exact = exact_budget(g, 1).err_value
        assert abs(report.err_value - exact) <= 1e-13 * exact


def force_one_singular(monkeypatch, owner, name, error, pick):
    """Patch the kernel ``owner.name`` (called as ``fn(block, keep)`` by
    MessageTable._kernel) to raise ``error`` on the first input that
    ``pick(call_site_frame, keep)`` accepts, and on every recomputation of that
    input; returns the list of those calls."""
    true_fn = getattr(owner, name)
    forced = []

    def patched(m, keep):
        key = (m.support, m.block.tobytes(), frozenset(keep))
        site = sys._getframe(2)   # patched <- MessageTable._kernel <- call site
        if (forced and key == forced[0]) or (not forced and pick(site, keep)):
            forced.append(key)
            raise error("forced singular block")
        return true_fn(m, keep)

    monkeypatch.setattr(owner, name, patched)
    return forced


def child_prior(child):
    """Picks a child's outside prior in _child_entries, below the root context
    (the root's own prior is zero, and its child priors are all it has): the
    kernel passes the call site's own keep set, target_k for the first child,
    target_l for the second."""
    return lambda site, keep: (site.f_code.co_name == "_child_entries"
                               and site.f_locals["q_mat"].support != ()
                               and keep is site.f_locals[f"target_{child}"])


class TestForcedDrops:
    """Each drop branch of the top-down pass, driven by one kernel input made
    singular: the run still ends with a finite root table, and the input is
    computed once, its None memoised for every repeat."""

    @pytest.mark.parametrize("kernel", ["trace", "prior-k", "prior-l"])
    def test_one_singular_input_is_dropped_once(self, monkeypatch, kernel):
        if kernel == "trace":
            forced = force_one_singular(monkeypatch, dp_mod.linalg, "diag_of_inverse",
                                        SingularMatrix, lambda site, keep: True)
        else:
            forced = force_one_singular(monkeypatch, dp_mod, "marginal",
                                        SingularMatrix, child_prior(kernel[-1]))
        g, td = on_tree(random_gff(12, density=0.0, seed=2))
        mt = run_dp(g, td, 3, 1e-12)
        assert len(forced) == 1
        assert list(mt._kernels.values()).count(None) == 1
        assert mt.root_table
        assert all(math.isfinite(e.value) for e in mt.root_table.values())


def map_cache_sizes():
    """Entries held by every module-level cache of the package's linear algebra."""
    return {name: fn.cache_info().currsize for name, fn in vars(linalg).items()
            if hasattr(fn, "cache_info")}


class TestRunMemory:
    def test_run_state_goes_with_the_run(self):
        # the memo, reachable sets and tables belong to the MessageTable; the
        # module-level position maps hold index arrays only, within their bound
        g, td = on_tree(random_gff(12, density=0.0, seed=2))
        mt = run_dp(g, td, 2, 1e-12)
        assert mt._kernels and map_cache_sizes()
        assert all(size <= linalg.MAPS_CACHE for size in map_cache_sizes().values())
        results = [weakref.ref(hit[0]) for hit in mt._kernels.values()
                   if isinstance(hit, tuple)]
        table = weakref.ref(mt)
        assert results
        del mt
        gc.collect()
        assert table() is None
        assert all(ref() is None for ref in results)

    def test_err_on_a_large_model_fills_no_cache(self):
        g = random_gff(150, density=0.02, seed=4)
        before = map_cache_sizes()
        rng = np.random.default_rng(5)
        for _ in range(200):
            models.err(g, {int(v) for v in rng.choice(np.arange(2, 151), size=10,
                                                       replace=False)})
        assert map_cache_sizes() == before
