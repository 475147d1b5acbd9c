import itertools

import numpy as np
import pytest

import gmrf_select.exact as exact_mod
from gmrf_select.cli import main
from gmrf_select.errors import InstanceTooLarge, InvariantViolation, SingularMatrix
from gmrf_select.exact import exact_budget, exact_cover
from gmrf_select.io import parse_model
from gmrf_select.models import (
    GffModel,
    GmrfModel,
    err,
    err_batch,
    err_stack,
    random_gff,
    random_gmrf,
)

from conftest import padded, recorded_stack_calls, unit_cycle, unit_path
from oracles import err_reference, stacked_sets


def brute_budget(model, b, score=err):
    """Independent enumeration oracle (no shared code with exact_budget)."""
    if isinstance(model, GffModel):
        base, pool = {model.pin}, [v for v in model.vertices if v != model.pin]
    else:
        base, pool = set(), list(model.vertices)
    best = None
    for k in range(min(b, len(pool)) + 1):
        for extra in itertools.combinations(pool, k):
            sel = tuple(sorted(base | set(extra)))
            key = (score(model, sel), sel)
            if best is None or key < best:
                best = key
    return best


def first_achiever(model, alpha, score=err):
    """Independent cover oracle: the first subset, by size and then in
    combination order, whose err is at most alpha."""
    if isinstance(model, GffModel):
        base, pool = {model.pin}, [v for v in model.vertices if v != model.pin]
    else:
        base, pool = set(), list(model.vertices)
    for k in range(len(pool) + 1):
        for extra in itertools.combinations(pool, k):
            sel = tuple(sorted(base | set(extra)))
            if score(model, sel) <= alpha:
                return sel, score(model, sel)


# Rank 3 plus 1e-16 I: GmrfModel's eigenvalue check passes, but Cholesky of the
# full block (the empty selection, scored first) fails.
_V = np.random.default_rng(3).standard_normal((4, 3))
RANK3_PRECISION = _V @ _V.T + 1e-16 * np.eye(4)

# Cholesky succeeds on the full block and on the complement of {1}, but fails
# on the complement of {2}, the second subset of size 1.
MID_CHUNK_SINGULAR = """gmrf
4 4
1 2 3 4
0.18844324327700238 0.053152210158694695 -0.18166673609121053 0.4008802079757669
0.053152210158694695 1.166239556300817 0.6024003577415543 -1.0994529070105972
-0.18166673609121053 0.6024003577415543 0.5462503050810618 -1.0748969548715264
0.4008802079757669 -1.0994529070105972 -1.0748969548715264 2.1298670048329194
"""


class TestExactBudget:
    def test_full_budget(self):
        g = unit_cycle(4)
        rep = exact_budget(g, 4)
        assert rep.selected == (1, 2, 3, 4) and rep.err_value == 0.0

    def test_c4_picks_independent_complement(self):
        rep = exact_budget(unit_cycle(4), 1)
        assert rep.selected == (1, 3)
        assert abs(rep.err_value - 0.25) < 1e-12

    def test_counterexample_b2(self, counterexample_model):
        rep = exact_budget(counterexample_model, 2)
        # of the sets containing 1, {1,3} beats {1,2}: 0.1009 < 0.1162; the
        # enumeration is over all sets, so just check optimality vs brute force
        oracle = brute_budget(counterexample_model, 2)
        assert rep.selected == oracle[1]
        assert abs(rep.err_value - oracle[0]) < 1e-12
        assert err(counterexample_model, (1, 3)) < err(counterexample_model, (1, 2))

    def test_against_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            model = (random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
                     if rng.random() < 0.6
                     else random_gmrf(n, 2, seed=int(rng.integers(1 << 30))))
            b = int(rng.integers(0, 4))
            rep = exact_budget(model, b)
            oracle = brute_budget(model, b)
            assert rep.selected == oracle[1]
            assert abs(rep.err_value - oracle[0]) < 1e-12

    def test_cap(self):
        g = random_gff(21, density=0.2, seed=0)
        with pytest.raises(InstanceTooLarge):
            exact_budget(g, 2)
        exact_budget(g, 1, max_n=21)  # explicit override works


class TestExactCover:
    def test_alpha_satisfied_by_pin(self):
        g = unit_cycle(4)
        rep = exact_cover(g, err(g, {1}) + 1.0)
        assert rep.selected == (1,)

    def test_alpha_zero(self):
        rep = exact_cover(unit_cycle(4), 0.0)
        assert rep.selected == (1, 2, 3, 4)

    def test_c4_quarter(self):
        rep = exact_cover(unit_cycle(4), 0.25)
        assert rep.selected == (1, 3)

    def test_minimality_against_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            alpha = err(g, {g.pin}) * float(rng.uniform(0.05, 0.95))
            rep = exact_cover(g, alpha)
            assert rep.err_value <= alpha
            # nothing smaller works
            pool = [v for v in g.vertices if v != g.pin]
            k = len(rep.selected) - 2  # one fewer non-pin vertex
            if k >= 0:
                for extra in itertools.combinations(pool, k):
                    assert err(g, {g.pin, *extra}) > alpha


    def test_pin_other_than_one(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            g = GffModel(n, g.edges, pin=int(rng.integers(2, n + 1)))
            alpha = err(g, {g.pin}) * float(rng.uniform(0.05, 0.95))
            rep = exact_cover(g, alpha)
            assert g.pin in rep.selected
            assert rep.err_value <= alpha
            assert rep.selected == first_achiever(g, alpha)[0]


class TestInvariants:
    def test_budget_monotone(self):
        g = random_gff(7, density=0.4, seed=5)
        errs = [exact_budget(g, b).err_value for b in range(0, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_cover_monotone_in_alpha(self):
        g = random_gff(7, density=0.4, seed=6)
        base = err(g, {g.pin})
        sizes = [len(exact_cover(g, base * f).selected)
                 for f in (0.01, 0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_budget_cover_duality(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            g = random_gff(n, density=0.3, seed=int(rng.integers(1 << 30)))
            alpha = err(g, {g.pin}) * float(rng.uniform(0.05, 0.9))
            cov = exact_cover(g, alpha)
            t = len(cov.selected) - 1  # non-pin count
            if t >= 1:
                assert exact_budget(g, t - 1).err_value > alpha

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(4, 8))
            g = random_gff(n, density=0.4, seed=int(rng.integers(1 << 30)))
            perm = {old: int(new) for old, new
                    in zip(range(1, n + 1), rng.permutation(np.arange(1, n + 1)))}
            g2 = GffModel(n, [(perm[u], perm[v], r) for u, v, r in g.edges],
                          pin=perm[g.pin])
            b = int(rng.integers(1, 4))
            r1, r2 = exact_budget(g, b), exact_budget(g2, b)
            assert abs(r1.err_value - r2.err_value) < 1e-10
            assert abs(err(g2, {perm[v] for v in r1.selected}) - r2.err_value) < 1e-10


def test_negative_inputs_rejected():
    g = unit_cycle(4)
    with pytest.raises(InvariantViolation):
        exact_budget(g, -1)
    with pytest.raises(InvariantViolation):
        exact_cover(g, -0.5)


def test_threaded_enumeration_matches_serial(monkeypatch):
    import gmrf_select.exact as exact_mod
    g = random_gff(10, density=0.4, seed=9)
    serial = exact_budget(g, 4)
    monkeypatch.setenv("GMRF_SELECT_THREADS", "4")
    monkeypatch.setattr(exact_mod, "_THREAD_CHUNK", 16)
    threaded = exact_budget(g, 4)
    assert serial.selected == threaded.selected
    assert serial.err_value == threaded.err_value


def _tie_and_random_instances():
    rng = np.random.default_rng(53)
    models = [unit_cycle(n) for n in (4, 5, 6, 8)] + [unit_path(n) for n in (4, 6, 7)]
    for _ in range(12):
        n = int(rng.integers(4, 10))
        models.append(random_gff(n, density=float(rng.uniform(0.0, 0.5)),
                                 seed=int(rng.integers(1 << 30))))
        models.append(random_gmrf(n, 2, seed=int(rng.integers(1 << 30))))
    return models


def test_stacked_chunks_match_per_subset_loop(monkeypatch):
    # chunks of 5 put chunk edges inside the tie classes of cycles and paths
    monkeypatch.setattr(exact_mod, "_THREAD_CHUNK", 5)
    for model in _tie_and_random_instances():
        pool = model.n - 1 if isinstance(model, GffModel) else model.n
        for b in (1, 2, 3, pool, pool + 2):
            rep = exact_budget(model, b)
            assert (rep.err_value, rep.selected) == brute_budget(model, b)
        base = err(model, {model.pin}) if isinstance(model, GffModel) else err(model, ())
        # the optimum at budget 2 is an exact-tie target for the cover
        for alpha in (0.0, 0.3 * base, 0.8 * base, exact_budget(model, 2).err_value):
            rep = exact_cover(model, alpha)
            assert (rep.selected, rep.err_value) == first_achiever(model, alpha)


def test_near_ties_are_ranked_by_err(monkeypatch):
    # the batch scores are nudged by 1e-12 (relative): the answer must follow
    # them, and exact must not score any subset again with err
    def nudged(model, sel):
        return err(model, sel) * (1 - 1e-12 * (sum(sel) % 5))

    def nudged_batch(model, chunk):
        pin_sum = sum(model.pinned)
        return [score * (1 - 1e-12 * ((pin_sum + sum(extra)) % 5))
                for score, extra in zip(err_batch(model, chunk), chunk)]

    def no_err(model, sel):
        raise AssertionError("exact re-scored a subset with err")

    monkeypatch.setattr(exact_mod, "err_batch", nudged_batch)
    monkeypatch.setattr(exact_mod, "err", no_err)
    monkeypatch.setattr(exact_mod, "make_report", lambda m, sel, *a, **k: sel)
    for model in (unit_cycle(6), unit_cycle(8), unit_path(5)):
        for b in (1, 2, 3):
            assert exact_budget(model, b) == brute_budget(model, b, nudged)[1]
            alpha = brute_budget(model, b)[0] * (1 - 0.5e-12)
            assert exact_cover(model, alpha) == first_achiever(model, alpha, nudged)[0]


class TestSingularBlocks:
    def test_full_block_singular(self, tmp_path, capsys):
        model = GmrfModel(RANK3_PRECISION)
        message = r"unobserved block on \(1, 2, 3, 4\) is singular"
        with pytest.raises(SingularMatrix, match=message):
            exact_budget(model, 2)
        with pytest.raises(SingularMatrix, match=message):
            exact_cover(model, 1e300)
        rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in RANK3_PRECISION)
        path = tmp_path / "rank3.gmrf"
        path.write_text(f"gmrf\n4 4\n1 2 3 4\n{rows}\n")
        assert main(["select", "exact", "--input", str(path), "--budget", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: unobserved block on (1, 2, 3, 4)")

    def test_singular_block_inside_a_chunk(self, tmp_path, capsys):
        path = tmp_path / "mid.gmrf"
        path.write_text(MID_CHUNK_SINGULAR)
        model = parse_model(str(path))
        message = r"unobserved block on \(1, 3, 4\) is singular"
        with pytest.raises(SingularMatrix, match=message):
            exact_budget(model, 1)
        # {1} reaches alpha before enumeration gets to the singular {2}
        alpha = 0.5 * (err(model, ()) + err(model, (1,)))
        assert exact_cover(model, alpha).selected == (1,)
        assert main(["select", "exact", "--input", str(path), "--budget", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: unobserved block on (1, 3, 4)")
        assert main(["select", "exact", "--input", str(path), "--alpha", repr(alpha)]) == 0


def _hex(values):
    return [float(v).hex() for v in values]


def _random_selections(model, rng, count):
    """Mixed-size selections, each in a random order; the pin may be named."""
    out = []
    for _ in range(count):
        order = rng.permutation(model.vertices)
        out.append(tuple(int(v) for v in order[:rng.integers(0, model.n + 1)]))
    return out


class TestErrBatch:
    """models.err_batch and err_stack, the one scorer behind err, the exhaustive
    search and the supermodularity suite, against ``err_reference`` (the
    support-matrix path through linalg.obs and trace_of_inverse), bit for bit."""

    def test_random_gffs(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(3, 13))
            g = random_gff(n, density=float(rng.uniform(0.0, 0.6)),
                           seed=int(rng.integers(1 << 30)))
            subsets = _random_selections(g, rng, 40)
            unpinned = tuple(v for v in g.vertices if v != g.pin)
            subsets += [(), (g.pin,), tuple(g.vertices), unpinned]
            want = _hex(err_reference(g, s) for s in subsets)
            assert _hex(err_batch(g, subsets)) == want
            assert _hex(err(g, s) for s in subsets) == want

    def test_random_gmrfs(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            m = random_gmrf(n, tree_width_hint=int(rng.integers(1, 4)),
                            seed=int(rng.integers(1 << 30)))
            subsets = _random_selections(m, rng, 40) + [(), tuple(m.vertices)]
            want = _hex(err_reference(m, s) for s in subsets)
            assert _hex(err_batch(m, subsets)) == want
            assert _hex(err(m, s) for s in subsets) == want

    def test_edge_selections(self):
        g = random_gff(6, density=0.3, seed=4)
        assert err_batch(g, []) == []
        assert _hex(err_batch(g, [(), (1,)])) == _hex([err_reference(g, ()),
                                                        err_reference(g, (1,))])
        assert err_batch(g, [tuple(g.vertices)] * 3) == [0.0] * 3
        with pytest.raises(InvariantViolation, match="outside 1..6"):
            err_batch(g, [(2,), (0, 3)])

    def test_refusal_names_the_first_bad_set_with_the_pin(self):
        g = random_gff(6, density=0.3, seed=4)
        with pytest.raises(InvariantViolation) as info:
            err_batch(g, [(2,), (0, 3), (7,)])
        assert str(info.value) == "selection [0, 1, 3] outside 1..6"

    def test_exacts_chunks(self, monkeypatch):
        # every chunk of every subset size that the search scores, with chunk
        # edges inside the tie classes of cycles and paths
        monkeypatch.setattr(exact_mod, "_THREAD_CHUNK", 5)
        batches = []

        def recording_batch(model, chunk):
            batches.append((model, chunk))
            return err_batch(model, chunk)

        monkeypatch.setattr(exact_mod, "err_batch", recording_batch)
        models = _tie_and_random_instances()
        for model in models:
            exact_budget(model, model.n)
        # every subset of the unpinned vertices went through a batch
        assert sum(len(chunk) for _, chunk in batches) == sum(
            2 ** (m.n - len(m.pinned)) for m in models)
        for model, chunk in batches:
            sels = [model.pinned | set(extra) for extra in chunk]
            assert _hex(err_batch(model, chunk)) == _hex(err_reference(model, s) for s in sels)

    def test_supermodularity_suites_batches(self, monkeypatch):
        import gmrf_select.validate as validate_mod

        calls = recorded_stack_calls(monkeypatch)
        assert validate_mod.suite_supermodularity(0, 1000) == []
        assert sum(len(owner) for _, owner, _, _ in calls) == 4000
        for models, owner, unobserved, scores in calls:
            assert _hex(scores) == _hex(err_reference(model, s) for model, s in
                                        stacked_sets(models, owner, unobserved))

    def test_cross_model_stack(self):
        # GFFs of n = 3 and n = 10 and a GMRF in one stack: no padding column of
        # the n = 10 stack reaches a smaller model's block, and a set with no
        # unobserved vertex scores 0
        rng = np.random.default_rng(73)
        models = [random_gff(3, density=0.5, seed=1), random_gff(10, density=0.3, seed=2),
                  random_gmrf(6, tree_width_hint=2, seed=3)]
        owner, unobserved = [], []
        for _ in range(120):
            j = int(rng.integers(len(models)))
            model = models[j]
            row = np.zeros(10, dtype=bool)
            row[:model.n] = rng.random(model.n) < 0.6
            row[[v - 1 for v in model.pinned]] = False
            owner.append(j)
            unobserved.append(row)
        owner.append(1)
        unobserved.append(np.zeros(10, dtype=bool))   # every vertex observed
        owner, unobserved = np.array(owner), np.array(unobserved)
        scores = err_stack(*padded(models), owner, unobserved)
        assert scores[-1] == 0.0
        assert _hex(scores) == _hex(err_reference(model, s) for model, s in
                                    stacked_sets(models, owner, unobserved))
        assert set(owner.tolist()) == {0, 1, 2}

    def test_singular_stack_raises_errs_error_at_the_same_set(self, tmp_path):
        path = tmp_path / "mid.gmrf"
        path.write_text(MID_CHUNK_SINGULAR)
        model = parse_model(str(path))
        # {2} is the only singular set; {4} shares its stack, () and {1, 3} do not
        subsets = [(), (1,), (1, 3), (4,), (2,), (3,)]
        message = ("unobserved block on (1, 3, 4) is singular: support block not "
                   "positive definite: Matrix is not positive definite")
        for score in (lambda: err(model, (2,)), lambda: err_batch(model, subsets)):
            with pytest.raises(SingularMatrix) as got:
                score()
            assert str(got.value) == message
        assert _hex(err_batch(model, [(), (1,), (1, 3)])) == _hex(
            [err_reference(model, ()), err_reference(model, (1,)),
             err_reference(model, (1, 3))])
        # a non-selection later in the batch is refused before any set is scored
        with pytest.raises(InvariantViolation, match=r"selection \[0, 2\] outside 1..4"):
            err_batch(model, [(2,), (0, 2)])
        # the same singular set in the middle of a stack of three models
        g3, g10 = random_gff(3, seed=1), random_gff(10, seed=2)
        models = [g3, model, g10]
        sets = [(1,), (1, 2), (), (1,), (2,), (3,), (1, 5), (1, 2, 3)]
        owner = np.array([0, 2, 1, 1, 1, 1, 2, 0])
        unobserved = np.zeros((len(sets), 10), dtype=bool)
        for i, (j, s) in enumerate(zip(owner, sets)):
            observed = models[j].pinned | set(s)
            unobserved[i, [v - 1 for v in models[j].vertices if v not in observed]] = True
        with pytest.raises(SingularMatrix) as got:
            err_stack(*padded(models), owner, unobserved)
        assert str(got.value) == message

    def test_singular_stack_names_the_first_singular_set_in_set_order(self, tmp_path):
        # the rank-3 model's empty selection (a 4 x 4 block) and the mid-chunk
        # model's {2} (3 x 3) are both singular; the 3 x 3 stack is factored
        # first, but the error names whichever set comes first
        path = tmp_path / "mid.gmrf"
        path.write_text(MID_CHUNK_SINGULAR)
        models = [GmrfModel(RANK3_PRECISION), parse_model(str(path))]
        empty = np.zeros(10, dtype=bool)
        empty[:4] = True            # the rank-3 model with nothing observed
        two = empty.copy()
        two[1] = False              # the mid-chunk model with {2} observed
        for owner, rows, support in (([0, 1], [empty, two], "(1, 2, 3, 4)"),
                                     ([1, 0], [two, empty], "(1, 3, 4)")):
            with pytest.raises(SingularMatrix) as got:
                err_stack(*padded(models), np.array(owner), np.array(rows))
            assert str(got.value).startswith(f"unobserved block on {support} is singular")

    def test_stack_failure_no_block_reproduces_propagates_as_is(self, monkeypatch):
        # a LinAlgError that no block's own Cholesky reproduces (here from the
        # stacked inverse) is raised unchanged, also through a generator caller
        def failing_inv(a):
            raise np.linalg.LinAlgError("stacked inverse failed")

        monkeypatch.setattr(np.linalg, "inv", failing_inv)
        g = random_gff(6, seed=1)
        with pytest.raises(np.linalg.LinAlgError, match="^stacked inverse failed$"):
            err_batch(g, [(1,), (1, 2)])
        with pytest.raises(np.linalg.LinAlgError, match="^stacked inverse failed$"):
            min(err(g, s) for s in [(1,), (1, 2)])
