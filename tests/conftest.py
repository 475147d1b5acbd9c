import math
import sys

import numpy as np
import pytest

from gmrf_select.models import GffModel, GmrfModel, random_gff

# covariance of the 4-variable counterexample model (supermodularity fails)
COUNTEREXAMPLE_SIGMA = np.array([
    [0.4435, 0.1092, -0.0905, -0.0527],
    [0.1092, 0.3041, 0.0256, 0.0227],
    [-0.0905, 0.0256, 0.1273, -0.1444],
    [-0.0527, 0.0227, -0.1444, 0.3752],
])


@pytest.fixture
def counterexample_model():
    return GmrfModel.from_covariance(COUNTEREXAMPLE_SIGMA)


def unit_cycle(n, pin=1):
    edges = [(i, i + 1, 1.0) for i in range(1, n)] + [(n, 1, 1.0)]
    return GffModel(n, edges, pin=pin)


def unit_path(n, pin=1):
    return GffModel(n, [(i, i + 1, 1.0) for i in range(1, n)], pin=pin)


def k5_gff():
    edges = [(i, j, 2.5) for i in range(1, 6) for j in range(i + 1, 6)]
    return GffModel(5, edges, pin=1)


# Two 8-vertex GFF trees whose edge 1-4 has resistance 1e308. Inverting their
# Laplacians leaves the variances of 4, 6 and 7 at rounding noise of about
# 4.5e15 in magnitude: negative on "wide7", positive on "wide173".
WIDE_EDGES = ((1, 2), (1, 3), (1, 8), (2, 5), (4, 6), (6, 7))
WIDE_RESISTANCES = {
    "wide7": (1.184870027179727, 0.9541201029564199, 1.002457100475345,
              1.4512469168043132, 0.8544418341800417, 1.2108684302174382),
    "wide173": (1.3658351070497277, 1.0470089269388356, 0.686686094577753,
                0.8193390533684932, 0.7315870100824629, 0.9500090726268005),
}


def wide_gff_text(name):
    """The GFF file of one of the WIDE_RESISTANCES trees."""
    lines = [f"{u} {v} {r!r}" for (u, v), r in zip(WIDE_EDGES, WIDE_RESISTANCES[name])]
    return "\n".join(["gff 8 7 1", *lines, "1 4 1e308"]) + "\n"


def random_tree_gmrf(n, rng, mixed_signs=True):
    """Tree-structured PD precision with random couplings."""
    lam = np.zeros((n, n))
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        val = float(rng.uniform(0.2, 1.5))
        if mixed_signs:
            val *= float(rng.choice([-1.0, 1.0]))
        lam[u - 1, v - 1] = lam[v - 1, u - 1] = val
    lam[np.diag_indices(n)] = np.abs(lam).sum(axis=1) + rng.uniform(0.05, 1.0, n)
    return GmrfModel(lam)


def triangle_chain_gmrf(n, rng):
    """Width-2 model: the chain of triangles on 1..n, plus its natural bags."""
    edges = [(1, 2)]
    for v in range(3, n + 1):
        edges += [(v - 2, v), (v - 1, v)]
    lam = np.zeros((n, n))
    for u, v in edges:
        val = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
        lam[u - 1, v - 1] = lam[v - 1, u - 1] = val
    lam[np.diag_indices(n)] = np.abs(lam).sum(axis=1) + rng.uniform(0.2, 1.0, n)
    bags = [frozenset({i, i + 1, i + 2}) for i in range(1, n - 1)]
    links = [(t, t + 1) for t in range(len(bags) - 1)]
    if n == 2:
        bags, links = [frozenset({1, 2})], []
    return GmrfModel(lam), edges, bags, links


def random_pd_supported(rng, support, eig_range=(0.1, 10.0)):
    """Random PD SupportedMatrix with eigenvalues log-uniform in eig_range."""
    from gmrf_select.linalg import SupportedMatrix
    k = len(support)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eigs = np.exp(rng.uniform(np.log(eig_range[0]), np.log(eig_range[1]), size=k))
    block = (q * eigs) @ q.T
    return SupportedMatrix(tuple(support), 0.5 * (block + block.T))


# the doubles a kernel's 1 x 1 path must answer or refuse as its general code does
SPECIAL_ENTRIES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1.0, -1.0)


def one_by_one_entries(seed, count, lo, hi):
    """``count`` seeded entries for 1 x 1 blocks: the special values, then in
    turn a log-uniform draw over [1e-300, 1e300], one over [lo / 2, 2 hi]
    (clipped to the finite doubles), a subnormal, and the negatives of the
    first two kinds."""
    rng = np.random.default_rng(seed)
    wide = 10.0 ** rng.uniform(-300.0, 300.0, count)
    near = np.exp(rng.uniform(math.log(lo / 2.0), math.log(min(2.0 * hi, sys.float_info.max)),
                              count))
    subnormal = rng.uniform(0.0, 1.0, count) * sys.float_info.min
    kinds = np.stack([wide, near, subnormal, -wide, -near], axis=1).ravel().tolist()
    return [*SPECIAL_ENTRIES, *kinds][:count]


def outcome(fn, *args):
    """``fn(*args)`` in comparable form: a matrix's support, shape, dtype and
    block bytes, a GFF's edges and precision bytes, a number's type and bytes,
    or the class and message of what it raised (the suite turns warnings into
    errors, so a warning counts too)."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, GffModel):
        return out.edges, out.precision_matrix.tobytes()
    if hasattr(out, "block"):
        return out.support, out.block.shape, out.block.dtype.str, out.block.tobytes()
    return type(out), np.float64(out).tobytes()


def padded(models, width=10):
    """The models' precisions zero-padded into one stack, and their n: the
    first two arguments of ``models.err_stack``."""
    stack = np.zeros((len(models), width, width))
    for j, model in enumerate(models):
        stack[j, :model.n, :model.n] = model.precision_matrix
    return stack, [model.n for model in models]


def recorded_stack_calls(monkeypatch, edit=None):
    """A list that receives each ``err_stack`` call of validate's
    supermodularity suite as (models, owner, unobserved, scores): the GFFs
    whose edges ``random_gff_edges`` drew for the call, in stack order and
    each built by the public ``random_gff``, the call's owners and mask, and
    the scores the suite saw, which ``edit(models, owner, unobserved,
    scores)`` may change first. Each call's stack must hold its models'
    precisions, zero-padded to 10 x 10, bit for bit."""
    import gmrf_select.validate as validate_mod

    true_edges, true_stack = validate_mod.random_gff_edges, validate_mod.err_stack
    drawn, calls = [], []

    def drawing_edges(n, density, resistance_range, seed):
        assert resistance_range == (0.5, 2.0)   # random_gff's default
        drawn.append(random_gff(n, density=density, seed=seed))
        return true_edges(n, density, resistance_range, seed)

    def recording_stack(precisions, ns, owner, unobserved):
        models = drawn[:]
        drawn.clear()
        stack, sizes = padded(models)
        assert precisions.tobytes() == stack.tobytes() and list(ns) == sizes
        scores = true_stack(precisions, ns, owner, unobserved)
        if edit is not None:
            edit(models, owner, unobserved, scores)
        calls.append((models, owner, unobserved, scores))
        return scores

    monkeypatch.setattr(validate_mod, "random_gff_edges", drawing_edges)
    monkeypatch.setattr(validate_mod, "err_stack", recording_stack)
    return calls
