import numpy as np
import pytest

from gmrf_select.models import GffModel, GmrfModel

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


def padded(models, width=10):
    """The models' precisions zero-padded into one stack, and their n: the
    first two arguments of ``models.err_stack``."""
    stack = np.zeros((len(models), width, width))
    for j, model in enumerate(models):
        stack[j, :model.n, :model.n] = model.precision_matrix.block
    return stack, [model.n for model in models]


def recorded_stack_calls(monkeypatch, edit=None):
    """A list that receives each ``err_stack`` call of validate's
    supermodularity suite as (models, owner, unobserved, scores): the GFFs
    ``random_gff`` drew for the call, in stack order, the call's owners and
    mask, and the scores the suite saw, which ``edit(models, owner,
    unobserved, scores)`` may change first. Each call's stack must hold its
    models' precisions, zero-padded to 10 x 10."""
    import gmrf_select.validate as validate_mod

    true_gff, true_stack = validate_mod.random_gff, validate_mod.err_stack
    drawn, calls = [], []

    def drawing_gff(*args, **kwargs):
        drawn.append(true_gff(*args, **kwargs))
        return drawn[-1]

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

    monkeypatch.setattr(validate_mod, "random_gff", drawing_gff)
    monkeypatch.setattr(validate_mod, "err_stack", recording_stack)
    return calls
