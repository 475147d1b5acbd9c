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


def random_pd_supported(rng, n_ambient, support, eig_range=(0.1, 10.0)):
    """Random PD SupportedMatrix with eigenvalues log-uniform in eig_range."""
    from gmrf_select.linalg import SupportedMatrix
    k = len(support)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eigs = np.exp(rng.uniform(np.log(eig_range[0]), np.log(eig_range[1]), size=k))
    block = (q * eigs) @ q.T
    return SupportedMatrix(n_ambient, tuple(support), 0.5 * (block + block.T))
