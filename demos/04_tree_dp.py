# The message-passing dynamic program: balanced tree decompositions, both
# rounding schemes, and the measured approximation quality against exhaustive
# search.

import numpy as np

from gmrf_select import (
    GmrfModel,
    balance_for_tree,
    dp_select,
    exact_budget,
    parse_and_normalize,
    random_gff,
)
from gmrf_select.decomposition import normalize, write_td_text

print("== a GFF on a tree, element-wise rounding ==")
gff = random_gff(12, density=0.0, seed=42)   # density 0 -> spanning tree only
td = balance_for_tree(gff.n, gff.graph_edges())
print(f"  balanced decomposition: {td.m} clusters, width {td.width}, "
      f"height {td.height}")
for b in (1, 2, 3):
    sel = dp_select(gff, td, b, eps_prime=0.1)
    ex = exact_budget(gff, b)
    print(f"  b={b}: dp {sel.selected} err={sel.err_value:.5f}   "
          f"exact err={ex.err_value:.5f}   "
          f"ratio={sel.err_value / max(ex.err_value, 1e-300):.4f}")
print(f"  dp states materialized: {sel.details['sizing']}")

print("\n== a width-2 GMRF, SVD rounding, decomposition from a file ==")
rng = np.random.default_rng(3)
n = 7
edges = [(1, 2)] + [e for v in range(3, n + 1) for e in ((v - 2, v), (v - 1, v))]
lam = np.zeros((n, n))
for u, v in edges:
    val = float(rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
    lam[u - 1, v - 1] = lam[v - 1, u - 1] = val
lam[np.diag_indices(n)] = np.abs(lam).sum(axis=1) + rng.uniform(0.2, 1.0, n)
model = GmrfModel(lam)

bags = [{i, i + 1, i + 2} for i in range(1, n - 1)]
links = [(t, t + 1) for t in range(len(bags) - 1)]
td_text = write_td_text(normalize(bags, links, n, edges))
print("  PACE file:")
for line in td_text.splitlines()[:4]:
    print("   ", line)
print("    ...")

td2 = parse_and_normalize(td_text, model)
sel = dp_select(model, td2, 2, eps_prime=0.1)
ex = exact_budget(model, 2)
print(f"  b=2: dp {sel.selected} err={sel.err_value:.5f}   "
      f"exact {ex.selected} err={ex.err_value:.5f}")
print(f"  guarantee recorded on the report: factor {sel.guarantee.factor} "
      f"({sel.guarantee.source})")
