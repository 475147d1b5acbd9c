# Any tree GMRF is a rescaled GFF observed at auxiliary vertices: flip signs
# along the tree so couplings become attractive, absorb strict diagonal
# dominance into pendant vertices, and compare covariances.

import numpy as np

from gmrf_select import GmrfModel, laplacian, tree_gmrf_to_gff

# a 5-vertex tree with mixed-sign couplings (not diagonally dominant)
lam = np.array([
    [1.0, 0.7, 0.0, 0.0, 0.0],
    [0.7, 1.4, -0.6, 0.5, 0.0],
    [0.0, -0.6, 1.0, 0.0, 0.0],
    [0.0, 0.5, 0.0, 0.9, -0.4],
    [0.0, 0.0, 0.0, -0.4, 0.8]])
model = GmrfModel(lam)
print("precision (tree on 5 vertices, mixed signs):")
print(np.array_str(lam, precision=2, suppress_small=True))

w, gff, tail = tree_gmrf_to_gff(model)
print("\nscaling vector w:", np.array_str(w, precision=4))
print(f"GFF has {gff.n} vertices; auxiliary observed tail: {tail}")
print("GFF edges (u, v, resistance):")
for u, v, r in gff.edges:
    marker = "  <- auxiliary" if u in tail or v in tail else ""
    print(f"  ({u}, {v}, {r:.4f}){marker}")

# the conditional law of the GFF's first 5 variables given the tail must match
# (w_1 X_1, ..., w_5 X_5)
lap = laplacian(gff)
cond_cov = np.linalg.inv(lap[:5, :5])
scaled_cov = np.diag(w) @ model.covariance() @ np.diag(w)
gap = np.abs(cond_cov - scaled_cov).max()
print(f"\nmax |cov difference| = {gap:.2e}")
