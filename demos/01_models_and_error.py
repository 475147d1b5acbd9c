# Build a Gaussian free field, evaluate the average prediction error of a
# chosen observation set three independent ways, and poke at the electrical
# analogy (conditional variance == effective resistance).

import numpy as np

from gmrf_select import (
    GffModel,
    conditional_variance,
    effective_resistance,
    err,
    laplacian,
)

# a 6-vertex GFF: a path 1..5 plus a shortcut, mixed resistances, pinned at 1
edges = [(1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0), (4, 5, 1.0), (2, 5, 1.5), (5, 6, 1.0)]
gff = GffModel(6, edges, pin=1)

lap = laplacian(gff)
print("Laplacian (rows sum to 0):")
print(np.array_str(lap, precision=3, suppress_small=True))

S = {1, 4}
print(f"\nobserving S = {sorted(S)} (the pin is always included)")
print("err via trace of the inverse complement:", err(gff, S))

unobserved = [v for v in gff.vertices if v not in S]
by_variance = sum(conditional_variance(gff, i, S) for i in unobserved) / gff.n
by_resistance = sum(effective_resistance(gff, i, S) for i in unobserved) / gff.n
print("err via conditional variances:        ", by_variance)
print("err via effective resistances:        ", by_resistance)

print("\nper-vertex detail (variance == resistance to the observed set):")
for i in unobserved:
    print(f"  vertex {i}: V[X_{i}|X_S] = {conditional_variance(gff, i, S):.6f}"
          f"   R_eff({i}, S) = {effective_resistance(gff, i, S):.6f}")

# observing everything predicts everything
print("\nerr with all vertices observed:", err(gff, set(gff.vertices)))
