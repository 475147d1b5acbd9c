"""Workload definitions: seeded model files and the request pass of each
workload.

Every input is drawn from ``numpy.random.default_rng([seed, slot])`` and
written in the program's file formats; the program sees only the files. The
same seed gives byte-identical files. See README.md for why each workload is
shaped the way it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from check import err, parse_model

# Tree shapes for dp-tree, as (n, shape seed). The DP's state count depends on
# the tree's shape, not on its numbers: over random trees with n = 16..18 it
# ranges from 260 to 9,200 states (0.3 s to 12 s). Fixed shapes keep the work
# of a pass the same on every seed while the seed draws the resistances and
# couplings. These shapes give 540-720 states (0.6-1.0 s solves when this was
# written, on a 2-vCPU x86 VM), so a run fits the benchmark's time limit;
# heavier shapes exist and are left out only for time.
GFF_TREE_SHAPES = ((16, 8), (17, 2), (18, 0))
GMRF_TREE_SHAPES = ((12, 2), (14, 1))


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must satisfy."""

    name: str
    kind: str                       # one untimed warm-up runs per kind
    args: tuple[str, ...]           # CLI arguments; argv() appends --input
    model: str | None = None        # input file; None for `validate`
    budget: int | None = None
    alpha: float | None = None
    eval_set: tuple[int, ...] | None = None

    def argv(self, input_dir: str) -> list[str]:
        if self.model is None:
            return list(self.args)
        return [*self.args, "--input", f"{input_dir}/{self.model}"]

    @property
    def is_select(self) -> bool:
        return self.args[0] == "select"


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]           # file name -> model file text
    requests: tuple[Request, ...]   # one pass


# ---------------------------------------------------------------------------
# model generators
# ---------------------------------------------------------------------------

def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


def recursive_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    return [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]


def sparse_graph(n: int, density: float, rng: np.random.Generator):
    """Connected graph: a random recursive tree plus each other pair with
    probability ``density``."""
    pairs = recursive_tree(n, rng)
    present = set(pairs)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in present and rng.random() < density:
                pairs.append((u, v))
    return pairs


def partial_ktree(n: int, width: int, rng: np.random.Generator):
    """Edges of a random partial k-tree of the given width."""
    cliques = [tuple(range(1, width + 2))]
    edges = set(combinations(cliques[0], 2))
    for v in range(width + 2, n + 1):
        base = cliques[int(rng.integers(0, len(cliques)))]
        keep = sorted(rng.choice(len(base), size=width, replace=False))
        sub = tuple(base[t] for t in keep)
        edges.update((u, v) for u in sub)
        cliques.append(sub + (v,))
    return sorted(edges)


def gff_text(n: int, pairs, rng: np.random.Generator) -> str:
    """GFF file, pin 1, resistances log-uniform over a factor of 4 and scaled
    to geometric mean 1. err scales with the resistances, so the scaling keeps
    seed-to-seed changes in selection_err_mean to the graph's structure."""
    logs = rng.uniform(math.log(0.5), math.log(2.0), size=len(pairs))
    logs -= logs.mean()
    lines = [f"gff {n} {len(pairs)} 1"]
    for (u, v), x in zip(pairs, logs):
        lines.append(f"{u} {v} {math.exp(x):.12g}")
    return "\n".join(lines) + "\n"


def gmrf_text(n: int, pairs, rng: np.random.Generator, low: float) -> str:
    """Precision-matrix file: couplings +-U(low, 1) on ``pairs``, diagonal the
    absolute row sum plus U(low, 1), so the matrix is diagonally dominant and
    stays positive definite after printing at 12 significant digits. The
    matrix is scaled to mean diagonal 1, as gff_text scales resistances."""
    lam = np.zeros((n, n))
    for u, v in pairs:
        lam[u - 1, v - 1] = lam[v - 1, u - 1] = rng.uniform(low, 1.0) * rng.choice([-1.0, 1.0])
    lam[np.diag_indices(n)] = np.abs(lam).sum(axis=1) + rng.uniform(low, 1.0, size=n)
    lam /= np.diag(lam).mean()
    rows = [" ".join(f"{x:.12g}" for x in row) for row in lam]
    return "\n".join(["gmrf", f"{n} {n}", " ".join(str(i) for i in range(1, n + 1))]
                     + rows) + "\n"


# ---------------------------------------------------------------------------
# targets computed with the benchmark's own objective
# ---------------------------------------------------------------------------

def _candidates(model):
    return [v for v in range(1, model.n + 1) if v != model.pin]


def one_round_alpha(text: str) -> float:
    """A cover target that greedy reaches in exactly one round: the geometric
    mean of err with nothing selected and err after the best single vertex."""
    model = parse_model(text)
    start = err(model, [])
    best = min(err(model, [x]) for x in _candidates(model))
    return math.sqrt(start * best)


def cover_alpha(text: str, size: int) -> float:
    """A cover target whose smallest achiever has exactly ``size`` vertices:
    the geometric mean of the best errs at size - 1 and at size."""
    model = parse_model(text)
    cands = _candidates(model)
    best = [min(err(model, s) for s in combinations(cands, k)) for k in (size - 1, size)]
    return math.sqrt(best[0] * best[1])


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _greedy_files(seed: int) -> dict[str, str]:
    files = {}
    for slot, name in enumerate(("gff150-a.gff", "gff150-b.gff")):
        rng = _rng(seed, slot)
        files[name] = gff_text(150, sparse_graph(150, 0.01, rng), rng)
    for slot, name in enumerate(("gmrf120-a.gmrf", "gmrf120-b.gmrf", "gmrf120-c.gmrf"),
                                start=2):
        rng = _rng(seed, slot)
        files[name] = gmrf_text(120, partial_ktree(120, 3, rng), rng, low=0.1)
    return files


def greedy_large(seed: int) -> Workload:
    files = _greedy_files(seed)
    alpha = one_round_alpha(files["gff150-b.gff"])

    def gmrf(tag):
        return Request(f"gmrf120-budget-{tag}", "select greedy",
                       ("select", "greedy", "--budget", "4"),
                       model=f"gmrf120-{tag}.gmrf", budget=4)

    requests = (
        gmrf("a"),
        Request("gff150-budget", "select greedy", ("select", "greedy", "--budget", "1"),
                model="gff150-a.gff", budget=1),
        gmrf("b"),
        Request("gff150-cover", "select greedy", ("select", "greedy", "--alpha", repr(alpha)),
                model="gff150-b.gff", alpha=alpha),
        gmrf("c"),
    )
    return Workload(files, requests)


def dp_tree(seed: int) -> Workload:
    files, requests = {}, []
    for slot, (n, shape) in enumerate(GFF_TREE_SHAPES):
        name = f"tree{n}.gff"
        pairs = recursive_tree(n, np.random.default_rng(shape))
        files[name] = gff_text(n, pairs, _rng(seed, slot))
        requests.append(Request(f"dp-gff{n}", "select dp",
                                ("select", "dp", "--budget", "3", "--eps-prime", "0.1"),
                                model=name, budget=3))
    for slot, (n, shape) in enumerate(GMRF_TREE_SHAPES, start=len(GFF_TREE_SHAPES)):
        name = f"tree{n}.gmrf"
        pairs = recursive_tree(n, np.random.default_rng(shape))
        files[name] = gmrf_text(n, pairs, _rng(seed, slot), low=0.2)
        requests.append(Request(f"dp-gmrf{n}", "select dp",
                                ("select", "dp", "--budget", "2", "--eps-prime", "0.5",
                                 "--rounding", "svd"),
                                model=name, budget=2))
    # interleave the two model classes so no pass position is special
    order = (0, 3, 1, 4, 2)
    return Workload(files, tuple(requests[i] for i in order))


def oracle_small(seed: int) -> Workload:
    files = {"gff16.gff": gff_text(16, sparse_graph(16, 0.15, _rng(seed, 10)), _rng(seed, 11)),
             "gmrf16.gmrf": gmrf_text(16, partial_ktree(16, 2, _rng(seed, 12)),
                                      _rng(seed, 13), low=0.1)}
    big = _greedy_files(seed)
    files["gff150-a.gff"] = big["gff150-a.gff"]
    files["gmrf120-a.gmrf"] = big["gmrf120-a.gmrf"]
    pick = _rng(seed, 14)
    gff_set = tuple(sorted(int(v) for v in pick.choice(np.arange(2, 151), 10, replace=False)))
    gmrf_set = tuple(sorted(int(v) for v in pick.choice(np.arange(1, 121), 10, replace=False)))
    a_gff = cover_alpha(files["gff16.gff"], 3)
    a_gmrf = cover_alpha(files["gmrf16.gmrf"], 3)
    requests = (
        Request("exact-gff16-budget", "select exact", ("select", "exact", "--budget", "3"),
                model="gff16.gff", budget=3),
        Request("eval-gff150", "eval", ("eval", "--set", ",".join(map(str, gff_set))),
                model="gff150-a.gff", eval_set=gff_set),
        Request("exact-gmrf16-budget", "select exact", ("select", "exact", "--budget", "3"),
                model="gmrf16.gmrf", budget=3),
        # validate draws its own instances from its --seed and their cost
        # varies (1.5-2.4 s) with it, so that seed is fixed
        Request("validate", "validate", ("validate", "--trials", "10", "--seed", "0")),
        Request("exact-gff16-cover", "select exact", ("select", "exact", "--alpha", repr(a_gff)),
                model="gff16.gff", alpha=a_gff),
        Request("eval-gmrf120", "eval", ("eval", "--set", ",".join(map(str, gmrf_set))),
                model="gmrf120-a.gmrf", eval_set=gmrf_set),
        Request("exact-gmrf16-cover", "select exact", ("select", "exact", "--alpha", repr(a_gmrf)),
                model="gmrf16.gmrf", alpha=a_gmrf),
    )
    return Workload(files, requests)


WORKLOADS = {
    "greedy-large": greedy_large,
    "dp-tree": dp_tree,
    "oracle-small": oracle_small,
}
