"""Tree decompositions in the normalized form the message-passing DP expects:
every non-leaf cluster has degree exactly 3, the last cluster is empty and is a
leaf, m >= n, and a valid elimination order is stored as a witness.

Also: the PACE-style file format, a balanced decomposition constructor for
trees (width <= 5, logarithmic height) built from recursive separators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDecomposition, InvariantViolation, ParseError
from .models import adjacency, search, tree_adjacency


@dataclass(frozen=True)
class TreeDecomposition:
    """Normalized tree decomposition.

    ``clusters[t]`` is a frozenset of 1-based graph vertices; cluster indices
    are 0-based with the empty cluster last. ``tree_edges`` are unordered pairs
    of cluster indices. ``elimination_order`` lists all graph vertices, first
    eliminated first.
    """

    n: int
    clusters: tuple[frozenset, ...]
    tree_edges: tuple[tuple[int, int], ...]
    elimination_order: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.clusters)

    @property
    def width(self) -> int:
        return max((len(c) for c in self.clusters), default=1) - 1

    @property
    def root(self) -> int:
        """Index of the empty leaf cluster the messages flow toward."""
        return self.m - 1

    @property
    def height(self) -> int:
        """Longest cluster-to-root path, in edges."""
        depth = {}
        for v, p in search(adjacency(range(self.m), self.tree_edges), [self.root]).items():
            depth[v] = 0 if p is None else depth[p] + 1
        return max(depth.values())


def validate_axioms(clusters, tree_edges, n, graph_edges):
    """Check the decomposition axioms against the graph; raise InvalidDecomposition."""
    m = len(clusters)
    for a, b in tree_edges:
        if not (0 <= a < m and 0 <= b < m) or a == b:
            raise InvalidDecomposition(f"bad tree edge ({a}, {b})")
    if len(tree_edges) != m - 1:
        raise InvalidDecomposition(
            f"{len(tree_edges)} tree edges for {m} clusters; a tree needs {m - 1}")
    adj = adjacency(range(m), tree_edges)
    if len(search(adj, [0])) != m:
        raise InvalidDecomposition("cluster tree is disconnected")
    covered = set().union(*clusters) if clusters else set()
    missing = set(range(1, n + 1)) - covered
    if missing:
        raise InvalidDecomposition(f"vertices {sorted(missing)} in no cluster")
    if covered - set(range(1, n + 1)):
        raise InvalidDecomposition(
            f"cluster vertices {sorted(covered - set(range(1, n + 1)))} outside 1..{n}")
    for (u, v) in graph_edges:
        if not any(u in c and v in c for c in clusters):
            raise InvalidDecomposition(f"graph edge ({u}, {v}) inside no cluster")
    # running intersection: the clusters holding v induce a connected subtree
    for v in range(1, n + 1):
        holding = {t for t in range(m) if v in clusters[t]}
        if search(adj, [min(holding)], holding).keys() != holding:
            raise InvalidDecomposition(
                f"clusters containing vertex {v} do not form a subtree")


def _leaf_strip_order(clusters, tree_edges) -> tuple[int, ...]:
    """Elimination order: repeatedly strip a smallest-index leaf cluster and
    eliminate the vertices private to it."""
    m = len(clusters)
    adj = adjacency(range(m), tree_edges)
    alive = set(range(m))
    order = []
    while len(alive) > 1:
        leaf = min(t for t in alive if len(adj[t]) <= 1)
        parent = next(iter(adj[leaf]))
        order.extend(sorted(v for v in clusters[leaf]
                            if v not in clusters[parent] and v not in order))
        adj[parent].discard(leaf)
        adj[leaf].clear()
        alive.discard(leaf)
    last = alive.pop()
    order.extend(sorted(v for v in clusters[last] if v not in order))
    return tuple(order)


def normalize(clusters, tree_edges, n, graph_edges) -> TreeDecomposition:
    """Bring a valid decomposition into normalized form: binary internal degree,
    empty leaf cluster last, m >= n, elimination-order witness attached.
    Cluster duplication never changes the width. The input is checked against
    the axioms; the output is normalized by construction and not re-checked."""
    clusters = [frozenset(c) for c in clusters]
    tree_edges = [tuple(e) for e in tree_edges]
    validate_axioms(clusters, tree_edges, n, graph_edges)

    adj = adjacency(range(len(clusters)), tree_edges)

    def new_cluster(content, attach_to):
        t = len(clusters)
        clusters.append(frozenset(content))
        adj[t] = {attach_to}
        adj[attach_to].add(t)
        return t

    # split clusters of degree > 3 into chains of duplicates
    pending = [t for t in adj if len(adj[t]) > 3]
    while pending:
        t = pending.pop()
        while len(adj[t]) > 3:
            moved = sorted(adj[t])[2:]
            dup = len(clusters)
            clusters.append(clusters[t])
            adj[dup] = set()
            for nb in moved:
                adj[t].discard(nb)
                adj[nb].discard(t)
                adj[nb].add(dup)
                adj[dup].add(nb)
            adj[t].add(dup)
            adj[dup].add(t)
            t = dup

    # attach the empty cluster, preferring a degree-2 host
    hosts = [t for t in adj if len(adj[t]) == 2]
    if hosts:
        host = min(hosts)
    elif len(clusters) == 1:
        host = 0
    else:
        host = min(t for t in adj if len(adj[t]) == 1)
    empty = new_cluster((), host)

    # non-leaf degree-2 clusters get a twin leaf; a twin changes no other
    # cluster's degree, so one pass over the clusters present now suffices
    for t in [t for t in sorted(adj) if len(adj[t]) == 2]:
        new_cluster(clusters[t], t)

    # pad until m >= n: turn a non-empty leaf into an internal cluster with two twins
    while len(clusters) < n:
        leaf = min(t for t in adj if len(adj[t]) == 1 and t != empty)
        new_cluster(clusters[leaf], leaf)
        new_cluster(clusters[leaf], leaf)

    # reindex so the empty cluster is last
    order_idx = [t for t in range(len(clusters)) if t != empty] + [empty]
    remap = {old: new for new, old in enumerate(order_idx)}
    out_clusters = tuple(clusters[old] for old in order_idx)
    out_edges = tuple(sorted((min(remap[a], remap[b]), max(remap[a], remap[b]))
                             for a in adj for b in adj[a] if a < b))

    return TreeDecomposition(n, out_clusters, out_edges,
                             _leaf_strip_order(out_clusters, out_edges))


# ---------------------------------------------------------------------------
# PACE-style file format
# ---------------------------------------------------------------------------

def read_td_text(text: str):
    """Parse `s td m width+1 n` (each count >= 1), bag lines `b i v1 ...`, and
    edge lines `i j`.
    Returns (clusters 0-based list, tree edges 0-based, n)."""
    header = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate 's td' header")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"line {lineno}: malformed header {raw!r}")
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field")
            if min(header) < 1:
                raise ParseError(f"line {lineno}: invalid dimensions m={header[0]} "
                                 f"width+1={header[1]} n={header[2]}")
        elif parts[0] == "b":
            if header is None:
                raise ParseError(f"line {lineno}: bag before 's td' header")
            try:
                idx = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except (ValueError, IndexError):
                raise ParseError(f"line {lineno}: malformed bag line {raw!r}")
            if idx in bags:
                raise ParseError(f"line {lineno}: duplicate bag {idx}")
            bags[idx] = frozenset(verts)
        else:
            if header is None:
                raise ParseError(f"line {lineno}: edge before 's td' header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed edge line {raw!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge {raw!r}")
            if a == b or not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ParseError(f"line {lineno}: tree edge {raw!r} does not join "
                                 f"two different bags of 1..{header[0]}")
            edges.append((a, b))
    if header is None:
        raise ParseError("missing 's td' header")
    m, width_plus_1, n = header
    if set(bags) != set(range(1, m + 1)):
        raise ParseError(f"bag indices {sorted(bags)} != 1..{m}")
    actual = max((len(b) for b in bags.values()), default=0)
    if actual > width_plus_1:
        raise ParseError(
            f"declared width+1 = {width_plus_1} but a bag has {actual} vertices")
    clusters = [bags[i] for i in range(1, m + 1)]
    zero_edges = [(a - 1, b - 1) for a, b in edges]
    return clusters, zero_edges, n


def write_td_text(td: TreeDecomposition) -> str:
    lines = [f"s td {td.m} {td.width + 1} {td.n}"]
    for t, c in enumerate(td.clusters, start=1):
        lines.append("b " + " ".join([str(t)] + [str(v) for v in sorted(c)]))
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_and_normalize(text: str, model) -> TreeDecomposition:
    """Parse a PACE-style decomposition's text and normalize it for the model's
    graph."""
    clusters, edges, n = read_td_text(text)
    if n != model.n:
        raise InvalidDecomposition(f"decomposition is for n = {n}, model has n = {model.n}")
    return normalize(clusters, edges, model.n, model.graph_edges())


# ---------------------------------------------------------------------------
# balanced decompositions for trees
# ---------------------------------------------------------------------------

def balance_for_tree(n: int, edges) -> TreeDecomposition:
    """Balanced decomposition of a tree: width <= 5 (actually <= 2), height
    logarithmic in n, in normalized form.

    Recursive vertex separators: each piece carries at most 2 boundary
    vertices; the separator joins the bag with the boundary, and the remaining
    components are packed into two child pieces of balanced size.
    """
    adj = tree_adjacency(n, edges)
    clusters: list[frozenset] = []
    tree_links: list[tuple[int, int]] = []

    def components_without(piece: set, c: int) -> list[set]:
        comps = []
        left = piece - {c}
        while left:
            comp = set(search(adj, [min(left)], left))
            comps.append(comp)
            left -= comp
        return comps

    def path_between(piece: set, a: int, b: int) -> list[int]:
        # the path in a tree is unique, so any search's parent map yields it
        prev = search(adj, [a], piece)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path

    def build(piece: set, boundary: frozenset) -> int:
        if len(piece) <= 3:
            clusters.append(frozenset(piece))
            return len(clusters) - 1
        if len(boundary) == 2:
            b1, b2 = sorted(boundary)
            candidates = path_between(piece, b1, b2)
        else:
            candidates = sorted(piece)
        best = None
        for c in sorted(candidates):
            comps = components_without(piece, c)
            if len(comps) < 2:
                continue
            worst = max(len(x) for x in comps)
            if best is None or (worst, c) < best[:2]:
                best = (worst, c, comps)
        _, c, comps = best
        groups: list[list[set]] = [[], []]
        sizes = [0, 0]
        # a boundary has at most 2 vertices and c lies on the path between
        # them, so each boundary vertex but c seeds a group with its component
        seeds = [next(x for x in comps if b in x) for b in sorted(boundary - {c})]
        for slot, comp in enumerate(seeds):
            groups[slot].append(comp)
            sizes[slot] += len(comp)
        rest = [x for x in comps if all(x is not s for s in seeds)]
        for comp in sorted(rest, key=lambda x: (-len(x), min(x))):
            slot = 0 if sizes[0] <= sizes[1] else 1
            groups[slot].append(comp)
            sizes[slot] += len(comp)
        node = len(clusters)
        clusters.append(frozenset(boundary | {c}))
        for grp in groups:
            sub_piece = set().union(*grp) | {c}
            sub_boundary = frozenset((boundary & sub_piece) | {c})
            child = build(sub_piece, sub_boundary)
            tree_links.append((node, child))
        return node

    build(set(range(1, n + 1)), frozenset())
    td = normalize(clusters, tree_links, n, edges)
    if td.width > 5:
        raise InvariantViolation(f"balanced decomposition width {td.width} > 5")
    bound = 2 * math.ceil(math.log(2 * n) / math.log(5.0 / 4.0))
    if td.height > bound:
        raise InvariantViolation(
            f"balanced decomposition height {td.height} exceeds {bound}")
    return td
