import math

import numpy as np
import pytest

from gmrf_select import decomposition
from gmrf_select.decomposition import (
    TreeDecomposition,
    balance_for_tree,
    normalize,
    parse_and_normalize,
    read_td_text,
    validate_axioms,
    write_td_text,
)
from gmrf_select.errors import InvalidDecomposition, NotATree, ParseError
from gmrf_select.models import adjacency, random_gff, search

from conftest import unit_path
from oracles import check_elimination_order


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def test_search_parent_map():
    # two components, {1..5} and {6, 7}; edges may carry a weight
    adj = adjacency(range(1, 8), [(1, 2, 0.5), (2, 3, 1.0), (2, 4, 1.0), (4, 5, 2.0),
                                  (6, 7, 1.0)])
    parent = search(adj, [1])
    assert set(parent) == {1, 2, 3, 4, 5}
    assert parent == {1: None, 2: 1, 3: 2, 4: 2, 5: 4}
    keys = list(parent)
    for v, p in parent.items():
        assert p is None or keys.index(p) < keys.index(v)
    both = search(adj, [6, 3])
    assert set(both) == set(range(1, 8))
    assert both[6] is None and both[3] is None
    inside = search(adj, [1], within={1, 2, 4, 5})
    assert inside == {1: None, 2: 1, 4: 2, 5: 4}
    assert search(adj, [3], within=set()) == {3: None}


def assert_normalized(td: TreeDecomposition, graph_edges):
    validate_axioms(td.clusters, td.tree_edges, td.n, graph_edges)
    adj = adjacency(range(td.m), td.tree_edges)
    assert not td.clusters[td.root]
    assert len(adj[td.root]) == 1
    for nb in adj.values():
        assert len(nb) in (0, 1, 3)
    assert td.m >= td.n
    check_elimination_order(td.elimination_order, td.n, graph_edges, td.clusters)


class TestNormalize:
    def test_path_chain(self):
        edges = path_edges(4)
        td = normalize([{1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2)], 4, edges)
        assert td.width == 1
        assert_normalized(td, edges)

    def test_single_cluster_k3(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        td = normalize([{1, 2, 3}], [], 3, edges)
        assert td.width == 2
        assert_normalized(td, edges)

    def test_missing_edge_rejected(self):
        with pytest.raises(InvalidDecomposition):
            normalize([{1, 2}, {3, 4}], [(0, 1)], 4, path_edges(4))

    def test_missing_vertex_rejected(self):
        with pytest.raises(InvalidDecomposition):
            normalize([{1, 2}], [], 3, [(1, 2)])

    @pytest.mark.parametrize("link", [(0, 0), (0, 2), (-1, 0)])
    def test_bad_tree_edge_rejected(self, link):
        # a Python caller's 0-based cluster indices; a PACE file's edges are
        # checked in the file's own 1-based numbering before they get here
        with pytest.raises(InvalidDecomposition,
                           match=rf"^bad tree edge \({link[0]}, {link[1]}\)$"):
            normalize([{1, 2}, {2, 3}], [link], 3, path_edges(3))

    def test_disconnected_cluster_tree_rejected(self):
        # m - 1 = 2 tree edges, but one is repeated, so cluster 2 is cut off
        with pytest.raises(InvalidDecomposition, match="cluster tree is disconnected"):
            normalize([{1, 2}, {2, 3}, {3}], [(0, 1), (0, 1)], 3, path_edges(3))

    def test_broken_running_intersection(self):
        # vertex 2 appears in two clusters that are not adjacent
        with pytest.raises(InvalidDecomposition):
            normalize([{1, 2}, {3}, {2, 3}],
                      [(0, 1), (1, 2)], 3, [(1, 2), (2, 3)])
        # only vertex 1's clusters are split; every other vertex's are adjacent
        with pytest.raises(InvalidDecomposition) as info:
            normalize([{1, 2}, {2, 3}, {1, 3}], [(0, 1), (1, 2)], 3, [(1, 2), (2, 3), (1, 3)])
        assert str(info.value) == "clusters containing vertex 1 do not form a subtree"

    def test_high_degree_cluster_binarized(self):
        # star decomposition: center bag adjacent to 5 leaf bags
        edges = [(1, v) for v in range(2, 7)]
        clusters = [{1}] + [{1, v} for v in range(2, 7)]
        links = [(0, t) for t in range(1, 6)]
        td = normalize(clusters, links, 6, edges)
        assert_normalized(td, edges)

    def test_width_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            g = random_gff(n, density=0.0, seed=int(rng.integers(1 << 30)))
            edges = g.graph_edges()
            clusters = [frozenset(e) for e in edges] or [frozenset({1, 2})]
            # chain the edge bags in a path (valid for trees after sorting by dfs)
            td = balance_for_tree(n, edges)
            assert td.width <= 5
            assert_normalized(td, edges)


class TestEliminationOrder:
    def test_order_is_permutation(self):
        td = balance_for_tree(9, path_edges(9))
        assert sorted(td.elimination_order) == list(range(1, 10))

    def test_bad_order_detected(self):
        edges = path_edges(4)
        td = normalize([{1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2)], 4, edges)
        # eliminating an interior vertex first would need a {1,2,3} cluster
        with pytest.raises(InvalidDecomposition):
            check_elimination_order((2, 1, 3, 4), 4, edges, td.clusters)


class TestBalanceForTree:
    def test_long_path_height(self):
        n = 1024
        td = balance_for_tree(n, path_edges(n))
        bound = 2 * math.ceil(math.log(2 * n) / math.log(5.0 / 4.0))
        assert td.height <= bound
        assert td.width <= 5

    def test_star(self):
        n = 64
        edges = [(1, v) for v in range(2, n + 1)]
        td = balance_for_tree(n, edges)
        assert td.width <= 5
        assert td.height <= 2 * math.ceil(math.log(2 * n) / math.log(5.0 / 4.0))
        assert_normalized(td, edges)

    def test_two_nodes(self):
        td = balance_for_tree(2, [(1, 2)])
        assert td.width <= 1
        assert_normalized(td, [(1, 2)])

    def test_caterpillar_and_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 80))
            edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
            td = balance_for_tree(n, edges)
            assert td.width <= 5
            assert td.height <= 2 * math.ceil(math.log(2 * n) / math.log(5.0 / 4.0))
            assert_normalized(td, edges)

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            balance_for_tree(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(NotATree):
            balance_for_tree(4, [(1, 2), (3, 4), (1, 2)])
        with pytest.raises(NotATree, match="graph is disconnected"):
            balance_for_tree(4, [(1, 2), (2, 3), (1, 3)])
        for bad in (5, 0):
            with pytest.raises(NotATree, match=rf"edge \(2, {bad}\) outside 1..3"):
                balance_for_tree(3, [(1, 2), (2, bad)])


class TestPaceFormat:
    def test_round_trip(self):
        td = balance_for_tree(12, path_edges(12))
        text = write_td_text(td)
        clusters, edges, n = read_td_text(text)
        assert n == 12
        assert [frozenset(c) for c in td.clusters] == clusters
        back = normalize(clusters, edges, 12, path_edges(12))
        assert back.width == td.width

    def test_parse_and_normalize_for_model(self):
        g = unit_path(6)
        td = balance_for_tree(6, g.graph_edges())
        back = parse_and_normalize(write_td_text(td), g)
        assert_normalized(back, g.graph_edges())

    def test_comment_and_blank_lines_skipped(self):
        text = "c made by hand\n\ns td 2 2 3\nc bags\nb 1 1 2\nb 2 2 3\n\n1 2\n"
        assert read_td_text(text) == ([{1, 2}, {2, 3}], [(0, 1)], 3)

    def test_header_errors(self):
        with pytest.raises(ParseError):
            read_td_text("b 1 1 2\n")                 # bag before header
        with pytest.raises(ParseError):
            read_td_text("s td 1 2\n")                # short header
        with pytest.raises(ParseError):
            read_td_text("s td 2 2 3\nb 1 1 2\n")     # missing bag 2

    def test_width_mismatch(self):
        text = "s td 2 2 3\nb 1 1 2 3\nb 2 2 3\n1 2\n"
        with pytest.raises(ParseError, match=r"^declared width\+1 = 2 but a bag has 3 vertices$"):
            read_td_text(text)

    def test_model_size_mismatch(self):
        g = unit_path(4)
        text = "s td 1 2 3\nb 1 1 2\n"
        with pytest.raises(InvalidDecomposition):
            parse_and_normalize(text, g)


def sweep_trees():
    """(n, edges) of 500 random trees, half of them relabeled, then a path, a
    star and a caterpillar (a path with legs) for every n in 2..40."""
    rng = np.random.default_rng(11)
    for t in range(500):
        n = int(rng.integers(2, 60))
        edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        if t % 2:
            label = [0] + [int(x) + 1 for x in rng.permutation(n)]
            edges = [(label[u], label[v]) for u, v in edges]
        yield n, edges
    for n in range(2, 41):
        spine = max(1, n // 3)
        yield n, path_edges(n)
        yield n, [(1, v) for v in range(2, n + 1)]
        yield n, path_edges(spine) + [(int(rng.integers(1, spine + 1)), v)
                                      for v in range(spine + 1, n + 1)]


def sweep_decompositions():
    """(clusters, tree_edges, n, graph_edges) of 250 valid decompositions:
    random cluster trees whose first clusters tend to have degree > 3, each
    vertex held by a random connected set of clusters, graph edges drawn
    inside clusters; every fifth input is a single bag."""
    rng = np.random.default_rng(12)
    for t in range(250):
        n = int(rng.integers(1, 12))
        m = 1 if t % 5 == 0 else int(rng.integers(2, 12))
        links = [(int(rng.integers(0, min(v, 3))), v) for v in range(1, m)]
        adj = adjacency(range(m), links)
        clusters = [set() for _ in range(m)]
        for v in range(1, n + 1):
            held = {int(rng.integers(0, m))}
            for _ in range(int(rng.integers(0, 4))):
                held.add(int(rng.choice(sorted(set().union(*(adj[c] for c in held)) | held))))
            for c in held:
                clusters[c].add(v)
        graph_edges = sorted({(u, v) for c in clusters for u in c for v in c
                              if u < v and rng.random() < 0.5})
        yield clusters, links, n, graph_edges


@pytest.fixture
def axiom_checks(monkeypatch):
    """The clusters of every validate_axioms call made by the package, as
    they were at the call."""
    calls = []
    monkeypatch.setattr(decomposition, "validate_axioms",
                        lambda *args: calls.append(tuple(args[0])) or validate_axioms(*args))
    return calls


# normalize checks its input once and trusts its own output; these sweeps
# check every output instead


def test_balance_for_tree_sweep(axiom_checks):
    count = 0
    for n, edges in sweep_trees():
        td = balance_for_tree(n, edges)
        assert len(axiom_checks) == 1
        axiom_checks.clear()
        assert_normalized(td, edges)
        count += 1
    assert count >= 500 + 3 * 39


def test_normalize_sweep(axiom_checks):
    high_degree = single = 0
    for clusters, links, n, graph_edges in sweep_decompositions():
        degrees = [len(nb) for nb in adjacency(range(len(clusters)), links).values()]
        high_degree += max(degrees) > 3
        single += len(clusters) == 1
        td = normalize(clusters, links, n, graph_edges)
        assert axiom_checks == [tuple(frozenset(c) for c in clusters)]
        axiom_checks.clear()
        assert_normalized(td, graph_edges)
        assert td.width == max(len(c) for c in clusters) - 1
    assert high_degree >= 20 and single == 50


def test_height_and_separators():
    td = normalize([{1, 2}, {2, 3}], [(0, 1)], 3, [(1, 2), (2, 3)])
    # separator of the original adjacent bags
    pairs = [(a, b) for a, b in td.tree_edges]
    seps = [td.clusters[a] & td.clusters[b] for a, b in pairs]
    assert any(s == frozenset({2}) for s in seps)
    assert td.height >= 1
