"""Node-level network measures against fixtures and independent oracles."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from conftest import case_table, coworker_graph, make_case
from surgnet import centrality
from surgnet.csr import Csr
from surgnet.errors import DataError
from surgnet.centrality import (
    betweenness_centrality,
    closeness_centrality,
    clustering_coefficient,
    compute_all,
    connected_components,
    degree_centrality,
    eigenvector_centrality,
    team_aggregate,
)
from surgnet.network import build_bipartite, project_one_mode
from surgnet.records import Segment


def measures(g, **kwargs):
    """compute_all's columns, each keyed by provider id."""
    columns = compute_all(g, **kwargs)
    ids = columns.pop("provider_id")
    return {name: dict(zip(ids, column.tolist()))
            for name, column in columns.items()}


def graph(edges, extra_nodes=()):
    nodes = set(extra_nodes)
    for u, v in edges:
        nodes |= {u, v}
    return coworker_graph(nodes, edges)


STAR5 = graph([("hub", "s1"), ("hub", "s2"), ("hub", "s3"), ("hub", "s4")])
PATH4 = graph([("a", "b"), ("b", "c"), ("c", "d")])
K4 = graph([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
# K4 on {a,b,c,d} with a pendant e attached to d
KITE = graph([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
              ("c", "d"), ("d", "e")])


def test_star_fixture():
    m = measures(STAR5)
    hub, leaf = "hub", "s1"
    assert (m["degree"][hub] == 1.0 and m["betweenness"][hub] == 1.0
            and m["closeness"][hub] == 1.0)
    assert m["eigenvector"][hub] == pytest.approx(1.0, abs=1e-10)
    assert m["clustering"][hub] == 0.0
    assert m["degree"][leaf] == 0.25 and m["betweenness"][leaf] == 0.0
    assert m["closeness"][leaf] == pytest.approx(4 / 7)
    assert m["eigenvector"][leaf] == pytest.approx(0.5, abs=1e-8)


def test_path_fixture():
    m = measures(PATH4)
    # ends reach {1, 2, 3} -> closeness 3/6 * 1; middles reach {1, 1, 2}
    assert m["closeness"]["a"] == pytest.approx(0.5)
    assert m["closeness"]["b"] == pytest.approx(0.75)
    # b lies on a-c, a-d; normalization (n-1)(n-2)/2 = 3
    assert m["betweenness"]["b"] == pytest.approx(2 / 3)
    assert m["betweenness"]["a"] == 0.0
    # leading eigenvector of P4 peaks on the middle nodes; ends carry
    # 1/phi of the peak (phi the golden ratio, the leading eigenvalue)
    assert m["eigenvector"]["a"] == pytest.approx(2 / (1 + np.sqrt(5)),
                                                  abs=1e-8)
    assert m["eigenvector"]["b"] == pytest.approx(1.0, abs=1e-10)


def test_complete_graph_fixture():
    m = measures(K4)
    for v in "abcd":
        assert m["degree"][v] == 1.0
        assert m["betweenness"][v] == 0.0
        assert m["closeness"][v] == 1.0
        assert m["eigenvector"][v] == pytest.approx(1.0, abs=1e-10)
        assert m["clustering"][v] == 1.0


def test_kite_fixture():
    m = measures(KITE)
    # d separates e from {a,b,c}: raw pair-dependency 3, normalized by 6
    assert m["betweenness"]["d"] == pytest.approx(0.5)
    assert m["betweenness"]["a"] == 0.0
    assert m["clustering"]["e"] == 0.0
    assert m["clustering"]["d"] == pytest.approx(3 / 6)
    assert m["clustering"]["a"] == pytest.approx(1.0)
    assert m["eigenvector"]["d"] == pytest.approx(1.0, abs=1e-10)


def test_triangle_clustering_and_open_triples():
    g = graph([("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")])
    cc = clustering_coefficient(g)
    assert cc["a"] == pytest.approx(1 / 3)
    assert cc["b"] == pytest.approx(1.0)
    assert cc["d"] == 0.0


def test_disconnected_closeness_is_component_corrected():
    # triangle {a,b,c} plus pair {x,y}: n = 5
    g = graph([("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")])
    cl = closeness_centrality(g)
    assert cl["a"] == pytest.approx((2 / 2) * (2 / 4))
    assert cl["x"] == pytest.approx((1 / 1) * (1 / 4))


def test_isolated_node_gets_zeros():
    g = graph([("a", "b")], extra_nodes=["z"])
    m = measures(g)
    assert [m[name]["z"] for name in centrality.COLUMNS[1:]] == \
        [0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_eigenvector_zero_outside_largest_component():
    # component {a,b,c,d} (larger) and {x,y}
    g = graph([("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")])
    ev = eigenvector_centrality(g)
    assert max(ev[v] for v in "abcd") == pytest.approx(1.0, abs=1e-10)
    assert ev["x"] == 0.0 and ev["y"] == 0.0


def test_eigenvector_component_tie_goes_to_smallest_label():
    # two K2s of equal size; {a,b} contains the smallest node id
    g = graph([("a", "b"), ("x", "y")])
    ev = eigenvector_centrality(g)
    assert ev["a"] == pytest.approx(1.0, abs=1e-10)
    assert ev["b"] == pytest.approx(1.0, abs=1e-10)
    assert ev["x"] == 0.0


def test_tiny_graphs():
    empty = coworker_graph([], [])
    assert measures(empty) == {name: {} for name in centrality.COLUMNS[1:]}
    single = graph([], extra_nodes=["a"])
    m = measures(single)
    assert [m[name]["a"] for name in ("degree", "betweenness", "closeness",
                                      "clustering")] == [0, 0, 0, 0]
    pair = graph([("a", "b")])
    m = measures(pair)
    # n < 3: normalization undefined, so 0
    assert m["betweenness"]["a"] == 0.0
    assert m["closeness"]["a"] == 1.0
    assert m["degree"]["a"] == 1.0


def test_compute_all_columns_follow_the_node_table_header():
    columns = compute_all(KITE)
    assert tuple(columns) == centrality.COLUMNS == (
        "provider_id", "degree_raw", "degree", "betweenness", "closeness",
        "eigenvector", "clustering")
    assert columns["provider_id"] is KITE.nodes
    assert columns["degree_raw"].dtype == np.int64
    assert columns["degree_raw"].tolist() == KITE.degrees().tolist()
    for name in centrality.COLUMNS[2:]:
        assert columns[name].dtype == np.float64
        assert columns[name].shape == (KITE.n_nodes,)


def test_connected_components_order():
    g = graph([("m", "n"), ("a", "b"), ("b", "c"), ("x", "y")])
    comps = connected_components(g)
    assert comps[0] == frozenset({"a", "b", "c"})  # largest first
    assert set(comps[1]) | set(comps[2]) == {"m", "n", "x", "y"}
    assert comps[1] == frozenset({"m", "n"})  # ties: earliest node id


def test_degree_normalization():
    deg = degree_centrality(STAR5)
    assert deg["hub"] == (4, 1.0)
    assert deg["s2"] == (1, 0.25)


def test_random_graphs_match_oracles():
    rng = np.random.default_rng(20240521)
    for _ in range(300):
        nodes, edges = oracles.random_edge_set(rng, max_nodes=7)
        g = coworker_graph(nodes, edges)
        m = measures(g)

        bc = oracles.betweenness_by_enumeration(nodes, edges)
        cl = oracles.closeness_by_floyd_warshall(nodes, edges)
        cc = oracles.clustering_by_triples(nodes, edges)
        ev = oracles.eigenvector_by_eigh(nodes, edges)
        dg = oracles.degree_by_counting(nodes, edges)
        for v in g.nodes:
            assert m["betweenness"][v] == pytest.approx(bc[v], abs=1e-12)
            assert m["closeness"][v] == pytest.approx(cl[v], abs=1e-12)
            assert m["clustering"][v] == pytest.approx(cc[v], abs=1e-12)
            assert m["eigenvector"][v] == pytest.approx(ev[v], abs=1e-8)
            assert m["degree"][v] == pytest.approx(dg[v], abs=1e-12)


def test_medium_random_graph_matches_oracles():
    rng = np.random.default_rng(99)
    nodes = [f"p{i:02d}" for i in range(40)]
    edges = [(nodes[i], nodes[j])
             for i in range(40) for j in range(i + 1, 40) if rng.uniform() < 0.08]
    g = coworker_graph(nodes, edges)
    m = compute_all(g)
    cl = oracles.closeness_by_floyd_warshall(nodes, edges)
    cc = oracles.clustering_by_triples(nodes, edges)
    ev = oracles.eigenvector_by_eigh(nodes, edges)
    assert_allclose(m["closeness"], [cl[v] for v in g.nodes], atol=1e-12)
    assert_allclose(m["clustering"], [cc[v] for v in g.nodes], atol=1e-12)
    assert_allclose(m["eigenvector"], [ev[v] for v in g.nodes], atol=1e-8)


def test_multi_block_graph_matches_oracles():
    # a disjoint union with more nodes than one BFS source block: a 60-node
    # path, isolated nodes and small random components, labelled in
    # shuffled order so components straddle block boundaries
    rng = np.random.default_rng(314)
    labels = iter(f"p{i:03d}" for i in rng.permutation(1000))
    nodes, edges = [], []
    path = [next(labels) for _ in range(60)]
    nodes += path
    edges += list(zip(path, path[1:]))
    nodes += [next(labels) for _ in range(20)]
    while len(nodes) < 420:
        sub_nodes, sub_edges = oracles.random_edge_set(rng, max_nodes=7)
        rename = {u: next(labels) for u in sub_nodes}
        nodes += rename.values()
        edges += [(rename[u], rename[v]) for u, v in sub_edges]
    g = coworker_graph(nodes, edges)
    assert g.n_nodes > centrality._BLOCK_CELLS // g.n_nodes

    bc = betweenness_centrality(g)
    cl = closeness_centrality(g)
    bc_ref = oracles.betweenness_by_enumeration(nodes, edges)
    cl_ref = oracles.closeness_by_floyd_warshall(nodes, edges)
    assert_allclose([bc[v] for v in g.nodes], [bc_ref[v] for v in g.nodes],
                    rtol=0, atol=1e-12)
    assert_allclose([cl[v] for v in g.nodes], [cl_ref[v] for v in g.nodes],
                    rtol=0, atol=1e-12)
    # both count neighbor links as integers over k(k-1)/2
    cc = clustering_coefficient(g)
    cc_ref = oracles.clustering_by_triples(nodes, edges)
    assert [cc[v] for v in g.nodes] == [cc_ref[v] for v in g.nodes]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(1, 12),
       shape=st.sampled_from(["random", "complete", "empty"]),
       isolated=st.integers(0, 3), block_cells=st.integers(1, 64))
@example(seed=0, max_nodes=1, shape="empty", isolated=0, block_cells=1)
@example(seed=1, max_nodes=9, shape="complete", isolated=2, block_cells=20)
def test_compute_all_equals_standalone_measures(seed, max_nodes, shape,
                                                isolated, block_cells):
    # small block heights make the sources of one graph span several blocks
    nodes, edges = oracles.random_edge_set(np.random.default_rng(seed),
                                           max_nodes=max_nodes)
    if shape == "complete":
        edges = list(itertools.combinations(nodes, 2))
    elif shape == "empty":
        edges = []
    nodes += [f"z{i}" for i in range(isolated)]
    g = coworker_graph(nodes, edges)
    with mock.patch.object(centrality, "_BLOCK_CELLS", block_cells):
        m = measures(g)
        dg = degree_centrality(g)
        bc = betweenness_centrality(g)
        cl = closeness_centrality(g)
        ev = eigenvector_centrality(g)
        cc = clustering_coefficient(g)
    assert [tuple(m[name][v] for name in centrality.COLUMNS[1:])
            for v in g.nodes] == \
        [(*dg[v], bc[v], cl[v], ev[v], cc[v]) for v in g.nodes]
    cc_ref = oracles.clustering_by_triples(nodes, edges)
    assert [cc[v] for v in g.nodes] == [cc_ref[v] for v in g.nodes]


# one component of a generated graph: its kind and size (or, for a random
# component, the seed of oracles.random_edge_set)
_COMPONENT = st.one_of(
    st.tuples(st.just("complete"), st.integers(2, 6)),
    st.tuples(st.just("path"), st.integers(2, 9)),
    st.tuples(st.just("isolated"), st.integers(1, 3)),
    st.tuples(st.just("random"), st.integers(0, 2**32 - 1)),
)


def _disjoint_union(components, order_seed):
    """Nodes and edges of the components side by side, with node labels
    shuffled so that components interleave in the graph's node order."""
    parts = []
    for kind, arg in components:
        if kind == "random":
            sub_nodes, sub_edges = oracles.random_edge_set(
                np.random.default_rng(arg), max_nodes=7)
            where = {u: i for i, u in enumerate(sub_nodes)}
            parts.append((len(sub_nodes),
                          [(where[u], where[v]) for u, v in sub_edges]))
        elif kind == "complete":
            parts.append((arg, list(itertools.combinations(range(arg), 2))))
        elif kind == "path":
            parts.append((arg, [(i, i + 1) for i in range(arg - 1)]))
        elif kind == "diamonds":
            # joints 0..arg; diamond i has sides arg+1+2i and arg+2+2i
            parts.append((3 * arg + 1, [
                (joint, side) for i in range(arg)
                for side in (arg + 1 + 2 * i, arg + 2 + 2 * i)
                for joint in (i, i + 1)]))
        elif kind == "dense":
            rng = np.random.default_rng(arg)
            size = int(rng.integers(10, 41))
            parts.append((size, [
                (i, j) for i, j in itertools.combinations(range(size), 2)
                if rng.uniform() < 0.3]))
        else:
            parts.extend((1, []) for _ in range(arg))
    total = sum(size for size, _ in parts)
    labels = [f"v{i:03d}" for i in np.random.default_rng(order_seed)
              .permutation(total)]
    nodes, edges, offset = [], [], 0
    for size, local in parts:
        nodes += labels[offset:offset + size]
        edges += [(labels[offset + i], labels[offset + j]) for i, j in local]
        offset += size
    return nodes, edges


@settings(max_examples=150, deadline=None)
@given(components=st.lists(_COMPONENT, min_size=1, max_size=5),
       order_seed=st.integers(0, 2**32 - 1), block_cells=st.integers(1, 64))
# a diameter-1 and a diameter-4 component sharing one block
@example(components=[("complete", 3), ("path", 5)], order_seed=0,
         block_cells=64)
@example(components=[("complete", 6)], order_seed=0, block_cells=64)
@example(components=[("isolated", 3)], order_seed=0, block_cells=1)
@example(components=[("path", 9), ("isolated", 2), ("complete", 2)],
         order_seed=3, block_cells=30)
def test_block_stop_rule_matches_oracles(components, order_seed, block_cells):
    # a block stops once its sources have covered their components, so
    # components of different diameters in one block must all finish
    nodes, edges = _disjoint_union(components, order_seed)
    g = coworker_graph(nodes, edges)
    with mock.patch.object(centrality, "_BLOCK_CELLS", block_cells):
        m = compute_all(g)
    bc = oracles.betweenness_by_enumeration(nodes, edges)
    cl = oracles.closeness_by_floyd_warshall(nodes, edges)
    cc = oracles.clustering_by_triples(nodes, edges)
    assert_allclose(m["betweenness"], [bc[v] for v in g.nodes],
                    rtol=0, atol=1e-12)
    assert_allclose(m["closeness"], [cl[v] for v in g.nodes],
                    rtol=0, atol=1e-12)
    assert m["clustering"].tolist() == [cc[v] for v in g.nodes]


# _COMPONENT's kinds and deep ones: long paths and chains of diamonds,
# whose path counts double at every diamond, and denser random graphs
_DEEP_COMPONENT = st.one_of(
    _COMPONENT,
    st.tuples(st.just("path"), st.integers(10, 40)),
    st.tuples(st.just("diamonds"), st.integers(1, 30)),
    st.tuples(st.just("dense"), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=100, deadline=None)
@given(components=st.lists(_DEEP_COMPONENT, min_size=1, max_size=4),
       order_seed=st.integers(0, 2**32 - 1),
       block_cells=st.one_of(st.integers(1, 512),
                             st.just(centrality._BLOCK_CELLS)),
       count_type=st.sampled_from([None, np.int32]))
# a chain of 60 diamonds counts up to 2**60 paths, past 2**53, above
# which float64 no longer holds every integer
@example(components=[("diamonds", 60), ("isolated", 2)], order_seed=0,
         block_cells=centrality._BLOCK_CELLS, count_type=None)
@example(components=[("dense", 1), ("path", 30), ("complete", 4)],
         order_seed=5, block_cells=64, count_type=None)
def test_integer_pass_equals_the_float64_reference_bit_for_bit(
        components, order_seed, block_cells, count_type):
    # count_type int32 runs the pass of graphs past 32 767 nodes
    nodes, edges = _disjoint_union(components, order_seed)
    a, labels = centrality._labelled(coworker_graph(nodes, edges))
    least = centrality._count_type
    with mock.patch.object(centrality, "_BLOCK_CELLS", block_cells), \
            mock.patch.object(centrality, "_count_type",
                              side_effect=lambda n: count_type or least(n)):
        got = centrality._geodesic_measures(a, labels)
    want = oracles.geodesic_measures_float64(a, labels, block_cells)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_count_type_is_the_least_that_holds_n():
    assert [centrality._count_type(n) for n in (0, 2**15 - 1, 2**15)] == \
        [np.int16, np.int16, np.int32]


def _products_per_pass(g, block_cells):
    """Sparse products one BFS pass over ``g`` makes."""
    with mock.patch.object(centrality, "_BLOCK_CELLS", block_cells), \
            mock.patch.object(Csr, "__matmul__", autospec=True,
                              side_effect=Csr.__matmul__) as product:
        centrality._geodesic_measures(*centrality._labelled(g))
    return product.call_count


def test_bfs_pass_makes_only_the_products_it_uses():
    # complete tripartite K(3,3,3): connected, every node at eccentricity
    # 2, with triangles; 9 nodes in blocks of 2 sources make 5 blocks
    parts = [[f"{side}{i}" for i in range(3)] for side in "abc"]
    tripartite = graph([(u, v) for p, q in itertools.combinations(parts, 2)
                        for u in p for v in q])
    assert _products_per_pass(tripartite, 2 * 9) == 2 * 5
    # level 1 is read from A and isolated sources have nothing to extend
    assert _products_per_pass(graph([], extra_nodes="xyz"), 1) == 0
    # a complete graph still makes the level-2 product, for its triangles
    assert _products_per_pass(K4, 4 * 4) == 1
    # one block of a 7-node path: an end reaches depth L = 6
    path = graph([(f"p{i}", f"p{i + 1}") for i in range(6)])
    assert _products_per_pass(path, 1 << 17) == 2 * (6 - 1)


def test_path_count_overflow_is_a_data_error():
    # each diamond doubles the shortest paths from the chain end, so 1030
    # of them take the count from that end past float64's 2**1024
    joints = [f"j{i:04d}" for i in range(1031)]
    edges = [(end, f"s{i:04d}{side}") for i in range(1030) for side in "ab"
             for end in joints[i:i + 2]]
    g = coworker_graph(joints + sorted({v for _, v in edges}), edges)
    assert (g.n_nodes, g.n_edges, g.nodes[0]) == (3091, 4120, "j0000")
    # one source per block: block 0 is the chain end alone
    with mock.patch.object(centrality, "_BLOCK_CELLS", g.n_nodes):
        with pytest.raises(DataError, match="path counts overflow"):
            compute_all(g)


def test_sparse_clustering_path_agrees_with_dense():
    # a 2100-node sparse graph against neighbor-pair counting
    rng = np.random.default_rng(5)
    n = 2100
    nodes = [f"p{i}" for i in range(n)]
    idx = rng.integers(0, n, size=(6000, 2))
    edges = [(nodes[i], nodes[j]) for i, j in idx if i != j]
    g = coworker_graph(nodes, edges)
    cc = clustering_coefficient(g)
    sample = rng.choice(n, size=40, replace=False)
    order, adj = oracles.adjacency(nodes, set(g.edges()))
    for k in sample:
        v = g.nodes[k]
        nbrs = sorted(adj[v])
        if len(nbrs) < 2:
            expected = 0.0
        else:
            links = sum(1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
                        if nbrs[j] in adj[nbrs[i]])
            expected = links / (len(nbrs) * (len(nbrs) - 1) / 2)
        assert cc[v] == pytest.approx(expected, abs=1e-12)


def test_metric_ranges_on_random_graph():
    rng = np.random.default_rng(17)
    nodes = [f"p{i}" for i in range(60)]
    edges = [(nodes[i], nodes[j])
             for i in range(60) for j in range(i + 1, 60) if rng.uniform() < 0.1]
    m = compute_all(coworker_graph(nodes, edges))
    for name in centrality.TEAM_MEASURES:
        assert m[name].min() >= 0.0 and m[name].max() <= 1.0


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_dense_segment_allocates_only_what_its_graph_and_blocks_need():
    # 5 000 cases of 2-6 providers each among 1 200: a connected graph of
    # mean degree 58, 3 hops deep from its first node. It has fewer
    # adjacency entries than a block has cells, so the sweep's arrays, not
    # a product's all-ones values, set the peak of the measures.
    rng = np.random.default_rng(9)
    n = 1200
    sizes = rng.integers(2, 7, size=5000)
    teams = [np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]
    b = Csr(np.concatenate([[0], np.cumsum(sizes)]), np.concatenate(teams), n)
    g, peak = _traced_peak(project_one_mode, tuple(range(n)), b)
    pairs, entries = int((sizes * (sizes - 1) // 2).sum()), g.adjacency().nnz
    # The projection expands the clique pairs with int64 positions (36
    # bytes a pair), then holds their ends and both directions of them as
    # int32 (24 bytes a pair) while the distinct keys, split into rows and
    # columns, take 12 bytes an adjacency entry. An int64 count per entry
    # would add 8 bytes an entry, and counting them 16 more.
    assert peak <= max(36 * pairs, 24 * pairs + 12 * entries) + (256 << 10)
    # as in a run, the components are labelled first (by summarize)
    g.component_labels()
    _, peak = _traced_peak(compute_all, g)
    cells = n * (centrality._BLOCK_CELLS // n)
    assert entries < cells
    # A block's sweep holds sigma, delta, W and the product in float64,
    # dist in int16 and one mask: 35 bytes a cell; the product's all-ones
    # values take 8 bytes an adjacency entry, and the node vectors fit in
    # 256 KiB. An int32 dist would add 2 bytes a cell, and a sweep that
    # made its temporaries again at least 8.
    assert peak <= 35 * cells + 8 * entries + (256 << 10)


def test_team_aggregate_averages_member_metrics():
    m = measures(KITE)
    case = make_case("c1", providers=("a", "d", "e"))
    team = team_aggregate(case, compute_all(KITE))
    assert team.case_id == "c1"
    assert team.team_size == 3
    assert team.avg_degree == pytest.approx(
        (m["degree"]["a"] + m["degree"]["d"] + m["degree"]["e"]) / 3)
    assert team.avg_betweenness == pytest.approx(
        (0.0 + m["betweenness"]["d"] + 0.0) / 3)
    assert team.avg_closeness == pytest.approx(
        (m["closeness"]["a"] + m["closeness"]["d"] + m["closeness"]["e"]) / 3)
    assert team.avg_eigenvector == pytest.approx(
        (m["eigenvector"]["a"] + m["eigenvector"]["d"]
         + m["eigenvector"]["e"]) / 3)
    assert team.avg_clustering == pytest.approx((1.0 + 0.5 + 0.0) / 3)


def test_team_aggregate_missing_provider_raises():
    m = compute_all(STAR5)
    with pytest.raises(DataError, match="ghost"):
        team_aggregate(make_case(providers=("hub", "ghost")), m)


def test_incidence_team_means_equal_team_aggregate_exactly():
    rng = np.random.default_rng(23)
    pool = [f"p{i}" for i in range(30)]
    for _ in range(20):
        cases = [make_case(f"c{k}", providers=tuple(rng.choice(
                     pool, size=int(rng.integers(1, 8)), replace=False)))
                 for k in range(int(rng.integers(1, 40)))]
        seg = Segment(index=1, start_day=0, end_day_exclusive=365,
                      cases=case_table(cases))
        providers, b = build_bipartite(seg)
        g = project_one_mode(providers, b)
        columns = compute_all(g)
        # B's columns are the graph's nodes, which the columns follow
        assert providers == columns["provider_id"]
        sizes, means = centrality.team_means(b, columns)
        m = measures(g)
        for case, k, row in zip(cases, sizes.tolist(), means.tolist()):
            team = team_aggregate(case, columns)
            assert (team.team_size, team.avg_betweenness, team.avg_closeness,
                    team.avg_eigenvector, team.avg_clustering,
                    team.avg_degree) == (k, *row)
            # the plain left-to-right sum over sorted provider ids
            team_ids = sorted(case.providers)
            assert row == [sum(m[name][p] for p in team_ids) / k
                           for name in centrality.TEAM_MEASURES]
