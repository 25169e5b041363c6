"""Two-mode construction, one-mode projection, and the graph container."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from conftest import case_table, make_case
from surgnet.records import Segment
from surgnet.network import (
    CoworkerGraph,
    build_bipartite,
    project_one_mode,
    summarize,
)


def seg(cases, index=1, start=0, end=365):
    return Segment(index=index, start_day=start, end_day_exclusive=end,
                   cases=case_table(cases))


def links(providers, b, case_ids):
    """The (case_id, provider_id) links of B; row r is ``case_ids[r]``."""
    return {(case_ids[r], providers[j]) for r in range(b.shape[0])
            for j in b.indices[b.indptr[r]:b.indptr[r + 1]].tolist()}


def test_bipartite_links_each_case_to_its_providers():
    s = seg([make_case("c1", providers=("a", "b")),
             make_case("c2", providers=("b", "c"))])
    providers, b = build_bipartite(s)
    assert b.shape[0] == len(s.cases) == 2
    assert providers == ("a", "b", "c")
    assert links(providers, b, s.cases.case_id) == {
        ("c1", "a"), ("c1", "b"), ("c2", "b"), ("c2", "c")}


def test_projection_makes_clique_per_case():
    s = seg([make_case("c1", providers=("a", "b", "c"))])
    g = project_one_mode(*build_bipartite(s))
    assert g.nodes == ("a", "b", "c")
    assert list(g.edges()) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_projection_collapses_repeats():
    s = seg([make_case("c1", providers=("a", "b")),
             make_case("c2", providers=("a", "b")),
             make_case("c3", providers=("b", "c"))])
    g = project_one_mode(*build_bipartite(s))
    assert g.n_edges == 2
    assert list(g.edges()) == [("a", "b"), ("b", "c")]


def test_solo_provider_is_isolated_node():
    s = seg([make_case("c1", providers=("a",)),
             make_case("c2", providers=("b", "c"))])
    g = project_one_mode(*build_bipartite(s))
    assert g.nodes == ("a", "b", "c")
    assert list(g.degrees()) == [0, 1, 1]
    assert g.n_nodes == 3 and g.n_edges == 1


def test_graph_container_invariants():
    g = CoworkerGraph(["d", "b", "a", "c"], [("d", "a"), ("b", "a")])
    assert g.nodes == ("a", "b", "c", "d")
    assert list(g.edges()) == [("a", "b"), ("a", "d")]
    assert list(g.degrees()) == [2, 1, 0, 1]
    adj = g.adjacency()
    assert [adj.row(i).tolist() for i in range(4)] == [[1, 3], [0], [], [0]]
    assert "n_nodes=4" in repr(g)


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        CoworkerGraph(["a"], [("a", "a")])


@pytest.mark.parametrize("edge", [("a", "c"), ("c", "a")])
def test_graph_rejects_an_edge_to_an_unknown_node(edge):
    with pytest.raises(ValueError, match="'c' is not a node"):
        CoworkerGraph(["a", "b"], [edge])


def test_graph_deduplicates_edges_either_orientation():
    g = CoworkerGraph(["a", "b"], [("a", "b"), ("b", "a")])
    assert g.n_edges == 1


def test_graph_construction_is_input_order_independent():
    rng = np.random.default_rng(3)
    nodes = [f"p{i}" for i in range(12)]
    edges = [(u, v) for u, v in itertools.combinations(nodes, 2)
             if rng.uniform() < 0.4]
    shuffled = [(v, u) for u, v in reversed(edges)]
    rng.shuffle(shuffled)
    a = CoworkerGraph(reversed(nodes), shuffled)
    b = CoworkerGraph(nodes, edges)
    assert a.nodes == b.nodes
    assert np.array_equal(a.adjacency().indptr, b.adjacency().indptr)
    assert np.array_equal(a.adjacency().indices, b.adjacency().indices)


def test_summarize_hand_computed():
    s = seg([make_case("c1", providers=("a", "b", "c")),
             make_case("c2", providers=("c", "d"))])
    providers, b = build_bipartite(s)
    info = summarize(project_one_mode(providers, b), b)
    assert info["nodes"] == 4
    assert info["edges"] == 4
    assert info["cases"] == 2
    assert info["avg_team_size"] == pytest.approx(2.5)
    assert info["avg_degree"] == pytest.approx(2.0)
    assert info["density"] == pytest.approx(4 / 6)


def test_summarize_empty_segment():
    providers, b = build_bipartite(seg([]))
    info = summarize(project_one_mode(providers, b), b)
    assert (info["nodes"], info["edges"], info["cases"]) == (0, 0, 0)
    assert info["avg_team_size"] == info["avg_degree"] == info["density"] == 0.0
    assert info["isolated_nodes"] == info["outside_largest_component"] == 0
    assert info["isolated_provider_cases"] == 0


def test_summarize_counts_components():
    # components of 3, 2 and 1 nodes
    s = seg([make_case("c1", providers=("a", "b", "c")),
             make_case("c2", providers=("d", "e")),
             make_case("c3", providers=("f",))])
    providers, b = build_bipartite(s)
    info = summarize(project_one_mode(providers, b), b)
    assert info["isolated_nodes"] == 1
    assert info["outside_largest_component"] == 3
    assert info["isolated_provider_cases"] == 1


def test_projection_equals_union_of_cliques_on_random_segments():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_cases = int(rng.integers(1, 12))
        pool = [f"p{i}" for i in range(int(rng.integers(2, 15)))]
        cases = []
        for k in range(n_cases):
            size = int(rng.integers(1, min(6, len(pool)) + 1))
            team = rng.choice(pool, size=size, replace=False)
            cases.append(make_case(f"c{k}", providers=tuple(team)))
        # solo cases of providers who work with nobody else: isolated nodes
        solos = [f"solo{k}" for k in range(int(rng.integers(0, 3)))]
        cases += [make_case(f"s{p}", providers=(p,)) for p in solos]
        s = seg(cases)
        providers, b = build_bipartite(s)
        g = project_one_mode(providers, b)

        expected_edges = set()
        for c in cases:
            expected_edges |= set(itertools.combinations(sorted(c.providers), 2))
        expected_nodes = set().union(*(c.providers for c in cases))

        assert set(g.nodes) == expected_nodes
        edges = set(g.edges())
        assert edges == expected_edges
        for c in cases:  # each team really is a clique
            for u, v in itertools.combinations(sorted(c.providers), 2):
                assert (u, v) in edges
        degree = dict(zip(g.nodes, g.degrees().tolist()))
        for p in solos:
            assert degree[p] == 0
        # the incidence rows: each case's team in provider-id order
        for r, c in enumerate(cases):
            row = b.indices[b.indptr[r]:b.indptr[r + 1]]
            assert [providers[j] for j in row] == sorted(c.providers)
        assert links(providers, b, s.cases.case_id) == {
            (c.case_id, p) for c in cases for p in c.providers}
        # the case-side counts, from B, against the case records
        info = summarize(g, b)
        assert info["cases"] == len(cases)
        assert info["avg_team_size"] == pytest.approx(
            sum(len(c.providers) for c in cases) / len(cases))
        alone = expected_nodes - {p for u, v in expected_edges for p in (u, v)}
        assert info["isolated_provider_cases"] == sum(
            1 for c in cases if c.providers & alone)


def assert_labels_match_csgraph(g):
    """``component_labels`` names each component by its least node index:
    csgraph's labels, renumbered by each component's first node."""
    n, adj = g.n_nodes, g.adjacency()
    a = sparse.csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr),
                          shape=(n, n))
    oracle = csgraph.connected_components(a, directed=False)[1]
    first = np.unique(oracle, return_index=True)[1]
    np.testing.assert_array_equal(g.component_labels(), first[oracle])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), data=st.data())
@example(n=0, data=None)  # the empty graph
@example(n=5, data=None)  # isolated nodes only
def test_component_labels_match_csgraph(n, data):
    ends = st.integers(0, max(n - 1, 0))
    edges = [] if data is None or n < 2 else data.draw(st.lists(
        st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    assert_labels_match_csgraph(CoworkerGraph(range(n), edges))


def test_component_labels_of_pairs_and_isolated_nodes():
    g = CoworkerGraph(range(7), [(5, 0), (2, 6), (3, 4)])
    assert g.component_labels().tolist() == [0, 1, 2, 3, 3, 0, 2]
    assert_labels_match_csgraph(g)


def _structured(shape, n):
    """Edges of a 20 000-node path, grid, star or caterpillar over node
    indices 0..n-1, in natural order."""
    i = np.arange(n)
    if shape == "path":
        return np.column_stack([i[:-1], i[1:]])
    if shape == "grid":  # 100 x 200, row-major
        right = i[(i + 1) % 200 != 0]
        return np.vstack([np.column_stack([right, right + 1]),
                          np.column_stack([i[:-200], i[200:]])])
    if shape == "star":
        return np.column_stack([np.zeros(n - 1, dtype=int), i[1:]])
    spine = i[:n // 2]  # caterpillar: a path with one leg per spine node
    return np.vstack([np.column_stack([spine[:-1], spine[1:]]),
                      np.column_stack([spine, spine + n // 2])])


@pytest.mark.parametrize("shape", ["path", "grid", "star", "caterpillar"])
def test_component_labels_on_large_structured_graphs(shape):
    # in random node order a component's least node sits anywhere in it,
    # and a path's labels must travel its whole length
    n = 20_000
    order = np.random.default_rng(0).permutation(n)
    edges = order[_structured(shape, n)]
    g = CoworkerGraph(range(n), edges.tolist())
    assert g.n_edges == len(edges)
    assert_labels_match_csgraph(g)
    assert (g.component_labels() == 0).all()
