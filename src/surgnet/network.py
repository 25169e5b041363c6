"""Two-mode case-provider network construction and one-mode projection.

Within one time segment, providers who were involved in a case are linked
to that case (two-mode). The two-mode graph is held as a sparse incidence
matrix B, one row per case and one column per provider. Removing the case
nodes and connecting providers who share at least one case yields the
one-mode co-worker graph: the off-diagonal of B^T B (Borgatti & Everett
1997), whose entries count the cases each pair shares. The projection is
unweighted: repeated collaborations collapse to one edge, with the
co-occurrence multiplicity kept only as edge metadata. The same B gives
each segment's case-side counts (``summarize``) and, in ``centrality``,
its team sizes and means. The co-worker graph labels its own connected
components from its CSR arrays, each node with the least node index in
its component.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Two-mode graph: edges only run between case nodes and provider nodes.

    ``incidence`` is the case x provider 0/1 matrix B in CSR form: row r
    is the segment's r-th case, column j is ``providers[j]`` (sorted), and
    each row's column indices are sorted, i.e. the case's providers in id
    order.
    """

    providers: tuple
    incidence: sparse.csr_matrix


class CoworkerGraph:
    """Undirected simple graph over provider ids.

    Nodes are kept sorted and adjacency is stored as CSR index arrays
    (scipy's int32 index type) with sorted neighbor lists, so iteration
    order (and everything derived from it) is deterministic. The CSR
    values, kept alongside, count how often each pair occurs.
    """

    def __init__(self, nodes, edges):
        nodes = tuple(sorted(set(nodes)))
        index = {u: i for i, u in enumerate(nodes)}
        ends = np.array([(index[u], index[v]) for u, v in edges],
                        dtype=np.int32).reshape(-1, 2)
        loops = ends[:, 0] == ends[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on {nodes[ends[loops][0, 0]]!r}")
        n = len(nodes)
        # both directions; a pair listed twice sums to a count of 2
        self._set(nodes, sparse.csr_matrix(
            (np.ones(2 * len(ends)), (ends.ravel(), ends[:, ::-1].ravel())),
            shape=(n, n)))

    @classmethod
    def _from_counts(cls, nodes, shared):
        """Graph on sorted ``nodes`` from a symmetric CSR matrix of pair
        counts with zero diagonal; its nonzeros are the edges."""
        g = cls.__new__(cls)
        g._set(nodes, shared)
        return g

    def _set(self, nodes, counts):
        counts.sort_indices()
        self.nodes = nodes
        self._index = {u: i for i, u in enumerate(nodes)}
        self.indptr = counts.indptr.astype(np.int32, copy=False)
        self.indices = counts.indices.astype(np.int32, copy=False)
        self._counts = counts.data
        self._labels = None

    @property
    def pair_counts(self):
        """``{(u, v): count}`` per edge, u < v: the cases the pair shares
        in a projected graph, the times the pair is listed in a graph
        built from edges. Ignored by all metrics."""
        rows, cols, at = self._upper()
        return {(self.nodes[i], self.nodes[j]): int(c) for i, j, c in zip(
            rows.tolist(), cols.tolist(), self._counts[at].tolist())}

    def _upper(self):
        """Row, column and position in ``indices`` of every stored entry
        above the diagonal: each edge once, in lexicographic order."""
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int32),
                         np.diff(self.indptr))
        at = np.flatnonzero(self.indices > rows)
        return rows[at], self.indices[at], at

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return self.indices.size // 2

    def degrees(self):
        """Raw degree per node, aligned with ``self.nodes``."""
        return np.diff(self.indptr)

    def adjacency(self):
        """The 0/1 adjacency matrix as a ``scipy.sparse.csr_matrix``.

        Symmetric, float64, rows and columns aligned with ``self.nodes``;
        it shares ``indptr`` and ``indices`` with the graph, so callers
        must not modify it in place.
        """
        n = self.n_nodes
        return sparse.csr_matrix(
            (np.ones(self.indices.size), self.indices, self.indptr), shape=(n, n))

    def component_labels(self):
        """Connected-component label per node, aligned with ``self.nodes``.

        A node's label is the least node index in its component. Each
        round hooks every root to the least root among its neighbours'
        roots, then points every node at its root's root, until a round
        changes nothing (Shiloach & Vishkin 1982). The graph is labelled
        on the first call only; every later call, from any measure,
        returns the same array, so callers must not modify it.
        """
        if self._labels is None:
            rows = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
            low = np.arange(self.n_nodes)
            while True:
                new = low.copy()
                np.minimum.at(new, low[rows], low[self.indices])
                new = new[new]
                if np.array_equal(new, low):
                    break
                low = new
            self._labels = low
        return self._labels

    def neighbors(self, node):
        i = self._index[node]
        return tuple(self.nodes[j] for j in self.indices[self.indptr[i]:self.indptr[i + 1]])

    def edges(self):
        """Edges as sorted (u, v) id pairs, u < v, in lexicographic order."""
        rows, cols, _ = self._upper()
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield self.nodes[i], self.nodes[j]

    def __contains__(self, node):
        return node in self._index

    def __repr__(self):
        return f"CoworkerGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class GraphSummary:
    """Whole-graph descriptives for one segment network."""

    node_count: int
    edge_count: int
    case_count: int
    avg_team_size: float
    avg_degree: float
    density: float
    isolated_nodes: int
    outside_largest_component: int
    isolated_provider_cases: int


def build_bipartite(segment) -> BipartiteGraph:
    """Two-mode network of one segment: each case links to its providers.

    B is the segment's rows of its case table's case x provider matrix,
    keeping the columns of the providers that occur in them.
    """
    cases = segment.cases
    used, columns = np.unique(cases.team, return_inverse=True)
    incidence = sparse.csr_matrix(
        (np.ones(columns.size), columns.astype(np.int32),
         cases.team_ptr.astype(np.int32)), shape=(len(cases), used.size))
    return BipartiteGraph(
        providers=tuple(cases.provider_ids[j] for j in used.tolist()),
        incidence=incidence)


def project_one_mode(bg: BipartiteGraph) -> CoworkerGraph:
    """Project the two-mode graph onto providers.

    Each case's provider set becomes a clique; the result is the union of
    those cliques as a simple graph, the off-diagonal nonzeros of B^T B.
    Its values, the number of cases each pair shares, are retained as
    ``pair_counts`` metadata. Providers who share no case stay as
    isolated nodes.
    """
    b = bg.incidence
    shared = (b.T @ b).tocsr()
    shared.setdiag(0)
    shared.eliminate_zeros()
    return CoworkerGraph._from_counts(bg.providers, shared)


def summarize(g: CoworkerGraph, incidence) -> GraphSummary:
    """Whole-graph descriptives of a segment's projection ``g`` and its
    incidence matrix B: the case count (B's rows), mean team size (B's
    nonzeros per row), the cases with a member among the degree-0 nodes,
    mean degree, density, and the nodes in one-node components and outside
    the largest component, from the graph's ``component_labels``."""
    n, m = g.n_nodes, g.n_edges
    n_cases = incidence.shape[0]
    sizes = np.bincount(g.component_labels(), minlength=1)
    return GraphSummary(
        node_count=n,
        edge_count=m,
        case_count=n_cases,
        avg_team_size=incidence.nnz / n_cases if n_cases else 0.0,
        avg_degree=(2.0 * m / n) if n else 0.0,
        density=(2.0 * m / (n * (n - 1))) if n >= 2 else 0.0,
        isolated_nodes=int(np.count_nonzero(sizes == 1)),
        outside_largest_component=n - int(sizes.max()),
        isolated_provider_cases=int(np.count_nonzero(
            incidence @ (g.degrees() == 0).astype(float))),
    )


def write_edge_list(g: CoworkerGraph, target):
    """Write the graph to the text stream ``target`` as tab-separated
    ``u<TAB>v`` lines, sorted."""
    for u, v in g.edges():
        target.write(f"{u}\t{v}\n")
