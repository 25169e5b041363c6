"""Two-mode case-provider network construction and one-mode projection.

Within one time segment, providers who were involved in a case are
linked to that case (two-mode). ``build_bipartite`` returns the two-mode
graph as the sorted tuple of its provider ids and a 0/1 incidence matrix
B in CSR form (``csr.Csr``), one row per case and one column per
provider. Removing the case nodes and connecting providers who share at
least one case yields the one-mode co-worker graph: the nonzeros off the
diagonal of B^T B (Borgatti & Everett 1997). They are found from each
case's provider pairs (``Csr.row_pairs``), each distinct pair kept once
(``csr.from_pairs``), rather than multiplied out. The projection is
unweighted: repeated collaborations collapse to one edge, and how many
cases a pair shares is not kept. The same B gives each segment's
case-side counts (``summarize``, which keys every descriptive by the
name the run's artifacts give it) and, in ``centrality``, its team sizes
and means. The co-worker graph holds its adjacency as one ``csr.Csr`` and
labels its own connected components from it, each node with the least
node index in its component.
"""

import numpy as np

from . import csr


class CoworkerGraph:
    """Undirected simple graph over provider ids.

    Nodes are kept sorted and the adjacency is held as one ``csr.Csr``
    with sorted neighbor lists, so iteration order (and everything
    derived from it) is deterministic. Built from a list of edges or
    projected from a segment's B, it is made from index pairs of linked
    nodes by one builder, and keeps only its nodes, its adjacency and,
    once asked, its component labels.
    """

    def __init__(self, nodes, edges):
        nodes = tuple(sorted(set(nodes)))
        index = {u: i for i, u in enumerate(nodes)}
        try:
            ends = np.array([(index[u], index[v]) for u, v in edges],
                            dtype=np.int32).reshape(-1, 2)
        except KeyError as e:
            raise ValueError(f"edge end {e.args[0]!r} is not a node") from None
        loops = ends[:, 0] == ends[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on {nodes[ends[loops][0, 0]]!r}")
        self._build(nodes, ends[:, 0], ends[:, 1])

    def _build(self, nodes, u, v):
        """Hold sorted ``nodes`` linked at each index pair of ``zip(u, v)``,
        in either orientation, repeats allowed."""
        self.nodes = nodes
        # both directions
        self._adjacency = csr.from_pairs(
            (len(nodes),) * 2, np.concatenate([u, v]), np.concatenate([v, u]))
        self._labels = None

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return self._adjacency.nnz // 2

    def degrees(self):
        """Raw degree per node, aligned with ``self.nodes``."""
        return np.diff(self._adjacency.indptr)

    def adjacency(self):
        """The symmetric 0/1 adjacency matrix as a ``csr.Csr``.

        Rows and columns are aligned with ``self.nodes``, and each row's
        columns are sorted. It is the matrix the graph holds, the same
        object on every call, so callers must not modify it in place.
        """
        return self._adjacency

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
            rows, cols = self._adjacency.rows(), self._adjacency.indices
            low = np.arange(self.n_nodes)
            while True:
                new = low.copy()
                np.minimum.at(new, low[rows], low[cols])
                new = new[new]
                if np.array_equal(new, low):
                    break
                low = new
            self._labels = low
        return self._labels

    def edges(self):
        """Edges as sorted (u, v) id pairs, u < v, in lexicographic order."""
        rows, cols = self._adjacency.rows(), self._adjacency.indices
        upper = cols > rows
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
            yield self.nodes[i], self.nodes[j]

    def __repr__(self):
        return f"CoworkerGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def build_bipartite(segment):
    """Two-mode network of one segment: each case links to its providers.

    Returns ``(providers, B)``. B is the segment's rows of its case
    table's case x provider matrix, keeping the columns of the providers
    that occur in them: row r is the segment's r-th case, column j is
    ``providers[j]`` (sorted), and each row's column indices are sorted,
    i.e. the case's providers in id order.
    """
    team = segment.cases.team
    used, columns = np.unique(team.indices, return_inverse=True)
    providers = tuple(segment.cases.provider_ids[j] for j in used.tolist())
    return providers, csr.Csr(team.indptr, columns, used.size)


def project_one_mode(providers, incidence) -> CoworkerGraph:
    """Project the two-mode graph ``build_bipartite`` returns onto providers.

    Each case's provider set becomes a clique; the result is the union of
    those cliques as a simple graph, the off-diagonal nonzeros of B^T B.
    Each row of ``incidence`` lists a column at most once. Providers who
    share no case stay as isolated nodes.
    """
    g = CoworkerGraph.__new__(CoworkerGraph)
    g._build(providers, *incidence.row_pairs())
    return g


def summarize(g: CoworkerGraph, incidence) -> dict:
    """Whole-graph descriptives of a segment's projection ``g`` and its
    incidence matrix B, keyed by the names ``segments.json`` and the
    manifest give them: the case count (B's rows), mean team size (B's
    nonzeros per row), the cases with a member among the degree-0 nodes,
    mean degree, density, and the nodes in one-node components and outside
    the largest component, from the graph's ``component_labels``. Counts
    are ints and the rest floats."""
    n, m = g.n_nodes, g.n_edges
    n_cases = incidence.shape[0]
    sizes = np.bincount(g.component_labels(), minlength=1)
    return {
        "nodes": n,
        "edges": m,
        "cases": n_cases,
        "avg_team_size": incidence.nnz / n_cases if n_cases else 0.0,
        "avg_degree": (2.0 * m / n) if n else 0.0,
        "density": (2.0 * m / (n * (n - 1))) if n >= 2 else 0.0,
        "isolated_nodes": int(np.count_nonzero(sizes == 1)),
        "outside_largest_component": n - int(sizes.max()),
        "isolated_provider_cases": int(np.count_nonzero(
            incidence @ (g.degrees() == 0).astype(float))),
    }
