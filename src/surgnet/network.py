"""Two-mode case-provider network construction and one-mode projection.

Within one time segment, providers who were involved in a case are linked
to that case (two-mode). Removing the case nodes and connecting providers
who share at least one case yields the one-mode co-worker graph. The
projection is unweighted: repeated collaborations collapse to one edge,
with the co-occurrence multiplicity kept only as edge metadata.
"""

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .records import Segment


@dataclass(frozen=True)
class BipartiteGraph:
    """Two-mode graph: edges only run between case nodes and provider nodes."""

    case_nodes: frozenset
    provider_nodes: frozenset
    edges: frozenset  # of (case_id, provider_id)


class CoworkerGraph:
    """Undirected simple graph over provider ids.

    Nodes are kept sorted and adjacency is stored as CSR index arrays
    (scipy's int32 index type) with sorted neighbor lists, so iteration
    order (and everything derived from it) is deterministic.
    """

    def __init__(self, nodes, edges, pair_counts=None):
        self.nodes = tuple(sorted(set(nodes)))
        self._index = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)

        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            i, j = self._index[u], self._index[v]
            seen.add((i, j) if i < j else (j, i))
        self._edge_pairs = sorted(seen)
        m = len(self._edge_pairs)

        # CSR over both directions
        if m:
            pairs = np.array(self._edge_pairs, dtype=np.int64)
            src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            self.indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
            self.indices = dst.astype(np.int32)
        else:
            self.indptr = np.zeros(n + 1, dtype=np.int32)
            self.indices = np.zeros(0, dtype=np.int32)

        # co-occurrence multiplicity; ignored by all metrics
        self.pair_counts = dict(pair_counts) if pair_counts else {}

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self._edge_pairs)

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

    def neighbors(self, node):
        i = self._index[node]
        return tuple(self.nodes[j] for j in self.indices[self.indptr[i]:self.indptr[i + 1]])

    def has_edge(self, u, v):
        i, j = self._index[u], self._index[v]
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = np.searchsorted(self.indices[lo:hi], j)
        return k < hi - lo and self.indices[lo + k] == j

    def edges(self):
        """Edges as sorted (u, v) id pairs, u < v, in lexicographic order."""
        for i, j in self._edge_pairs:
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


def build_bipartite(segment: Segment) -> BipartiteGraph:
    """Two-mode network of one segment: each case links to its providers."""
    edges = set()
    providers = set()
    for case in segment.cases:
        for pid in case.providers:
            edges.add((case.case_id, pid))
            providers.add(pid)
    return BipartiteGraph(
        case_nodes=frozenset(c.case_id for c in segment.cases),
        provider_nodes=frozenset(providers),
        edges=frozenset(edges),
    )


def project_one_mode(bg: BipartiteGraph) -> CoworkerGraph:
    """Project the two-mode graph onto providers.

    Each case's provider set becomes a clique; the result is the union of
    those cliques as a simple graph. The number of shared cases per pair
    is retained as ``pair_counts`` metadata.
    """
    members: dict = {c: [] for c in bg.case_nodes}
    for case_id, pid in bg.edges:
        members[case_id].append(pid)

    pair_counts: dict = {}
    for case_id in members:
        for u, v in itertools.combinations(sorted(members[case_id]), 2):
            pair_counts[(u, v)] = pair_counts.get((u, v), 0) + 1

    return CoworkerGraph(bg.provider_nodes, pair_counts.keys(), pair_counts)


def summarize(g: CoworkerGraph, segment: Segment) -> GraphSummary:
    """Whole-graph descriptives: counts, mean team size, mean degree, density."""
    n, m = g.n_nodes, g.n_edges
    n_cases = len(segment.cases)
    team_sizes = [len(c.providers) for c in segment.cases]
    return GraphSummary(
        node_count=n,
        edge_count=m,
        case_count=n_cases,
        avg_team_size=(sum(team_sizes) / n_cases) if n_cases else 0.0,
        avg_degree=(2.0 * m / n) if n else 0.0,
        density=(2.0 * m / (n * (n - 1))) if n >= 2 else 0.0,
    )


def write_edge_list(g: CoworkerGraph, target):
    """Write the graph as tab-separated ``u<TAB>v`` lines, sorted."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    for u, v in g.edges():
        target.write(f"{u}\t{v}\n")
