"""Node-level network structure measures and per-case team averages.

Five measures per provider: degree, betweenness, closeness, eigenvector
centrality, and the local clustering coefficient. All values are reported
normalized to [0, 1]:

* degree: raw degree / (n - 1)
* betweenness: shortest-path pair fractions / ((n - 1)(n - 2) / 2),
  computed exactly by Brandes dependency accumulation (no sampling)
* closeness: component-corrected, ((n_C - 1) / sum of distances within the
  component) * ((n_C - 1) / (n - 1)); isolated nodes get 0
* eigenvector: principal eigenvector of the largest connected component,
  rescaled so the maximum entry is 1; nodes outside that component get 0
* clustering: edges among neighbors / (deg * (deg - 1) / 2)

Every measure derives from the graph's 0/1 adjacency matrix A
(``CoworkerGraph.adjacency``), held in CSR form as a ``csr.Csr``. Its
products with dense blocks are scipy's compiled CSR kernel, called
directly (see ``surgnet.csr``), so their bits are those of
``scipy.sparse``. Betweenness, closeness and clustering come
from one pass, the algebraic form of Brandes' algorithm (Brandes 2001;
Kepner & Gilbert 2011): a BFS from a block of sources at once is a
sequence of sparse products with A, and the dependency sweep runs the
same products backwards level by level. Level 1 is scattered from the
sources' own rows of A, and a block stops as soon as every source has
reached every node of its component, so a block whose sources all sit
at eccentricity 2 makes 2 products, one each way. The pass's level-2
product, read at the sources' neighbors, is the masked A^2 column block
of SpGEMM triangle counting (Azad, Buluc & Gilbert 2015), so triangles
need no product of their own. Components come from the graph's one
labelling (``CoworkerGraph.component_labels``, each node labelled with
the least node index in its component), which gives the pass its
component sizes and the eigenvector iteration its largest component,
off which its iterate is zero. The iteration's stopping rule lives here
alone: ``EIG_TOL`` and ``EIG_MAX_ITER``.

``compute_all`` returns a segment's measures as one set of columns,
keyed by the ``node_metrics_seg<k>.tsv`` header (``COLUMNS``):
``provider_id`` is the graph's sorted node tuple, ``degree_raw`` an int64
array and the five measures float64 arrays aligned with it.

Team averages take every case of a segment at once from the case x
provider incidence matrix B of ``network.build_bipartite``, whose columns
are the graph's nodes: team sizes are B's row sums k and the means are
(B @ M) / k for the node-by-measure array M stacked from the columns.
"""

from dataclasses import dataclass

import numpy as np

from .csr import Csr
from .errors import ConvergenceError, DataError
from .network import CoworkerGraph
from .records import CaseRecord


@dataclass(frozen=True)
class TeamMetrics:
    """Arithmetic means of the members' measures over one case's team."""

    case_id: str
    team_size: int
    avg_betweenness: float
    avg_closeness: float
    avg_eigenvector: float
    avg_clustering: float
    avg_degree: float


# ---------------------------------------------------------------------------
# one blocked multi-source BFS behind betweenness, closeness and clustering

# the stopping rule of the eigenvector power iteration (``_eigenvector``)
EIG_TOL = 1e-10
EIG_MAX_ITER = 10000

# Sources per BFS block are chosen so that each node-by-source work array
# of a block holds at most this many cells (1 MiB as float64).
_BLOCK_CELLS = 1 << 17


def _geodesic_measures(a, labels):
    """Betweenness, closeness and clustering arrays from one BFS pass.

    ``a`` is the symmetric 0/1 adjacency ``Csr`` and ``labels`` its
    connected-component labels. The search runs from a block of sources
    at a time; column j of the (n, len(sources)) arrays belongs to
    ``sources[j]``: ``dist`` is the hop distance (-1 where unreachable)
    and ``sigma`` the number of shortest paths. Level 1 is read from the
    sources' own rows of A. Each further level multiplies the frontier's
    path counts by the adjacency (``a @ frontier``, the transpose of
    frontier @ A since A is symmetric) and keeps the entries of unvisited
    nodes, so path counts are summed over all predecessors and ties need
    no breaking. The level-2 product, read before that mask at the
    source's neighbors, is A^2 there: twice the source's triangles; it
    runs whenever a source has a neighbor. The search stops once every
    source has reached every node of its component, so a block whose
    sources reach depth 2 makes 2 products: one forward and one back. A
    backward sweep then pushes pair dependencies down the shortest-path
    DAG: with W = (1 + delta) / sigma on level k, the nodes on level
    k - 1 gain sigma * (A @ W). A path count past float64's range raises
    DataError.
    """
    n = a.shape[0]
    dependency = np.zeros(n)
    twice_triangles = np.zeros(n)
    dist_sum = np.zeros(n, dtype=np.int64)
    # a source reaches exactly the nodes of its component
    reach = np.bincount(labels)[labels]
    height = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, height):
        stop = min(start + height, n)
        sources, cols = np.arange(start, stop), np.arange(stop - start)
        dist = np.full((n, cols.size), -1, dtype=np.int32)
        sigma = np.zeros((n, cols.size))
        dist[sources, cols] = 0
        sigma[sources, cols] = 1.0
        unreached = reach[start:stop] - 1
        # level 1 is the sources' own rows of the symmetric A
        frontier, level = a.rows_transposed(start, stop), 0
        while True:
            fresh = frontier > 0
            if not fresh.any():
                break
            level += 1
            dist[fresh] = level
            sigma += frontier
            count = np.count_nonzero(fresh, axis=0)
            unreached -= count
            dist_sum[start:stop] += level * count
            # never at level 1: the level-2 product also gives the triangles
            if level > 1 and not unreached.any():
                break
            frontier = a @ frontier
            if level == 1:
                twice_triangles[start:stop] = (
                    frontier * (dist == 1)).sum(axis=0)
            frontier[dist >= 0] = 0.0
        if not np.isfinite(sigma).all():
            raise DataError("shortest-path counts overflow float64; "
                            "betweenness is not computable")

        delta = np.zeros_like(sigma)
        # the sweep stops at level 1: a source gains no dependency
        for k in range(level, 1, -1):
            w = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                          where=dist == k)
            delta += np.where(dist == k - 1, (a @ w) * sigma, 0.0)
        dependency += delta.sum(axis=1)

    betweenness = np.zeros(n)
    if n >= 3:
        # each unordered pair was counted from both endpoints
        betweenness = dependency / 2.0
        betweenness /= (n - 1) * (n - 2) / 2.0
    closeness = np.zeros(n)
    ok = reach > 1
    closeness[ok] = (reach[ok] - 1) / dist_sum[ok] * (reach[ok] - 1) / (n - 1)
    deg = np.diff(a.indptr).astype(np.float64)
    possible = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        clustering = np.where(possible > 0, twice_triangles / 2.0 / possible,
                              0.0)
    return betweenness, closeness, clustering


def _eigenvector(a, labels):
    """Principal-eigenvector centrality of the largest connected component.

    Power iteration with L2 renormalization on the shifted matrix A + I:
    the shift leaves eigenvectors unchanged but makes the leading
    eigenvalue strictly dominant, so bipartite-like components (stars,
    paths) cannot oscillate. Starts from a uniform positive vector, which
    cannot be orthogonal to the Perron vector. Converged when the max-abs
    difference between successive normalized iterates drops below
    ``EIG_TOL``; the final vector is rescaled so its maximum entry is 1.
    Nodes outside the largest component get 0. Raises ConvergenceError
    with the last residual after ``EIG_MAX_ITER`` steps.
    The iterate is zero off the component, which no edge leaves, and the
    norm sums the members alone.
    """
    n = a.shape[0]
    x = np.zeros(n)
    if n == 0:
        return x
    lcc = np.argmax(np.bincount(labels))  # ties: smallest label = earliest node
    members = np.flatnonzero(labels == lcc)
    if members.size < 2:
        return x

    x[members] = 1.0 / np.sqrt(members.size)
    residual = np.inf
    for _ in range(EIG_MAX_ITER):
        y = x + a @ x
        y /= np.linalg.norm(y[members])
        residual = float(np.max(np.abs(y - x)))
        x = y
        if residual < EIG_TOL:
            break
    else:
        raise ConvergenceError(
            f"eigenvector power iteration did not converge in "
            f"{EIG_MAX_ITER} iterations (last residual {residual:.3e})",
            trace={"iterations": EIG_MAX_ITER, "residual": residual})
    return x / x.max()


def _labelled(g):
    """The adjacency of ``g`` and its connected-component labels."""
    return g.adjacency(), g.component_labels()


def connected_components(g: CoworkerGraph):
    """Components as frozensets of ids, largest first (ties: earliest node)."""
    # a label is the least node index in its component
    labels = g.component_labels()
    comps = {}
    for i, lab in enumerate(labels):
        comps.setdefault(int(lab), []).append(g.nodes[i])
    ordered = sorted(comps, key=lambda lab: (-len(comps[lab]), lab))
    return [frozenset(comps[lab]) for lab in ordered]


# ---------------------------------------------------------------------------
# the five measures; a standalone betweenness, closeness or clustering
# call runs the whole BFS pass


def _degrees(g):
    raw = g.degrees()
    return raw, raw * (1.0 / (g.n_nodes - 1) if g.n_nodes >= 2 else 0.0)


def _by_node(g, values):
    return dict(zip(g.nodes, values.tolist()))


def degree_centrality(g: CoworkerGraph):
    """Per-node (raw, normalized) degree; normalized by n - 1."""
    raw, degree = _degrees(g)
    return dict(zip(g.nodes, zip(raw.tolist(), degree.tolist())))


def betweenness_centrality(g: CoworkerGraph):
    """Exact normalized betweenness by Brandes dependency accumulation."""
    return _by_node(g, _geodesic_measures(*_labelled(g))[0])


def closeness_centrality(g: CoworkerGraph):
    """Component-corrected closeness from BFS distances."""
    return _by_node(g, _geodesic_measures(*_labelled(g))[1])


def eigenvector_centrality(g: CoworkerGraph):
    """Eigenvector centrality of ``_eigenvector``, keyed by provider id."""
    return _by_node(g, _eigenvector(*_labelled(g)))


def clustering_coefficient(g: CoworkerGraph):
    """Local clustering: realized neighbor-pair edges over possible ones."""
    return _by_node(g, _geodesic_measures(*_labelled(g))[2])


# the columns of compute_all, in node_metrics_seg<k>.tsv header order
COLUMNS = ("provider_id", "degree_raw", "degree", "betweenness", "closeness",
           "eigenvector", "clustering")


def compute_all(g: CoworkerGraph):
    """All five measures of every provider, as a dict of ``COLUMNS``.

    ``provider_id`` is ``g.nodes``; the other columns are arrays aligned
    with it: ``degree_raw`` int64, the rest float64. Labels the
    components once and runs the BFS pass once for betweenness,
    closeness and clustering.
    """
    a, labels = _labelled(g)
    betweenness, closeness, clustering = _geodesic_measures(a, labels)
    raw, degree = _degrees(g)
    return dict(zip(COLUMNS, (
        g.nodes, raw.astype(np.int64), degree, betweenness, closeness,
        _eigenvector(a, labels), clustering)))


# compute_all columns averaged over a team, in TeamMetrics field order
TEAM_MEASURES = ("betweenness", "closeness", "eigenvector", "clustering",
                 "degree")


def team_means(incidence, measures):
    """Team size and TEAM_MEASURES means of every case of an incidence matrix.

    ``incidence`` is a case x provider 0/1 ``Csr`` B whose columns are
    the ``provider_id`` column of ``measures`` (``compute_all``'s), with
    sorted indices per row. With M the (providers, 5) stack of the
    TEAM_MEASURES columns, team sizes are the row sums k and the means
    are (B @ M) / k. The sparse product adds each case's members from 0
    in column order, so a team's sums follow its sorted provider ids and
    do not depend on set order.
    """
    m = np.column_stack([measures[name] for name in TEAM_MEASURES])
    k = np.diff(incidence.indptr)
    return k, (incidence @ m) / k[:, None]


def team_aggregate(case: CaseRecord, measures) -> TeamMetrics:
    """Average each measure over the case's team.

    The one-row case of ``team_means``. Every provider on the case must
    be a ``provider_id`` of ``measures`` (the case's own segment
    network); a missing provider signals a segment/case mismatch.
    """
    index = {u: i for i, u in enumerate(measures["provider_id"])}
    missing = sorted(p for p in case.providers if p not in index)
    if missing:
        raise DataError(
            f"provider {missing[0]!r} of case {case.case_id} is not in the "
            "segment network")
    # provider ids are sorted, so the team's columns are too
    team = sorted(index[p] for p in case.providers)
    size, means = team_means(Csr([0, len(team)], team, len(index)), measures)
    return TeamMetrics(case.case_id, int(size[0]), *means[0].tolist())
