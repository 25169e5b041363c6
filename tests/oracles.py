"""Independent reference implementations used to check surgnet's numerics.

Everything here is deliberately written with different algorithms and data
structures than the library code: brute-force geodesic enumeration instead
of Brandes accumulation, Floyd-Warshall instead of per-source BFS, dense
eigendecomposition instead of power iteration, scipy's rank machinery
instead of the library's own, a literal prefix scan for ICD-9 matching,
a cell-by-cell renderer for the joined table, and numpy's own
``Generator.choice`` for the synthetic teams. Agreement between the
two routes is the evidence the tests rely on.
"""

import itertools
import json
import math

import numpy as np
from scipy import stats


# ---------------------------------------------------------------------------
# graph helpers


def adjacency(nodes, edges):
    """Sorted node list plus a neighbor-set dict (pure Python)."""
    order = sorted(set(nodes))
    adj = {u: set() for u in order}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return order, adj


def bfs_distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _paths_to(adj, dist, source, target, memo):
    """All geodesics from source to target, enumerated backwards."""
    if target == source:
        return [(source,)]
    if target in memo:
        return memo[target]
    out = []
    for u in adj[target]:
        if dist.get(u) == dist[target] - 1:
            out.extend(p + (target,) for p in _paths_to(adj, dist, source, u, memo))
    memo[target] = out
    return out


def betweenness_by_enumeration(nodes, edges):
    """Normalized betweenness via explicit enumeration of every geodesic."""
    order, adj = adjacency(nodes, edges)
    n = len(order)
    raw = {u: 0.0 for u in order}
    for s, t in itertools.combinations(order, 2):
        dist = bfs_distances(adj, s)
        if t not in dist:
            continue
        paths = _paths_to(adj, dist, s, t, {})
        sigma = len(paths)
        for path in paths:
            for v in path[1:-1]:
                raw[v] += 1.0 / sigma
    if n < 3:
        return {u: 0.0 for u in order}
    scale = (n - 1) * (n - 2) / 2.0
    return {u: raw[u] / scale for u in order}


def closeness_by_floyd_warshall(nodes, edges):
    """Component-corrected closeness from a dense all-pairs distance matrix."""
    order, adj = adjacency(nodes, edges)
    n = len(order)
    idx = {u: i for i, u in enumerate(order)}
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u in order:
        for v in adj[u]:
            d[idx[u], idx[v]] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    out = {}
    for u in order:
        row = d[idx[u]]
        reach = np.isfinite(row)
        n_c = int(reach.sum())  # component size, includes u itself
        if n_c <= 1:
            out[u] = 0.0
        else:
            total = float(row[reach].sum())
            out[u] = ((n_c - 1) / total) * ((n_c - 1) / (n - 1))
    return out


def clustering_by_triples(nodes, edges):
    """Local clustering by checking every neighbor pair for an edge."""
    order, adj = adjacency(nodes, edges)
    out = {}
    for u in order:
        nbrs = sorted(adj[u])
        k = len(nbrs)
        if k < 2:
            out[u] = 0.0
            continue
        links = sum(1 for a, b in itertools.combinations(nbrs, 2) if b in adj[a])
        out[u] = links / (k * (k - 1) / 2.0)
    return out


def eigenvector_by_eigh(nodes, edges):
    """Eigenvector centrality from a dense symmetric eigendecomposition.

    Same conventions as the library: computed on the largest connected
    component (ties broken toward the component containing the smallest
    node id), rescaled to a maximum entry of 1, zero elsewhere. A
    single-node largest component leaves everything at 0.
    """
    order, adj = adjacency(nodes, edges)
    out = {u: 0.0 for u in order}
    if not order:
        return out

    seen = set()
    components = []
    for u in order:  # sorted, so earlier components contain smaller ids
        if u in seen:
            continue
        comp = sorted(bfs_distances(adj, u))
        seen.update(comp)
        components.append(comp)
    lcc = max(components, key=len)  # max() keeps the earliest on ties
    if len(lcc) < 2:
        return out

    idx = {u: i for i, u in enumerate(lcc)}
    a = np.zeros((len(lcc), len(lcc)))
    for u in lcc:
        for v in adj[u]:
            a[idx[u], idx[v]] = 1.0
    w, vecs = np.linalg.eigh(a)
    lead = vecs[:, -1]
    if lead.sum() < 0:
        lead = -lead
    lead = lead / lead.max()
    for u in lcc:
        out[u] = float(lead[idx[u]])
    return out


def degree_by_counting(nodes, edges):
    """Normalized degree: neighbor count over n - 1."""
    order, adj = adjacency(nodes, edges)
    n = len(order)
    if n < 2:
        return {u: 0.0 for u in order}
    return {u: len(adj[u]) / (n - 1) for u in order}


def random_edge_set(rng, max_nodes=7):
    """Small random graph: node labels 'p0'.. and an edge subset."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = [f"p{i}" for i in range(n)]
    pairs = list(itertools.combinations(nodes, 2))
    density = rng.uniform(0.0, 1.0)
    edges = [pair for pair in pairs if rng.uniform() < density]
    return nodes, edges


# ---------------------------------------------------------------------------
# rank correlation


def spearman_by_scipy(x, y):
    """(rho, p) using scipy's rank transform and the t approximation."""
    rx = stats.rankdata(x, method="average")
    ry = stats.rankdata(y, method="average")
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        return float("nan"), float("nan")
    rho = float(np.corrcoef(rx, ry)[0, 1])
    rho = max(-1.0, min(1.0, rho))
    n = len(rx)
    if abs(rho) >= 1.0:
        return rho, 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, float(2.0 * stats.t.sf(abs(t), n - 2))


# ---------------------------------------------------------------------------
# ICD-9 prefix scan


def normalize_code(raw):
    code = raw.strip().upper()
    if code and code[0] not in ("V", "E") and "." not in code and len(code) > 3:
        code = code[:3] + "." + code[3:]
    return code


def count_by_prefix_scan(dx_codes, prefixes):
    """Complication count by scanning each code against each prefix.

    A code hits a prefix when it equals it or extends it with digits; a
    bare three-digit class hits when some prefix begins with it. Each
    diagnosis code contributes at most one hit.
    """
    hits = 0
    for raw in dx_codes:
        code = normalize_code(raw)
        matched = False
        for prefix in prefixes:
            if code == prefix:
                matched = True
            elif code.startswith(prefix) and code[len(prefix):].isdigit():
                matched = True
            elif prefix.startswith(code + "."):
                matched = True
            if matched:
                break
        hits += int(matched)
    return hits


# ---------------------------------------------------------------------------
# network_data.tsv / .json, one cell at a time


def format_cell(v):
    """Six significant digits for a float, an int as it is, NA for None
    or NaN."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "NA"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def network_data_by_cells(rows, columns):
    """(tsv, json) of the joined table from its rows, tuples in ``columns``
    order holding None or NaN where a value is missing. The first column
    is the case id. The TSV formats each cell with ``format_cell``; the
    JSON is ``json.dumps`` with indent=2 and sorted keys of one dict per
    row, NaN written as null."""
    lines = [list(columns)] + [[r[0]] + [format_cell(v) for v in r[1:]]
                               for r in rows]
    tsv = "".join("\t".join(cells) + "\n" for cells in lines)
    records = [{k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in zip(columns, r)} for r in rows]
    return tsv, json.dumps(records, indent=2, sort_keys=True,
                           allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# synthetic teams, one Generator.choice call per case


def teams_by_choice(rng, team_sizes, weights):
    """Each team drawn without replacement by ``rng.choice``."""
    return [rng.choice(len(weights), size=int(k), replace=False, p=weights)
            for k in team_sizes]


# ---------------------------------------------------------------------------
# count-model log-likelihoods (direct, term-by-term)


def poisson_loglik_direct(beta, x, y):
    """Sum of scipy.stats.poisson log-pmfs at mu = exp(x @ beta)."""
    mu = np.exp(np.asarray(x) @ np.asarray(beta))
    return float(stats.poisson.logpmf(np.asarray(y), mu).sum())


def negbin_loglik_direct(beta, alpha, x, y):
    """Sum of scipy.stats.nbinom log-pmfs under the NB2 parameterization.

    NB2 with mean mu and variance mu + alpha * mu^2 corresponds to
    scipy's nbinom with n = 1/alpha and p = n / (n + mu).
    """
    mu = np.exp(np.asarray(x) @ np.asarray(beta))
    r = 1.0 / alpha
    return float(stats.nbinom.logpmf(np.asarray(y), r, r / (r + mu)).sum())


def finite_diff_gradient(fn, theta, step=1e-6):
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (fn(up) - fn(dn)) / (2 * step)
    return g


def finite_diff_jacobian(vec_fn, theta, step=1e-6):
    """Central-difference Jacobian of a vector-valued function.

    Differencing the analytic score keeps the rounding error of a Hessian
    check at the 1e-9 level; differencing the log-likelihood twice would
    bury the signal in noise at this step size.
    """
    theta = np.asarray(theta, dtype=np.float64)
    cols = []
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        cols.append((np.asarray(vec_fn(up)) - np.asarray(vec_fn(dn))) / (2 * step))
    jac = np.column_stack(cols)
    return (jac + jac.T) / 2.0
