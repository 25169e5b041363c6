"""Output checks for one ``surgnet run`` of a benchmark workload.

Every check compares the artifacts with a computation made here from the
case file, or with a property the method must have. None compares with a
stored copy of earlier output. Node measures come from the
``node_metrics_seg<k>.tsv`` tables, which keep six significant digits, so
the checks on them allow a relative error of ``REL``; everything else is
read from the full-precision ``.json`` artifacts.

``check_outputs`` raises ``CheckError`` on the first disagreement.
"""

import csv
import itertools
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import sparse, special, stats
from scipy.sparse import csgraph

REL = 1e-5  # a 6-significant-digit value is within 5e-6 of the true one
PLACEHOLDERS = frozenset({"", "null", "none", "unknown", "na", "n/a"})
MEASURES = ("degree", "betweenness", "closeness", "eigenvector", "clustering")
TEAM_COLUMNS = {"avgDeg": "degree", "avgBtwn": "betweenness",
                "avgClos": "closeness", "avgEigen": "eigenvector",
                "avgClust": "clustering"}
# ICD-9-CM complication subcategories 996.0-999.9; 997.8 does not exist
COMPLICATION_PREFIXES = tuple(
    f"{c}.{d}" for c in (996, 997, 998, 999) for d in range(10)
    if (c, d) != (997, 8))
# networkx runs on the smallest components, segments taken in a seeded
# order, while the BFS edge visits (nodes x directed edges) stay within
# this budget: about half a second of Python on an idle machine
NX_BUDGET = 5_000_000
EXCLUSION_RULES = ("age", "missing dates", "same-day discharge", "providers")


class CheckError(Exception):
    pass


def _expect(ok, message):
    if not ok:
        raise CheckError(message)


def _close(a, b, rel=REL, abs_=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


# ---------------------------------------------------------------------------
# the case file, read by the README's contract


def _opt_int(raw):
    raw = raw.strip()
    return None if raw == "" else int(raw)


def read_cases(path):
    """Parsed cases by id, each (day, end, age, male, surgery, team, dx)."""
    cases = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        dx_cols = [i for name, i in col.items() if name.startswith("dx_")]
        f = [col[k] for k in ("case_id", "day_offset", "end_day_offset", "age",
                              "gender", "surgery_type", "providers")]
        for row in reader:
            cid = row[f[0]].strip()
            if not cid or cid in cases:
                continue
            try:
                day, end, age, surgery = (_opt_int(row[f[i]]) for i in (1, 2, 3, 5))
            except ValueError:
                continue
            if (day is not None and day < 0) or (end is not None and end < 0):
                continue
            team = frozenset(t.strip() for t in row[f[6]].split(";")
                             if t.strip().lower() not in PLACEHOLDERS)
            male = row[f[4]].strip().lower() in ("m", "male")
            dx = [row[i].strip() for i in dx_cols if row[i].strip()]
            cases[cid] = (day, end, None if age is None else min(age, 90),
                          male, surgery, team, dx)
    return cases


def exclusion_rule(case):
    day, end, age, _, _, team, _ = case
    if age is None or age < 21:
        return "age"
    if day is None or end is None:
        return "missing dates"
    if end <= day:  # README: discharge not after surgery
        return "same-day discharge"
    if not team:
        return "providers"
    return None


def prefix_scan(dx, memo):
    """Complication count by scanning each code against each prefix."""
    hits = 0
    for raw in dx:
        if raw not in memo:
            code = raw.upper()
            if code[0] not in "VE" and "." not in code and len(code) > 3:
                code = code[:3] + "." + code[3:]
            memo[raw] = any(
                code == p or (code.startswith(p) and code[len(p):].isdigit())
                or p.startswith(code + ".") for p in COMPLICATION_PREFIXES)
        hits += memo[raw]
    return hits


# ---------------------------------------------------------------------------
# artifacts


def _read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return rows[0], rows[1:]


def _node_metrics(path):
    header, rows = _read_tsv(path)
    _expect(header == ["provider_id", "degree_raw", *MEASURES],
            f"{path.name}: unexpected header {header}")
    ids = [r[0] for r in rows]
    raw = np.array([int(r[1]) for r in rows])
    values = np.array([[float(v) for v in r[2:]] for r in rows]).reshape(-1, 5)
    return ids, raw, values


# ---------------------------------------------------------------------------
# one segment network


def _check_graph(k, nodes, adj, ids, raw, values, rng, budget):
    """Node measures of segment ``k`` against the clique union ``adj``;
    networkx recomputes the components that ``budget`` still pays for."""
    tag = f"segment {k}"
    n = len(nodes)
    _expect(ids == nodes, f"{tag}: node set differs from the clique union")
    _expect(np.all((values >= 0.0) & (values <= 1.0)),
            f"{tag}: a node measure lies outside [0, 1]")
    deg = np.array([len(adj[u]) for u in nodes])
    _expect(np.array_equal(raw, deg), f"{tag}: raw degree differs")
    scale = 1.0 / (n - 1) if n > 1 else 0.0
    _expect(np.allclose(values[:, 0], deg * scale, rtol=REL, atol=0),
            f"{tag}: normalized degree differs")

    index = {u: i for i, u in enumerate(nodes)}
    src = np.repeat(np.arange(n), deg)
    dst = np.array([index[v] for u in nodes for v in adj[u]], dtype=np.int64)
    a = sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))

    # clustering: triangles through each node over neighbour pairs
    tri = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0
    pairs = deg * (deg - 1) / 2.0
    cc = np.divide(tri, pairs, out=np.zeros(n), where=pairs > 0)
    _expect(np.allclose(values[:, 4], cc, rtol=REL, atol=1e-12),
            f"{tag}: clustering differs from triangle counts")

    # closeness and the betweenness total from all-pairs distances
    d = csgraph.shortest_path(a, unweighted=True, directed=False)
    reach = np.isfinite(d)
    n_c = reach.sum(axis=1)
    total = np.where(reach, d, 0.0).sum(axis=1)
    clo = np.divide((n_c - 1.0) ** 2, total * (n - 1), out=np.zeros(n),
                    where=total > 0)
    _expect(np.allclose(values[:, 2], clo, rtol=REL, atol=1e-12),
            f"{tag}: closeness differs from csgraph distances")
    if n >= 3:
        raw_btw = values[:, 1].sum() * (n - 1) * (n - 2) / 2.0
        paths = np.where(d > 0, d - 1.0, 0.0)[reach].sum() / 2.0
        _expect(_close(raw_btw, paths, abs_=1e-9),
                f"{tag}: sum of raw betweenness {raw_btw:.9g} != sum over "
                f"connected pairs of (d - 1) {paths:.9g}")
    del d, reach

    # eigenvector: Perron vector of the largest component, zero elsewhere
    n_comp, labels = csgraph.connected_components(a, directed=False)
    sizes = np.bincount(labels)
    lcc = np.flatnonzero(labels == np.argmax(sizes))
    x = values[:, 3]
    _expect(np.all(x[labels != np.argmax(sizes)] == 0.0),
            f"{tag}: eigenvector nonzero outside the largest component")
    if lcc.size >= 2:
        _expect(np.sum(sizes == sizes.max()) == 1,
                f"{tag}: the largest component is not unique")
        xl = x[lcc]
        al = a[lcc][:, lcc]
        ax = al @ xl
        lam = float(xl @ ax / (xl @ xl))
        resid = float(np.linalg.norm(ax - lam * xl) / (lam * np.linalg.norm(xl)))
        _expect(resid < 1e-4, f"{tag}: eigenvector residual {resid:.2e}")
        _expect(xl.max() == 1.0 and xl.min() > 0.0,
                f"{tag}: eigenvector not scaled to max 1 on its component")

    # networkx on the smallest components, within the budget
    for c in sorted(range(n_comp), key=lambda c: (sizes[c], rng.random())):
        members = np.flatnonzero(labels == c)
        cost = members.size * int(deg[members].sum())
        if cost > budget["visits"]:
            break
        budget["visits"] -= cost
        budget["components"] += 1
        _check_with_networkx(tag, [nodes[i] for i in members], adj, n,
                             values[members])


def _check_with_networkx(tag, members, adj, n, values):
    g = nx.Graph()
    g.add_nodes_from(members)
    g.add_edges_from((u, v) for u in members for v in adj[u] if u < v)
    n_c = len(members)
    btw = nx.betweenness_centrality(g, normalized=False)
    clo = nx.closeness_centrality(g, wf_improved=False)
    clu = nx.clustering(g)
    scale = (n - 1) * (n - 2) / 2.0 if n >= 3 else 1.0
    for i, u in enumerate(members):
        want = (g.degree(u) / (n - 1) if n > 1 else 0.0, btw[u] / scale,
                clo[u] * (n_c - 1) / (n - 1) if n > 1 else 0.0, None, clu[u])
        for name, w, got in zip(MEASURES, want, values[i]):
            if w is not None:
                _expect(_close(w, got, abs_=1e-12),
                        f"{tag}: {name} of {u} is {got:.6g}, networkx {w:.6g}")


# ---------------------------------------------------------------------------
# the regression fits


def _design(rows, columns):
    y = np.array([r["C"] for r in rows], dtype=np.float64)
    x = np.column_stack([np.ones(len(rows)) if c == "_cons" else
                         np.array([r[c] for r in rows], dtype=np.float64)
                         for c in columns])
    return x, y


def _check_fits(reg, rows):
    pois, nb = reg["poisson"], reg["negbin"]
    _expect(reg["dropped_constant_covariates"] == [],
            f"covariate(s) dropped as constant: {reg['dropped_constant_covariates']}")
    _expect(pois["columns"] == nb["columns"], "Poisson and NB2 designs differ")
    x, y = _design(rows, pois["columns"])
    _expect(pois["n_obs"] == nb["n_obs"] == y.size,
            f"regression used {pois['n_obs']} rows of {y.size}")

    beta = np.array(pois["coef"])
    mu = np.exp(x @ beta)
    ll = float(stats.poisson.logpmf(y, mu).sum())
    _expect(_close(ll, pois["log_likelihood"], rel=1e-9),
            f"Poisson log-likelihood {pois['log_likelihood']!r}, "
            f"scipy.stats {ll!r}")
    # score times standard error: the Newton step left, in standard errors
    score = x.T @ (y - mu)
    step = np.abs(score * np.array(pois["std_err"]))
    _expect(step.max() < 1e-4, f"Poisson score not zero: {step.max():.2e} se")

    beta = np.array(nb["coef"])
    alpha = nb["alpha"]
    _expect(not nb["alpha_boundary"], "NB2 alpha at the boundary")
    mu = np.exp(x @ beta)
    r = 1.0 / alpha
    ll = float(stats.nbinom.logpmf(y, r, r / (r + mu)).sum())
    _expect(_close(ll, nb["log_likelihood"], rel=1e-9),
            f"NB2 log-likelihood {nb['log_likelihood']!r}, scipy.stats {ll!r}")
    amu = alpha * mu
    score_b = x.T @ ((y - mu) / (1.0 + amu))
    score_t = float(np.sum(r * (np.log1p(amu) - special.digamma(y + r)
                                + special.digamma(r)) + (y - mu) / (1.0 + amu)))
    step = np.abs(np.append(score_b * np.array(nb["std_err"]),
                            score_t * nb["ln_alpha_std_err"]))
    _expect(step.max() < 1e-4, f"NB2 score not zero: {step.max():.2e} se")
    _expect(nb["log_likelihood"] >= pois["log_likelihood"],
            "NB2 log-likelihood below the Poisson one")
    est = nb["coef"][nb["columns"].index("teamSize")]
    # 0.15 is the teamSize coefficient surgnet.synth plants by default
    _expect(abs(est - 0.15) <= 0.05, f"NB2 teamSize {est:.4f}, planted 0.15")


# ---------------------------------------------------------------------------


def check_outputs(workload, out_dir, seed):
    """Check every artifact of one run; returns the number of components
    networkx recomputed, and raises CheckError on failure."""
    out = Path(out_dir)
    cases = read_cases(workload.path)
    manifest = json.loads((out / "manifest.json").read_text())["stages"]

    # parse, exclusions
    _expect(len(cases) == workload.cases == manifest["parse"]["cases"],
            f"parsed cases: program {manifest['parse']['cases']}, "
            f"read here {len(cases)}, generated {workload.cases}")
    _expect(manifest["parse"]["diagnostics"] == workload.diagnostics,
            f"{manifest['parse']['diagnostics']} parse diagnostics, "
            f"{workload.diagnostics} rows injected for them")
    report = dict.fromkeys(EXCLUSION_RULES, 0)
    retained = {}
    for cid, case in cases.items():
        rule = exclusion_rule(case)
        if rule is None:
            retained[cid] = case
        else:
            report[rule] += 1
    _, table = _read_tsv(out / "exclusions.tsv")
    reported = {rule: int(v) for rule, v in table}
    injected = {rule: workload.excluded.get(rule, 0) for rule in EXCLUSION_RULES}
    _expect(report == injected,
            f"exclusions read here {report}, injected {injected}")
    _expect(reported == dict(report, retained=len(retained)),
            f"exclusions.tsv {reported}, expected {report}")

    # segments partition the retained cases
    days = [c[0] for c in retained.values()]
    lo, hi = min(days), max(days)
    n_seg = math.ceil((hi + 1 - lo) / 365)
    seg_of = {cid: (c[0] - lo) // 365 + 1 for cid, c in retained.items()}
    rows = json.loads((out / "network_data.json").read_text())
    _expect(len(rows) == len(retained)
            and {r["case_id"] for r in rows} == set(retained),
            "network_data rows do not partition the retained cases")
    memo = {}
    for r in rows:
        day, end, age, male, surgery, team, dx = retained[r["case_id"]]
        _expect(r["segment"] == seg_of[r["case_id"]],
                f"case {r['case_id']} in segment {r['segment']}, "
                f"day {day} belongs to {seg_of[r['case_id']]}")
        _expect(r["teamSize"] == len(team)
                and r["age"] == age and r["dMale"] == int(male)
                and r["typSurgery"] == surgery,
                f"case {r['case_id']}: joined fields differ from the case file")
        c = prefix_scan(dx, memo)
        _expect(r["C"] == c, f"case {r['case_id']}: C={r['C']}, prefix scan {c}")
    segs = json.loads((out / "segments.json").read_text())
    _expect([s["segment"] for s in segs] == list(range(1, n_seg + 1)),
            f"{len(segs)} segments, expected {n_seg}")

    # networks: clique unions against the node tables
    rng = np.random.default_rng(seed)
    by_seg = {}
    for r in rows:
        by_seg.setdefault(r["segment"], []).append(r)
    budget = {"visits": NX_BUDGET, "components": 0}
    for i in rng.permutation(len(segs)):
        s = segs[i]
        k = s["segment"]
        start = lo + (k - 1) * 365
        _expect(s["start_day"] == start
                and s["end_day_exclusive"] == min(start + 365, hi + 1),
                f"segment {k}: window [{s['start_day']}, "
                f"{s['end_day_exclusive']}) differs")
        seg_rows = by_seg.get(k, [])
        teams = [retained[r["case_id"]][5] for r in seg_rows]
        adj = {}
        for team in teams:
            for u in team:
                adj.setdefault(u, set()).update(team)
        for u, nbrs in adj.items():
            nbrs.discard(u)
        nodes = sorted(adj)
        n_edges = sum(len(v) for v in adj.values()) // 2
        _expect((s["nodes"], s["edges"], s["cases"])
                == (len(nodes), n_edges, len(seg_rows)),
                f"segment {k}: nodes/edges/cases {s['nodes']}/{s['edges']}/"
                f"{s['cases']}, clique union {len(nodes)}/{n_edges}/"
                f"{len(seg_rows)}")
        ids, raw, values = _node_metrics(out / f"node_metrics_seg{k}.tsv")
        _check_graph(k, nodes, adj, ids, raw, values, rng, budget)

        # team means against the members' tabled measures
        index = {u: i for i, u in enumerate(nodes)}
        members = [sorted(index[u] for u in t) for t in teams]
        flat = np.fromiter(itertools.chain.from_iterable(members), np.int64)
        sizes = np.array([len(m) for m in members])
        starts = np.r_[0, np.cumsum(sizes)[:-1]]
        for col, measure in TEAM_COLUMNS.items():
            v = values[flat, MEASURES.index(measure)]
            got = np.array([r[col] for r in seg_rows])
            mean = np.add.reduceat(v, starts) / sizes
            vmax = np.maximum.reduceat(v, starts)
            vmin = np.minimum.reduceat(v, starts)
            tol = REL * vmax + 1e-12
            _expect(np.all((got >= vmin - tol) & (got <= vmax + tol)),
                    f"segment {k}: a team {col} lies outside its members' range")
            _expect(np.all(np.abs(got - mean) <= tol),
                    f"segment {k}: a team {col} differs from its members' mean")

    # Spearman
    corr = json.loads((out / "correlation.json").read_text())
    _expect(corr["degenerate_columns"] == [] and corr["n_obs"] == len(rows),
            f"Spearman: degenerate {corr['degenerate_columns']}, "
            f"n_obs {corr['n_obs']}")
    mat = np.array([[r[c] for c in corr["columns"]] for r in rows])
    rho = stats.spearmanr(mat).statistic
    _expect(np.allclose(np.array(corr["rho"]), rho, rtol=0, atol=1e-9),
            "Spearman rho differs from scipy.stats.spearmanr")

    _check_fits(json.loads((out / "regression.json").read_text()), rows)
    return budget["components"]
