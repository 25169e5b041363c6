"""Release-gate acceptance suite.

Ten numbered criteria cover the whole surface: oracle agreement for the
network measures and Spearman, derivative and closed-form identities for
the count models, seeded simulation recovery, the embedded codeset, the
end-to-end pipeline, and a scale smoke test. Each test appends a one-line
verdict to RESULTS; the hook in conftest.py echoes those lines after the
normal pytest summary so the gate's outcome is visible at a glance.

Every numeric check runs against an independent oracle (tests/oracles.py),
a closed-form identity, or a known generating truth, at the explicit
tolerance named in the verdict line. Several criteria also carry runtime
budgets, enforced with the same pass/fail machinery.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

import oracles
from conftest import case_table, make_case
from surgnet import cli
from surgnet.centrality import compute_all
from surgnet.complications import ComplicationCodeset, count_complications
from surgnet.correlation import spearman_rho
from surgnet.network import CoworkerGraph, build_bipartite, project_one_mode
from surgnet.records import Segment
from surgnet.regression import (
    DesignMatrix,
    lr_test_alpha,
    negbin_fit,
    negbin_hessian,
    negbin_loglik,
    negbin_score,
    negbin_start,
    poisson_fit,
    poisson_gof,
    poisson_hessian,
    poisson_loglik,
    poisson_score,
)
from surgnet.synth import synth_generate

RESULTS = []


@contextmanager
def criterion(num, text, budget=None):
    """Record one verdict line; enforce an optional runtime budget."""
    info = {}
    t0 = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    except BaseException as exc:
        reason = str(exc).splitlines()[0][:120] if str(exc) else ""
        RESULTS.append(f"criterion {num:>2} FAIL  {text}"
                       f"  [{type(exc).__name__}{': ' if reason else ''}{reason}]")
        raise
    detail = info.get("detail", "")
    sep = "; " if detail else ""
    RESULTS.append(f"criterion {num:>2} PASS  {text}  [{detail}{sep}{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. network measures vs brute-force oracles


STAR7 = [("p0", f"p{k}") for k in range(1, 7)]
PATH7 = [(f"p{k}", f"p{k + 1}") for k in range(6)]
COMPLETE7 = list(itertools.combinations([f"p{k}" for k in range(7)], 2))
KITE5 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d"), ("d", "e")]


def _compare_to_oracles(nodes, edges, worst, tag):
    columns = compute_all(CoworkerGraph(nodes, edges))
    expected = {
        "betweenness": (oracles.betweenness_by_enumeration(nodes, edges), 1e-12),
        "closeness": (oracles.closeness_by_floyd_warshall(nodes, edges), 1e-12),
        "clustering": (oracles.clustering_by_triples(nodes, edges), 1e-12),
        "degree": (oracles.degree_by_counting(nodes, edges), 1e-12),
        "eigenvector": (oracles.eigenvector_by_eigh(nodes, edges), 1e-8),
    }
    for measure, (exp, tol) in expected.items():
        got = dict(zip(columns["provider_id"], columns[measure].tolist()))
        for u in exp:
            diff = abs(got[u] - exp[u])
            worst[measure] = max(worst[measure], diff)
            assert diff <= tol, (f"{measure}[{u}] off by {diff:.3e} on {tag} "
                                 f"(tolerance {tol:g})")


def test_criterion_1_measures_match_bruteforce_oracles():
    with criterion(1, "five network measures vs brute-force oracles on 10000 "
                      "random graphs (<=7 nodes) + star/path/complete/kite "
                      "(1e-12; eigenvector 1e-8)", budget=60.0) as info:
        worst = dict.fromkeys(
            ("betweenness", "closeness", "clustering", "degree", "eigenvector"),
            0.0)
        for tag, edges in (("star", STAR7), ("path", PATH7),
                           ("complete", COMPLETE7), ("kite", KITE5)):
            nodes = sorted(set(itertools.chain.from_iterable(edges)))
            _compare_to_oracles(nodes, edges, worst, tag)
        rng = np.random.default_rng(20240601)
        for i in range(10000):
            nodes, edges = oracles.random_edge_set(rng, max_nodes=7)
            _compare_to_oracles(nodes, edges, worst, f"random graph {i}")
        info["detail"] = (f"worst bc {worst['betweenness']:.1e}, "
                          f"eig {worst['eigenvector']:.1e}")


# ---------------------------------------------------------------------------
# 2. projection correctness


def test_criterion_2_projection_cliques_and_edge_union():
    with criterion(2, "one-mode projection: every case induces a clique and "
                      "edges equal the union of per-case cliques "
                      "(1000 random segments)") as info:
        rng = np.random.default_rng(20240602)
        edges_checked = 0
        for trial in range(1000):
            n_prov = int(rng.integers(2, 16))
            pool = [f"p{i}" for i in range(n_prov)]
            cases = []
            for k in range(int(rng.integers(1, 13))):
                size = int(rng.integers(1, min(6, n_prov) + 1))
                team = [pool[i] for i in
                        rng.choice(n_prov, size=size, replace=False)]
                cases.append(make_case(case_id=f"c{k}", providers=team))
            seg = Segment(index=1, start_day=0, end_day_exclusive=365,
                          cases=case_table(cases))
            g = project_one_mode(*build_bipartite(seg))

            union, edges = set(), set(g.edges())
            for case in cases:
                for u, v in itertools.combinations(sorted(case.providers), 2):
                    assert (u, v) in edges, \
                        f"missing clique edge {u}-{v} in trial {trial}"
                    union.add((u, v))
            # clique containment plus equal counts pins the edge sets equal
            assert g.n_edges == len(union), f"extra edges in trial {trial}"
            assert set(g.nodes) == {p for c in cases for p in c.providers}
            edges_checked += len(union)
        info["detail"] = f"{edges_checked} clique edges verified"


# ---------------------------------------------------------------------------
# 3. Spearman vs tie-corrected oracle


def _tied_vector(rng, n):
    """Random vector of length n with ties (small integer support),
    occasionally mixed with continuous noise."""
    support = max(2, n // 2)  # fewer levels than entries forces ties
    x = rng.integers(0, support, size=n).astype(np.float64)
    if rng.random() < 0.5:
        jitter = rng.random(n) < 0.3
        x[jitter] += rng.uniform(0.1, 0.4, size=int(jitter.sum()))
    return x


def test_criterion_3_spearman_matches_rank_oracle():
    with criterion(3, "Spearman rho vs independent tie-corrected oracle on "
                      "1000 tied vectors (1e-12); exact +/-1 on monotone "
                      "inputs") as info:
        rng = np.random.default_rng(20240603)
        worst = 0.0
        degenerate_seen = 0
        for trial in range(1000):
            n = int(rng.integers(3, 51))
            x = _tied_vector(rng, n)
            y = _tied_vector(rng, n)
            if trial % 97 == 0:
                x[:] = x[0]  # keep constant vectors in the mix
            rho = spearman_rho(x, y)
            exp, _ = oracles.spearman_by_scipy(x, y)
            if math.isnan(exp):
                assert math.isnan(rho), f"expected nan on trial {trial}"
                degenerate_seen += 1
                continue
            diff = abs(rho - exp)
            worst = max(worst, diff)
            assert diff <= 1e-12, f"rho off by {diff:.3e} on trial {trial}"
        assert degenerate_seen > 0

        for _ in range(50):
            n = int(rng.integers(3, 51))
            x = np.cumsum(rng.uniform(0.1, 1.0, size=n))
            y = np.exp(3.0 * x / x.max())  # strictly increasing transform
            assert spearman_rho(x, y) == 1.0
            assert spearman_rho(x, -y) == -1.0
        info["detail"] = f"worst {worst:.1e}, {degenerate_seen} degenerate"


# ---------------------------------------------------------------------------
# 4. analytic derivatives vs central finite differences


def _rel_err(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def test_criterion_4_derivatives_match_finite_differences():
    with criterion(4, "Poisson/NB2 score and Hessian vs central finite "
                      "differences, step 1e-6, at 100 random points "
                      "(rel 1e-4)") as info:
        rng = np.random.default_rng(20240604)
        worst = 0.0
        for point in range(100):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(50, 201))
            x = np.column_stack([rng.normal(0.0, 1.0, size=(n, p)), np.ones(n)])
            beta = rng.uniform(-0.5, 0.5, size=p + 1)
            ln_alpha = float(rng.uniform(np.log(0.1), np.log(2.0)))
            mu = np.exp(x @ beta)
            lam = rng.gamma(shape=np.exp(-ln_alpha),
                            scale=np.exp(ln_alpha) * mu)
            y = rng.poisson(lam)

            checks = [
                (poisson_score(beta, x, y),
                 oracles.finite_diff_gradient(
                     lambda b: poisson_loglik(b, x, y), beta)),
                (poisson_hessian(beta, x, y),
                 oracles.finite_diff_jacobian(
                     lambda b: poisson_score(b, x, y), beta)),
            ]
            params = np.append(beta, ln_alpha)
            checks += [
                (negbin_score(params, x, y),
                 oracles.finite_diff_gradient(
                     lambda t: negbin_loglik(t, x, y), params)),
                (negbin_hessian(params, x, y),
                 oracles.finite_diff_jacobian(
                     lambda t: negbin_score(t, x, y), params)),
            ]
            for analytic, fd in checks:
                err = _rel_err(analytic, fd)
                worst = max(worst, err)
                assert err <= 1e-4, \
                    f"derivative mismatch {err:.3e} at point {point}"
        info["detail"] = f"worst rel err {worst:.1e}"


# ---------------------------------------------------------------------------
# 5. intercept-only Poisson closed form


def test_criterion_5_intercept_only_poisson_identity():
    with criterion(5, "intercept-only Poisson MLE returns ln(mean) "
                      "(1e-8, 100 random samples)") as info:
        rng = np.random.default_rng(20240605)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(20, 200))
            y = rng.poisson(rng.uniform(0.3, 5.0), size=n)
            if y.sum() == 0:
                y[0] = 1  # keep the MLE finite
            fit = poisson_fit(DesignMatrix.build(y, {}))
            worst = max(worst, abs(fit.coef[0] - np.log(y.mean())))
            assert worst <= 1e-8
        info["detail"] = f"worst {worst:.1e}"


# ---------------------------------------------------------------------------
# 6. negative binomial parameter recovery


def test_criterion_6_negbin_recovery():
    with criterion(6, "NB2 recovery at n=5000, beta=(0.5, 0.3), alpha=1.5 "
                      "(+/-0.1, +/-0.2); Poisson GOF and LR both reject "
                      "(p < 0.001)", budget=30.0) as info:
        rng = np.random.default_rng(20240606)
        n, alpha = 5000, 1.5
        x1 = rng.normal(0.0, 1.0, size=n)
        mu = np.exp(0.5 * x1 + 0.3)
        y = rng.poisson(rng.gamma(shape=1.0 / alpha, scale=alpha * mu))

        dm = DesignMatrix.build(y, {"x1": x1})
        pois = poisson_fit(dm)
        gof = poisson_gof(pois, dm)
        nb = negbin_fit(dm, start=negbin_start(pois, dm))
        lr = lr_test_alpha(pois, nb)

        assert abs(nb.coef[0] - 0.5) <= 0.1, f"slope {nb.coef[0]:.4f}"
        assert abs(nb.coef[1] - 0.3) <= 0.1, f"intercept {nb.coef[1]:.4f}"
        assert abs(nb.alpha - 1.5) <= 0.2, f"alpha {nb.alpha:.4f}"
        assert not nb.alpha_boundary
        assert gof.p_value < 1e-3, f"GOF p {gof.p_value:.3g}"
        assert lr.p_value < 1e-3, f"LR p {lr.p_value:.3g}"
        info["detail"] = (f"beta ({nb.coef[0]:.3f}, {nb.coef[1]:.3f}), "
                          f"alpha {nb.alpha:.3f}")


# ---------------------------------------------------------------------------
# 7. Poisson nesting and equidispersed behavior


def test_criterion_7_nesting_and_equidispersed_lr():
    with criterion(7, "NB2 log-likelihood at alpha=1e-10 matches Poisson at "
                      "its optimum (1e-4); equidispersed LR stat < 4 in "
                      ">= 95/100 replicates") as info:
        rng = np.random.default_rng(20240606)
        n, alpha = 5000, 1.5
        x1 = rng.normal(0.0, 1.0, size=n)
        mu = np.exp(0.5 * x1 + 0.3)
        y = rng.poisson(rng.gamma(shape=1.0 / alpha, scale=alpha * mu))
        dm = DesignMatrix.build(y, {"x1": x1})
        pois = poisson_fit(dm)
        ll_nb = negbin_loglik(np.append(pois.coef, np.log(1e-10)), dm.x, dm.y)
        gap = abs(ll_nb - pois.log_likelihood)
        assert gap <= 1e-4, f"nesting gap {gap:.3e}"

        rng = np.random.default_rng(20240607)
        small = 0
        for _ in range(100):
            xr = rng.normal(0.0, 1.0, size=200)
            yr = rng.poisson(np.exp(0.4 * xr + 0.2))
            dmr = DesignMatrix.build(yr, {"x1": xr})
            pois = poisson_fit(dmr)
            stat = lr_test_alpha(
                pois, negbin_fit(dmr, start=negbin_start(pois, dmr))).statistic
            small += int(stat < 4.0)
        assert small >= 95, f"only {small}/100 replicates below 4"
        info["detail"] = f"nesting gap {gap:.1e}, {small}/100 small LR"


# ---------------------------------------------------------------------------
# 8. complication codeset


def test_criterion_8_codeset_selfmatch_and_worked_example():
    with criterion(8, "all 39 codeset prefixes self-match; dx "
                      "[996.52, 998.59, 250.00] counts C=2, agreeing with a "
                      "prefix-scan oracle") as info:
        codeset = ComplicationCodeset.embedded()
        prefixes = [entry.prefix for entry in codeset.entries]
        assert len(prefixes) == 39
        cases = case_table(make_case(f"c{k}", dx=[prefix])
                           for k, prefix in enumerate(prefixes))
        counts = count_complications(cases, codeset).tolist()
        for prefix, count in zip(prefixes, counts):
            assert count == 1, f"prefix {prefix} does not self-match"
            assert oracles.count_by_prefix_scan([prefix], prefixes) == 1

        dx = ["996.52", "998.59", "250.00"]
        assert count_complications(case_table([make_case(dx=dx)]),
                                   codeset).tolist() == [2]
        assert oracles.count_by_prefix_scan(dx, prefixes) == 2
        info["detail"] = "39 prefixes, worked example C=2"


# ---------------------------------------------------------------------------
# 9. end-to-end synthetic recovery through the CLI


EXPECTED_ARTIFACTS = {
    "exclusions.tsv", "segments.tsv", "segments.json",
    "network_data.tsv", "network_data.json",
    "correlation.tsv", "correlation.json",
    "regression.tsv", "regression.json", "manifest.json",
    "node_metrics_seg1.tsv", "node_metrics_seg2.tsv",
    "node_metrics_seg3.tsv", "node_metrics_seg4.tsv",
}

SEGMENT_TABLE_MEASURES = [
    "nodes", "edges", "cases", "avg_team_size", "avg_degree", "density",
    "avg_betweenness", "avg_closeness", "avg_eigenvector",
    "avg_complications",
]


def _check_table_shapes(out_dir):
    seg_lines = (out_dir / "segments.tsv").read_text().splitlines()
    assert seg_lines[0].split("\t") == ["measure", "1", "2", "3", "4"]
    assert [line.split("\t")[0] for line in seg_lines[1:]] == \
        SEGMENT_TABLE_MEASURES

    corr_lines = (out_dir / "correlation.tsv").read_text().splitlines()
    assert corr_lines[0].split("\t") == \
        ["variable", "avgBtwn", "avgClos", "avgEigen", "avgClust", "avgDeg"]
    assert len(corr_lines) >= 6  # header + one lower-triangle row per measure

    reg_text = (out_dir / "regression.tsv").read_text()
    for needle in ("== collinearity screening (OLS) ==", "== poisson ==",
                   "goodness of fit", "== negative binomial ==",
                   "Likelihood-ratio test of alpha=0"):
        assert needle in reg_text, f"regression table lacks {needle!r}"


def test_criterion_9_end_to_end_recovery(tmp_path, monkeypatch):
    with criterion(9, "CLI run on a seeded 20000-case synthetic recovers "
                      "teamSize=0.15 within +/-0.05, emits the full table "
                      "set, and reruns byte-identically", budget=300.0) as info:
        monkeypatch.delenv("SURGNET_OUTPUT_DIR", raising=False)
        csv_path = tmp_path / "cases.csv"
        synth_generate(seed=20240601, n_cases=20000, n_providers=1200,
                       window_days=365, n_segments=4, out_path=str(csv_path))
        out_dir = tmp_path / "out"
        argv = ["run", "--input", str(csv_path), "--output-dir", str(out_dir)]
        assert cli.main(argv) == 0

        assert {p.name for p in out_dir.iterdir()} == EXPECTED_ARTIFACTS
        _check_table_shapes(out_dir)

        reg = json.loads((out_dir / "regression.json").read_text())
        cols = reg["negbin"]["columns"]
        estimate = reg["negbin"]["coef"][cols.index("teamSize")]
        assert abs(estimate - 0.15) <= 0.05, f"teamSize estimate {estimate:.4f}"

        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert cli.main(argv) == 0
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert first == second, "rerun into the same directory changed bytes"
        info["detail"] = f"teamSize {estimate:.4f}"


# ---------------------------------------------------------------------------
# 10. scale smoke


def test_criterion_10_scale_smoke():
    rng = np.random.default_rng(20240610)
    n, m = 1000, 80000
    nodes = [f"p{i:04d}" for i in range(n)]
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.choice(iu.size, size=m, replace=False)
    edges = [(nodes[iu[k]], nodes[ju[k]]) for k in pick]

    with criterion(10, "full metrics pass on a 1000-node / 80000-edge graph "
                       "in < 10 s with every value in [0, 1]",
                   budget=10.0) as info:
        g = CoworkerGraph(nodes, edges)
        assert g.n_nodes == n and g.n_edges == m
        metrics = compute_all(g)
        values = np.column_stack([
            metrics[name] for name in ("degree", "betweenness", "closeness",
                                       "eigenvector", "clustering")])
        assert values.shape == (n, 5)
        assert values.min() >= 0.0 and values.max() <= 1.0
        info["detail"] = f"values in [{values.min():.4f}, {values.max():.4f}]"
