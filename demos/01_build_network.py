"""
From case roster to co-worker network
=====================================

A hand-sized surgical roster is segmented, linked into a two-mode
case-provider network, projected onto providers, and measured.
"""

# Six cases over two years, teams of two to four providers each, as a
# case file holds them: one row per case, the providers joined by ";".
# The second year starts at day 365, with c5.
import io
from collections import Counter
from itertools import combinations

from surgnet.records import parse_cases, segment_cases

ROSTER = """\
case_id,day_offset,end_day_offset,age,gender,surgery_type,providers
c1,10,14,60,F,1,anna;ben;chris
c2,40,44,60,F,1,anna;dana
c3,90,94,60,F,1,ben;chris;dana;eli
c4,200,204,60,F,1,eli;fay
c5,400,404,60,F,1,anna;ben
c6,500,504,60,F,1,chris;fay;gus
"""
cases, diagnostics = parse_cases(io.StringIO(ROSTER))

# Slice the roster into consecutive 365-day segments. Networks are built
# per segment so that a pair only counts as co-workers if they actually
# overlapped in time.
segments = segment_cases(cases, window_days=365)
for seg in segments:
    ids = ", ".join(c.case_id for c in seg.cases)
    print(f"segment {seg.index}: days [{seg.start_day}, "
          f"{seg.end_day_exclusive}) holding {ids}")

# Build the two-mode network of the first segment and project it: every
# case's team becomes a clique, and repeat collaborations collapse onto a
# single unweighted edge.
from surgnet.network import build_bipartite, project_one_mode

# The two-mode network is the case x provider incidence matrix B: one
# row per case, one column per provider (the sorted ids in providers),
# a nonzero per link.
providers, b = build_bipartite(segments[0])
n_cases, n_providers = b.shape
print(f"\ntwo-mode: {n_cases} cases, {n_providers} providers, {b.nnz} links")

graph = project_one_mode(providers, b)
print(f"one-mode: {graph.n_nodes} providers, {graph.n_edges} edges")
# the graph is unweighted and keeps no shared-case counts: count them
# from the segment's own cases, each case's team pairs in id order
shared = Counter(pair for case in segments[0].cases
                 for pair in combinations(sorted(case.providers), 2))
for u, v in graph.edges():
    print(f"  {u} -- {v}  (shared cases: {shared[(u, v)]})")

# Compute all five node measures. Everything is normalized to [0, 1];
# see the docstrings in surgnet.centrality for the exact conventions.
from surgnet.centrality import compute_all, team_aggregate

# They come back as columns aligned with the sorted provider ids.
metrics = compute_all(graph)
print("\nprovider   degree  betweenness  closeness  eigenvector  clustering")
for pid, deg, btw, clo, eig, clu in zip(
        metrics["provider_id"], metrics["degree"], metrics["betweenness"],
        metrics["closeness"], metrics["eigenvector"], metrics["clustering"]):
    print(f"{pid:<10} {deg:6.3f}  {btw:11.3f}  "
          f"{clo:9.3f}  {eig:11.3f}  {clu:10.3f}")

# Each case is then described by the average measures of its team --
# these are the avgBtwn / avgClos / ... covariates of the regression.
team = team_aggregate(segments[0].cases[0], metrics)
print(f"\nteam of {team.case_id}: size {team.team_size}, "
      f"avg betweenness {team.avg_betweenness:.3f}, "
      f"avg closeness {team.avg_closeness:.3f}")
