"""Whole-pipeline properties over random case files: row order and the
provider form do not change the artifacts; the segments partition the
retained cases; every measure lies in [0, 1] and every team mean between
its members' measures; the joined table equals a plain-Python pipeline's."""

import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import oracles
from surgnet import centrality
from surgnet.complications import ComplicationCodeset
from surgnet.errors import SurgnetError
from surgnet.pipeline import PipelineConfig, run_pipeline

FIELDS = ["case_id", "day_offset", "end_day_offset", "age", "gender",
          "surgery_type"]
DX_COLUMNS = ["dx_1", "dx_2", "dx_3"]
POOL = [f"p{i}" for i in range(7)]
PLACEHOLDERS = ["NULL", "unknown", "na", ""]
DX = ["998.5", "997.1", "99652", "996", "998.59", "250.00", "401.9", "E878.1"]

# a case that parses: day, stay, age, gender, surgery type, team, dx
GOOD = st.tuples(
    st.integers(0, 89), st.integers(1, 6), st.integers(21, 95),
    st.sampled_from(["M", "F", "x", ""]), st.integers(1, 3),
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(DX), max_size=3))

# the cells that make a good row one the parser skips, or one an
# exclusion rule removes ("same" stands for the row's start day)
SKIPPED = st.sampled_from([{"day_offset": "x"}, {"end_day_offset": "-3"},
                           {"age": "old"}, {"case_id": ""}])
EXCLUDED = st.sampled_from([{"age": "17"}, {"age": ""}, {"day_offset": ""},
                            {"end_day_offset": ""}, {"end_day_offset": "same"}])


@st.composite
def case_rows(draw, repeats):
    """Rows of a wide-form case file as (cells by field, team, extra
    provider tokens, dx, skipped); case ids are unique. Each case is good,
    skipped by the parser, excluded, a solo case of a provider seen
    nowhere else, or a case whose only provider token is a placeholder.
    With ``repeats`` a team may carry several placeholders and a repeated
    id; without, at most one placeholder, as the long form can express it
    with the same diagnostics."""
    rows = []
    for i in range(draw(st.integers(15, 40))):
        day, stay, age, gender, styp, team, dx = draw(GOOD)
        cells = {"case_id": f"c{i}", "day_offset": str(day),
                 "end_day_offset": str(day + stay), "age": str(age),
                 "gender": gender, "surgery_type": str(styp)}
        extra = draw(st.lists(st.sampled_from(PLACEHOLDERS),
                              max_size=2 if repeats else 1))
        if repeats and draw(st.booleans()):
            extra.append(team[0])
        kind = draw(st.sampled_from(
            ["good"] * 6 + ["skipped", "excluded", "solo", "none"]))
        if kind == "skipped":
            cells.update(draw(SKIPPED))
        elif kind == "excluded":
            fault = draw(EXCLUDED)
            if fault.get("end_day_offset") == "same":
                fault = {"end_day_offset": cells["day_offset"]}
            cells.update(fault)
        elif kind == "solo":
            team = [f"solo{i}"]
        elif kind == "none":
            team, extra = [], [draw(st.sampled_from(PLACEHOLDERS))]
        rows.append((cells, team, extra, dx, kind == "skipped"))
    return rows


def _wide(rows):
    lines = [",".join(FIELDS + ["providers"] + DX_COLUMNS)]
    for cells, team, extra, dx, _ in rows:
        dx = dx + [""] * (len(DX_COLUMNS) - len(dx))
        lines.append(",".join([cells[f] for f in FIELDS]
                              + [";".join(team + extra)] + dx))
    return "\n".join(lines) + "\n"


def _long(rows):
    """The same cases one provider token per row: a case's valid ids
    first, then its placeholders; every row repeats the case's cells. A
    row the parser skips is written once."""
    lines = [",".join(FIELDS + ["provider"] + DX_COLUMNS)]
    for cells, team, extra, dx, skipped in rows:
        dx = dx + [""] * (len(DX_COLUMNS) - len(dx))
        tokens = team + extra
        for token in tokens[:1] if skipped else tokens:
            lines.append(",".join([cells[f] for f in FIELDS] + [token] + dx))
    return "\n".join(lines) + "\n"


def _outcome(path, text, provider_form="wide"):
    """Every artifact and the diagnostics' messages of a run on ``text``,
    or the error it ends in."""
    path.write_text(text, encoding="utf-8")
    cfg = PipelineConfig(input_path=str(path), output_dir="unused",
                         window_days=30, provider_form=provider_form)
    try:
        result = run_pipeline(cfg, write=False)
    except SurgnetError as exc:
        return type(exc).__name__, str(exc)
    return result.outputs, Counter(d.message for d in result.diagnostics)


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("invariance") / "cases.csv"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=case_rows(repeats=True), data=st.data())
def test_row_order_does_not_change_the_artifacts(case_path, rows, data):
    shuffled = data.draw(st.permutations(rows))
    # diagnostics carry row numbers, so they compare as a multiset of
    # messages
    assert _outcome(case_path, _wide(shuffled)) == \
        _outcome(case_path, _wide(rows))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=case_rows(repeats=False))
def test_long_form_gives_the_wide_form_artifacts(case_path, rows):
    wide = _outcome(case_path, _wide(rows))
    long = _outcome(case_path, _long(rows), provider_form="long")
    if isinstance(wide[0], str):  # both end in the same error
        assert long == wide
        return
    (wide_out, _), (long_out, _) = wide, long
    assert set(long_out) == set(wide_out)
    for name in wide_out:
        if name != "manifest.json":
            assert long_out[name] == wide_out[name], name
    # the manifest differs only in the provider form and the config hash
    manifests = [json.loads(out["manifest.json"]) for out in (wide_out, long_out)]
    for m in manifests:
        del m["config"]["provider_form"], m["config_hash"]
    assert manifests[0] == manifests[1]


def _retained_days(rows):
    """``{case_id: day}`` of the rows that parse and pass every exclusion
    rule."""
    days = {}
    for cells, team, _, _, skipped in rows:
        if skipped or not team or not cells["age"] or int(cells["age"]) < 21:
            continue
        day, end = cells["day_offset"], cells["end_day_offset"]
        if day and end and int(end) > int(day):
            days[cells["case_id"]] = int(day)
    return days


# the joined table's team-mean column of each measure
_MEAN_COLUMN = {"betweenness": "avgBtwn", "closeness": "avgClos",
                "eigenvector": "avgEigen", "clustering": "avgClust",
                "degree": "avgDeg"}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=case_rows(repeats=True))
def test_segments_partition_the_cases_and_measures_stay_in_bounds(case_path,
                                                                  rows):
    case_path.write_text(_wide(rows), encoding="utf-8")
    cfg = PipelineConfig(input_path=str(case_path), output_dir="unused",
                         window_days=30)
    try:
        result = run_pipeline(cfg, write=False)
    except SurgnetError:
        reject()  # the regressions can fail on a small file
    table, row = result.table, 0

    # the segments partition the retained cases into consecutive windows,
    # and the joined table follows them
    days = _retained_days(rows)
    seg_ids = [cid for sa in result.analyses for cid in sa.segment.cases.case_id]
    assert sorted(seg_ids) == sorted(days)
    assert table["case_id"] == seg_ids
    for k, sa in enumerate(result.analyses, start=1):
        seg = sa.segment
        assert seg.index == k
        if k > 1:
            assert seg.start_day == result.analyses[k - 2].segment.end_day_exclusive
        assert all(seg.start_day <= days[cid] < seg.end_day_exclusive
                   for cid in seg.cases.case_id)

        measures = sa.measures
        assert measures["provider_id"] == sa.graph.nodes
        for name in centrality.TEAM_MEASURES:
            assert ((measures[name] >= 0.0) & (measures[name] <= 1.0)).all(), name

        # each team mean lies between its members' least and greatest
        at = {u: i for i, u in enumerate(measures["provider_id"])}
        for case in seg.cases:
            members = [at[p] for p in case.providers]
            for name, column in _MEAN_COLUMN.items():
                values = measures[name][members]
                mean = table[column][row]
                assert values.min() - 1e-12 <= mean <= values.max() + 1e-12
            row += 1


# the oracle measure of each team-mean column
_ORACLE_MEASURES = {
    "avgBtwn": oracles.betweenness_by_enumeration,
    "avgClos": oracles.closeness_by_floyd_warshall,
    "avgEigen": oracles.eigenvector_by_eigh,
    "avgClust": oracles.clustering_by_triples,
    "avgDeg": oracles.degree_by_counting,
}


def _naive_table(rows, window_days):
    """The joined table from the generated rows by plain Python: the
    README exclusions, half-open windows from the first day, a
    dict-of-sets projection, the oracle measures, the prefix-scan
    complication count and each team mean as the built-in sum over the
    team's sorted members. Rows follow (segment, day, case_id)."""
    prefixes = [e.prefix for e in ComplicationCodeset.embedded()]
    cases = []
    placeholders = {p.lower() for p in PLACEHOLDERS}
    for cells, team, extra, dx, skipped in rows:
        # a solo case's extra tokens may still hold a pool id
        team = sorted({p for p in team + extra if p.lower() not in placeholders})
        age, day, end = (cells[f] for f in ("age", "day_offset",
                                            "end_day_offset"))
        if (skipped or not team or not age or int(age) < 21 or not day
                or not end or int(end) <= int(day)):
            continue
        cases.append({"case_id": cells["case_id"], "day": int(day),
                      "team": team, "age": min(int(age), 90),
                      "typSurgery": int(cells["surgery_type"]),
                      "dMale": int(cells["gender"] == "M"),
                      "C": oracles.count_by_prefix_scan(dx, prefixes)})
    first = min(c["day"] for c in cases)
    for c in cases:
        c["segment"] = (c["day"] - first) // window_days + 1
    cases.sort(key=lambda c: (c["segment"], c["day"], c["case_id"]))

    for _, group in itertools.groupby(cases, key=lambda c: c["segment"]):
        group = list(group)
        nodes = {p for c in group for p in c["team"]}
        adj = {p: set() for p in nodes}
        for c in group:
            for u, v in itertools.combinations(c["team"], 2):
                adj[u].add(v)
                adj[v].add(u)
        edges = [(u, v) for u in adj for v in adj[u] if u < v]
        for column, measure in _ORACLE_MEASURES.items():
            values = measure(nodes, edges)
            for c in group:
                c[column] = sum(values[p] for p in c["team"]) / len(c["team"])
        for c in group:
            c["teamSize"] = len(c["team"])
    return cases


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=case_rows(repeats=True), window_days=st.integers(10, 40))
def test_joined_table_matches_a_plain_python_pipeline(case_path, rows,
                                                      window_days):
    case_path.write_text(_wide(rows), encoding="utf-8")
    cfg = PipelineConfig(input_path=str(case_path), output_dir="unused",
                         window_days=window_days)
    try:
        table = run_pipeline(cfg, write=False).table
    except SurgnetError:
        reject()  # the regressions can fail on a small file
    expected = _naive_table(rows, window_days)
    assert table["case_id"] == [c["case_id"] for c in expected]
    for name in ("segment", "C", "age", "teamSize", "typSurgery", "dMale"):
        assert table[name].tolist() == [c[name] for c in expected], name
    for name in _ORACLE_MEASURES:
        tol = 1e-8 if name == "avgEigen" else 1e-12
        np.testing.assert_allclose(table[name], [c[name] for c in expected],
                                   rtol=0, atol=tol, err_msg=name)
