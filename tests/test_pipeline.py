"""End-to-end pipeline: config handling, stage wiring, artifacts, determinism."""

import importlib
import json
import os
import pkgutil
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import surgnet
from surgnet import centrality, cli, network, pipeline, records
from surgnet.errors import ConfigError, ConvergenceError, DataError
from surgnet.records import MISSING, PLACEHOLDER_IDS
from surgnet.pipeline import (
    CORRELATION_COLUMNS,
    REGRESSION_COLUMNS,
    ROW_COLUMNS,
    PipelineConfig,
    run_pipeline,
)
from surgnet.synth import ComplicationModel, synth_generate


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    out, truth = synth_generate(seed=42, n_cases=300, n_providers=40,
                                window_days=90, n_segments=4,
                                out_path=root / "cases.csv")
    return {"cases": out, "truth": truth, "root": root}


@pytest.fixture(scope="module")
def run(dataset, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("out")
    cfg = PipelineConfig(input_path=str(dataset["cases"]),
                         output_dir=str(outdir), window_days=90)
    return run_pipeline(cfg)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="input_path"):
        PipelineConfig(input_path="").validate()
    with pytest.raises(ConfigError, match="window_days"):
        PipelineConfig(input_path="x", window_days=0).validate()
    with pytest.raises(ConfigError, match="provider_form"):
        PipelineConfig(input_path="x", provider_form="tall").validate()
    with pytest.raises(ConfigError, match="unknown regression column"):
        PipelineConfig(input_path="x",
                       regression_columns=("age", "bogus")).validate()
    with pytest.raises(ConfigError, match="lists a column twice"):
        PipelineConfig(input_path="x",
                       regression_columns=("age", "age", "teamSize")).validate()


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`run` takes either .*? config keys \((.*?)\)\.",
                       readme, re.S)
    assert listed, "README no longer introduces the config keys"
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(
        f.name for f in fields(PipelineConfig))


def test_readme_code_names_resolve():
    # every `[surgnet.]<module>.<name>[.<attr>]` of a surgnet module that
    # README names, artifact file names such as `regression.json` aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name for m in pkgutil.iter_modules(surgnet.__path__)}
    names = {(module, rest) for module, rest in re.findall(
                 r"`(?:surgnet\.)?(\w+)\.(\w+(?:\.\w+)?)`", readme)
             if module in modules and rest not in ("tsv", "json", "py")}
    assert len(names) >= 10, "README no longer names its code"
    for module, rest in sorted(names):
        obj = importlib.import_module(f"surgnet.{module}")
        for attr in rest.split("."):
            assert hasattr(obj, attr), f"README names {module}.{rest}"
            obj = getattr(obj, attr)


def test_readme_names_every_placeholder_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"placeholder ids \((.*?)\)\. A\s+placeholder or an "
                       r"empty id is dropped", readme, re.S)
    assert listed, "README no longer lists the placeholder ids"
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(
        PLACEHOLDER_IDS - {""})


def test_config_from_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"input_path": "a.csv", "window_days": 180,
                                "output_dir": "from_config"}))
    cfg = PipelineConfig.from_file(path)
    assert cfg.input_path == "a.csv"
    assert cfg.window_days == 180
    assert cfg.output_dir == "from_config"
    # non-None overrides win; None overrides fall through to the file
    cfg = PipelineConfig.from_file(path, window_days=30, input_path=None)
    assert cfg.window_days == 30
    assert cfg.input_path == "a.csv"


def test_config_from_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        PipelineConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        PipelineConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        PipelineConfig.from_file(arr)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"input_path": "a.csv", "bogus_key": 1}))
    with pytest.raises(ConfigError, match="bogus_key"):
        PipelineConfig.from_file(unknown)


def test_config_hash_tracks_fields():
    a = PipelineConfig(input_path="x")
    b = PipelineConfig(input_path="x")
    c = PipelineConfig(input_path="x", window_days=180)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


# ---------------------------------------------------------------------------
# stage errors


def test_missing_input_is_a_data_error_with_stage_prefix(tmp_path):
    cfg = PipelineConfig(input_path=str(tmp_path / "nope.csv"),
                         output_dir=str(tmp_path / "out"))
    with pytest.raises(DataError, match="stage ingest"):
        run_pipeline(cfg)


def test_all_excluded_is_a_data_error(tmp_path):
    path = tmp_path / "young.csv"
    path.write_text(
        "case_id,day_offset,end_day_offset,age,gender,surgery_type,providers\n"
        "c1,0,3,17,M,1,a;b\n"
        "c2,4,9,19,F,2,b;c\n")
    cfg = PipelineConfig(input_path=str(path), output_dir=str(tmp_path / "out"))
    with pytest.raises(DataError, match="no cases after exclusion"):
        run_pipeline(cfg)


def test_header_only_input_is_a_data_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(
        "case_id,day_offset,end_day_offset,age,gender,surgery_type,providers\n")
    cfg = PipelineConfig(input_path=str(path), output_dir=str(tmp_path / "out"))
    with pytest.raises(DataError, match="no parseable cases"):
        run_pipeline(cfg)


def test_all_zero_outcome_is_a_convergence_error(tmp_path):
    out, _ = synth_generate(
        seed=1, n_cases=60, n_providers=15, window_days=50, n_segments=2,
        model=ComplicationModel(coefficients={"_cons": -30.0}, alpha=0.0),
        out_path=tmp_path / "zero.csv")
    cfg = PipelineConfig(input_path=str(out), output_dir=str(tmp_path / "o"),
                         window_days=50)
    with pytest.raises(ConvergenceError, match="stage regress") as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.trace == {"boundary": "all-zero response"}


def test_segment_pool_size_does_not_change_the_artifacts(dataset, tmp_path,
                                                        monkeypatch):
    cfg = PipelineConfig(input_path=str(dataset["cases"]),
                         output_dir=str(tmp_path / "out"), window_days=90)
    outputs = []
    # one worker runs the segments in turn; four run all four at once
    for workers in (1, 4):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
        outputs.append(run_pipeline(cfg, write=False).outputs)
    assert outputs[0] == outputs[1]


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    assert pipeline._usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pipeline._usable_cpus() == 3
    # os.cpu_count may not know either
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


def _pool_segments(dataset):
    cfg = PipelineConfig(input_path=str(dataset["cases"]), window_days=90)
    _, _, retained = pipeline.load_cases(cfg)
    return records.segment_cases(retained, window_days=cfg.window_days)


def _same_analyses(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.segment.index == b.segment.index
        assert a.summary == b.summary
        assert a.graph.nodes == b.graph.nodes
        assert a.measures.keys() == b.measures.keys()
        for name in a.measures:
            assert np.array_equal(a.measures[name], b.measures[name]), name


def test_the_heap_is_trimmed_once_after_every_segment_task(dataset,
                                                           monkeypatch):
    segments = _pool_segments(dataset)
    expected = pipeline.analyze_segments(segments)
    finished, lookups, trims = [], [], []
    analyze = pipeline._analyze_segment

    def task(seg):
        analysis = analyze(seg)
        finished.append(seg.index)
        return analysis

    def malloc_trim(pad):
        trims.append((pad, sorted(finished)))
        return 1

    def cdll(name):
        lookups.append(name)
        return SimpleNamespace(malloc_trim=malloc_trim)

    monkeypatch.setattr(pipeline, "_analyze_segment", task)
    monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
    got = pipeline.analyze_segments(segments)
    # one lookup of the process's own C library, one trim, after every task
    assert lookups == [None]
    assert trims == [(0, [seg.index for seg in segments])]
    _same_analyses(got, expected)


def test_a_c_library_without_malloc_trim_is_left_alone(dataset, monkeypatch):
    segments = _pool_segments(dataset)
    expected = pipeline.analyze_segments(segments)
    libc = SimpleNamespace()  # as on macOS or musl: no malloc_trim
    monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: libc)
    _same_analyses(pipeline.analyze_segments(segments), expected)
    assert vars(libc) == {}


_POOL_RSS_GROWTH = """
import ctypes, re, sys
from surgnet import pipeline, records

def rss_mb():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmRSS:\\s+(\\d+) kB", f.read())[1]) / 1024

cfg = pipeline.PipelineConfig(input_path=sys.argv[1])
_, _, retained = pipeline.load_cases(cfg)
segments = records.segment_cases(retained, window_days=cfg.window_days)
del retained
if sys.argv[2] == "kept":
    ctypes.CDLL = lambda name: None  # no library, so no malloc_trim
pipeline._usable_cpus = lambda: 4  # a worker per segment on any host
before = rss_mb()
analyses = pipeline.analyze_segments(segments)
print(rss_mb() - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the release is glibc's malloc_trim; VmRSS is read from Linux's "
           "/proc/self/status")
def test_the_segment_pool_hands_its_freed_heap_back(tmp_path):
    # about 2 s of tier-1: four dense 1 200-node segments, measured twice
    cases, _ = synth_generate(seed=7, n_cases=8000, n_providers=1200,
                              window_days=365, n_segments=4,
                              out_path=tmp_path / "cases.csv")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    growth = {}
    for heap in ("kept", "released"):
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_RSS_GROWTH, str(cases), heap],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        growth[heap] = float(proc.stdout)
    # the measures' temporaries, freed in the workers' arenas, stay
    # resident in the first child: it grows by about 12 MB, the second by 3
    assert growth["kept"] - growth["released"] >= 4.0, growth


def test_first_segment_error_wins_whatever_finishes_first(dataset, tmp_path,
                                                          monkeypatch):
    # every segment fails its eigenvector iteration; segment 1 is held back
    # so a pooled later segment fails first in time
    real_build = network.build_bipartite

    def slow_first_segment(segment):
        if segment.index == 1:
            time.sleep(0.2)
        return real_build(segment)

    monkeypatch.setattr(network, "build_bipartite", slow_first_segment)
    monkeypatch.setattr(centrality, "EIG_MAX_ITER", 1)
    cfg = PipelineConfig(input_path=str(dataset["cases"]),
                         output_dir=str(tmp_path / "out"), window_days=90)
    with pytest.raises(ConvergenceError,
                       match=r"^stage metrics \(segment 1\): eigenvector power "
                             r"iteration did not converge in 1 iterations"):
        run_pipeline(cfg, write=False)


_RUN_AND_PRINT_OUTPUTS = """
import json, sys
from surgnet.pipeline import PipelineConfig, run_pipeline
cfg = PipelineConfig(input_path=sys.argv[1], output_dir="unused")
json.dump(run_pipeline(cfg, write=False).outputs, sys.stdout)
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    cases, _ = synth_generate(seed=7, n_cases=12000, n_providers=200,
                              n_segments=2, out_path=tmp_path / "cases.csv")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_AND_PRINT_OUTPUTS, str(cases)],
            env=env, capture_output=True, text=True, check=True)
        outputs[threads] = json.loads(proc.stdout)
    for threads in ("2", "4"):
        assert outputs[threads].keys() == outputs["1"].keys()
        for name, text in outputs["1"].items():
            assert outputs[threads][name] == text, \
                f"{name} differs at {threads} BLAS threads"


# ---------------------------------------------------------------------------
# full run on the module dataset


def test_run_shape(run):
    assert len(run.analyses) == 4
    assert len(run.rows) == 300
    assert run.spearman.names == CORRELATION_COLUMNS
    assert run.estimation.negbin.model == "negbin"
    assert run.output_dir is not None


def test_rows_are_complete_and_typed(run):
    for r in run.rows:
        assert r.c >= 0
        assert 21 <= r.age <= 90
        assert r.d_male in (0, 1)
        assert 1 <= r.team_size <= 15
        for v in (r.avg_btwn, r.avg_clos, r.avg_eigen, r.avg_clust, r.avg_deg):
            assert 0.0 <= v <= 1.0


def test_expected_artifact_set(run):
    names = set(run.outputs)
    assert names == {
        "exclusions.tsv", "segments.tsv", "segments.json",
        "network_data.tsv", "network_data.json",
        "correlation.tsv", "correlation.json",
        "regression.tsv", "regression.json", "manifest.json",
        "node_metrics_seg1.tsv", "node_metrics_seg2.tsv",
        "node_metrics_seg3.tsv", "node_metrics_seg4.tsv"}
    outdir = Path(run.output_dir)
    for name in names:
        assert (outdir / name).is_file()


def test_network_data_table(run):
    lines = run.outputs["network_data.tsv"].splitlines()
    assert lines[0].split("\t") == list(ROW_COLUMNS)
    assert len(lines) == 1 + 300
    data = json.loads(run.outputs["network_data.json"])
    assert len(data) == 300
    assert set(data[0]) == set(ROW_COLUMNS)
    # the row views, rendered cell by cell, give the same bytes
    assert oracles.network_data_by_cells(run.rows, ROW_COLUMNS) == (
        run.outputs["network_data.tsv"], run.outputs["network_data.json"])


def test_segments_table(run):
    lines = run.outputs["segments.tsv"].splitlines()
    assert lines[0].split("\t") == ["measure", "1", "2", "3", "4"]
    measures = [ln.split("\t")[0] for ln in lines[1:]]
    assert measures == list(pipeline._SEGMENT_MEASURES)
    stats = json.loads(run.outputs["segments.json"])
    assert [s["segment"] for s in stats] == [1, 2, 3, 4]
    assert sum(s["cases"] for s in stats) == 300
    # the bounds are the run's segments: each starts where the one before
    # ends, and the last ends the day after the latest case starts
    assert [(s["start_day"], s["end_day_exclusive"]) for s in stats] == [
        (sa.segment.start_day, sa.segment.end_day_exclusive)
        for sa in run.analyses]
    for before, after in zip(stats, stats[1:]):
        assert after["start_day"] == before["end_day_exclusive"]
    days = np.concatenate([sa.segment.cases.day_offset for sa in run.analyses])
    assert stats[-1]["end_day_exclusive"] == int(days.max()) + 1


def test_correlation_table_is_lower_triangular(run):
    body = run.outputs["correlation.tsv"].split("\nNote:")[0]
    lines = body.splitlines()
    assert lines[0].split("\t") == ["variable"] + list(CORRELATION_COLUMNS)
    for i, line in enumerate(lines[1:]):
        cells = line.split("\t")
        assert cells[0] == CORRELATION_COLUMNS[i]
        assert len(cells) == i + 2  # name + i+1 values
        assert cells[-1].rstrip("*") == "1"  # diagonal
    assert "number of observations: 300" in run.outputs["correlation.tsv"]


def test_correlation_json_matches_result(run):
    data = json.loads(run.outputs["correlation.json"])
    assert data["columns"] == list(CORRELATION_COLUMNS)
    got = np.array(data["rho"], dtype=np.float64)
    assert got == pytest.approx(run.spearman.rho, abs=1e-12)
    assert data["n_obs"] == 300


def test_regression_report_sections(run):
    text = run.outputs["regression.tsv"]
    assert "== collinearity screening (OLS) ==" in text
    assert "== poisson ==" in text
    assert "== negative binomial ==" in text
    assert "goodness of fit\tpearson_chi2" in text
    assert "Likelihood-ratio test of alpha=0" in text
    assert "chibar2(01)" in text
    # coefficient row order: covariates then _cons, then the alpha block
    lines = text.splitlines()
    nb_at = lines.index("== negative binomial ==")
    names = [ln.split("\t")[0] for ln in lines[nb_at + 2:nb_at + 12]]
    assert names == ["age", "teamSize", "typSurgery", "avgBtwn", "avgClos",
                     "avgEigen", "dMale", "_cons", "ln_alpha", "alpha"]


def test_regression_json_round_trip(run):
    data = json.loads(run.outputs["regression.json"])
    est = run.estimation
    assert data["poisson"]["columns"] == list(est.design.columns)
    assert data["negbin"]["alpha"] == pytest.approx(est.negbin.alpha)
    assert data["lr_alpha"]["statistic"] == pytest.approx(
        est.lr_alpha.statistic)
    assert data["gof"]["df"] == est.gof.df
    assert [v["name"] for v in data["vif"]] == \
        [v.name for v in est.vifs]
    # each section's keys, pinned: a renamed or added record field fails here
    fit = {"model", "columns", "coef", "std_err", "z", "p", "ci_low",
           "ci_high", "log_likelihood", "n_obs", "iterations", "grad_max_abs"}
    assert set(data) == {"ols", "vif", "dropped_constant_covariates",
                         "poisson", "gof", "negbin", "lr_alpha"}
    assert set(data["poisson"]) == fit
    assert set(data["negbin"]) == fit | {
        "alpha", "ln_alpha", "alpha_std_err", "ln_alpha_std_err", "alpha_ci",
        "ln_alpha_ci", "alpha_boundary"}
    assert set(data["ols"]) == {"columns", "coef", "r_squared", "n_obs"}
    assert all(set(v) == {"name", "vif", "tolerance"} for v in data["vif"])
    assert set(data["gof"]) == {"pearson_chi2", "deviance", "df", "p_value"}
    assert set(data["lr_alpha"]) == {"statistic", "p_value"}


def test_recovers_generating_coefficients_loosely(run, dataset):
    truth = json.loads(Path(dataset["truth"]).read_text())
    coef = dict(zip(run.estimation.negbin.columns, run.estimation.negbin.coef))
    # 300 cases: just check sign and rough size of the strongest effect
    assert coef["teamSize"] == pytest.approx(
        truth["model"]["coefficients"]["teamSize"], abs=0.15)


def test_manifest_contents(run):
    m = run.manifest
    assert m["config_hash"] == run.config.config_hash()
    assert m["conventions"] == pipeline.CONVENTIONS
    stages = m["stages"]
    assert stages["parse"]["cases"] == 300
    assert stages["exclusions"]["retained"] == 300
    assert stages["segments"]["count"] == 4
    assert stages["join"]["rows"] == 300
    assert stages["correlate"]["n_obs"] == 300
    assert stages["regression"]["design_key"] == \
        run.estimation.design.fingerprint()
    assert stages["regression"]["columns"] == \
        list(REGRESSION_COLUMNS) + ["_cons"]
    per_seg = stages["network"]["per_segment"]
    assert [s["segment"] for s in per_seg] == [1, 2, 3, 4]
    for s in per_seg:
        assert s["nodes"] >= s["outside_largest_component"] >= 0


def test_manifest_counts_cases_with_isolated_providers(dataset, tmp_path):
    # three solo cases on two providers who work with nobody else, so two
    # isolated nodes; the base roster has none
    path = tmp_path / "cases.csv"
    path.write_text(Path(dataset["cases"]).read_text()
                    + "s1,3,5,60,M,1,solo1\ns2,4,6,60,F,1,solo1\n"
                    + "s3,100,102,60,M,1,solo2\n")
    result = run_pipeline(PipelineConfig(
        input_path=str(path), output_dir=str(tmp_path / "out"),
        window_days=90), write=False)
    network = result.manifest["stages"]["network"]
    assert network["cases_with_isolated_providers"] == 3
    isolated = sum(s["isolated_nodes"] for s in network["per_segment"])
    assert isolated == 2


def test_windows_that_hold_no_case_report_zeros(tmp_path):
    # the cases of days 100-199 move to 300-399, so the 100-day windows
    # 2 (days 100-199) and 3 (200-299) hold no case
    path = tmp_path / "cases.csv"
    synth_generate(seed=3, n_cases=600, n_providers=40, window_days=100,
                   n_segments=2, out_path=path)
    header, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for row in cells:
        if int(row[1]) >= 100:
            row[1], row[2] = str(int(row[1]) + 200), str(int(row[2]) + 200)
    path.write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(path), "--output-dir", str(out),
                     "--window-days", "100"]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["segments"]["cases_per_segment"] == [
        299, 0, 0, 301]
    for k in (2, 3):
        assert manifest["stages"]["network"]["per_segment"][k - 1] == {
            "segment": k, "cases": 0, "nodes": 0, "edges": 0,
            "isolated_nodes": 0, "outside_largest_component": 0}
    # JSON writes an int 0 as 0 and a float 0 as 0.0, so the types count
    expected = {"segment": 2, "start_day": 100, "end_day_exclusive": 200,
                "nodes": 0, "edges": 0, "cases": 0, "avg_team_size": 0.0,
                "avg_degree": 0.0, "density": 0.0, "avg_betweenness": 0.0,
                "avg_closeness": 0.0, "avg_eigenvector": 0.0,
                "avg_complications": 0.0}
    seg2 = json.loads((out / "segments.json").read_text())[1]
    assert seg2 == expected
    assert {k: type(v) for k, v in seg2.items()} == {
        k: type(v) for k, v in expected.items()}
    table = [line.split("\t")
             for line in (out / "segments.tsv").read_text().splitlines()]
    assert table[0] == ["measure", "1", "2", "3", "4"]
    assert all(row[2] == row[3] == "0" for row in table[1:])
    header = (out / "node_metrics_seg1.tsv").read_text().splitlines()[0]
    assert header.startswith("provider_id\t")
    assert (out / "node_metrics_seg2.tsv").read_text() == header + "\n"


def test_each_segment_is_labelled_once(dataset, tmp_path, monkeypatch):
    real_label, labelled = network.CoworkerGraph.component_labels, []

    def label_counting(g):
        if g._labels is None:
            labelled.append(g.n_nodes)
        return real_label(g)

    monkeypatch.setattr(network.CoworkerGraph, "component_labels",
                        label_counting)
    result = run_pipeline(PipelineConfig(
        input_path=str(dataset["cases"]), output_dir=str(tmp_path / "out"),
        window_days=90), write=False)
    assert sorted(labelled) == sorted(
        sa.graph.n_nodes for sa in result.analyses)


def test_rerun_is_byte_identical(run, dataset):
    again = run_pipeline(run.config)
    outputs, again_outputs = run.outputs, again.outputs
    assert set(again_outputs) == set(outputs) == set(again.written)
    for name, text in outputs.items():
        assert again_outputs[name] == text, f"{name} differs between reruns"
        # the files, streamed, hold what RunResult.outputs joins
        assert (Path(run.output_dir) / name).read_text() == text


def test_failed_rewrite_keeps_the_old_artifact_set(run, tmp_path):
    outdir = tmp_path / "out"
    outputs = run.outputs
    pipeline.write_outputs(outputs, outdir)
    old = {p.name: p.read_bytes() for p in outdir.iterdir()}
    changed = {name: text + "changed\n" for name, text in outputs.items()}

    def disk_full_after_one_piece(text):
        yield text
        raise OSError(28, "No space left on device")

    # the fifth file staged, network_data.json, fails part-way through
    fifth = sorted(changed)[4]
    changed[fifth] = disk_full_after_one_piece(changed[fifth])
    with pytest.raises(ConfigError, match="No space left on device"):
        pipeline.write_outputs(changed, outdir)
    # every old file whole, and no temporary file left behind
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == old


def test_write_false_renders_without_files(dataset, tmp_path):
    cfg = PipelineConfig(input_path=str(dataset["cases"]),
                         output_dir=str(tmp_path / "never"), window_days=90)
    result = run_pipeline(cfg, write=False)
    assert result.output_dir is None
    assert not (tmp_path / "never").exists()
    assert "manifest.json" in result.outputs


def test_single_provider_dataset_completes_dropping_constants(tmp_path):
    out, _ = synth_generate(seed=7, n_cases=80, n_providers=1,
                            window_days=60, n_segments=2,
                            out_path=tmp_path / "solo.csv")
    cfg = PipelineConfig(input_path=str(out),
                         output_dir=str(tmp_path / "out"), window_days=60)
    result = run_pipeline(cfg)
    dropped = set(result.estimation.design.dropped_constant)
    # one provider: teamSize is constant and every network measure is zero
    assert {"teamSize", "avgBtwn", "avgClos", "avgEigen"} <= dropped
    assert set(result.estimation.design.columns) == \
        (set(REGRESSION_COLUMNS) - dropped) | {"_cons"}
    assert result.manifest["stages"]["regression"][
        "dropped_constant_covariates"] == \
        [c for c in REGRESSION_COLUMNS if c in dropped]
    assert set(result.spearman.degenerate) >= {"avgBtwn", "avgClos", "avgEigen"}
    assert "zero-variance column(s)" in result.outputs["correlation.tsv"]


def test_sample_is_listwise_before_dropping_constant_covariates(tmp_path):
    # surgery_type is 3 on 180 cases and empty on 20: typSurgery is
    # constant on the complete rows, and its 20 gaps stay out of the fits
    out = tmp_path / "cases.csv"
    synth_generate(seed=3, n_cases=200, n_providers=30, window_days=90,
                   n_segments=2, out_path=out)
    header, *rows = out.read_text().splitlines()
    k = header.split(",").index("surgery_type")
    cells = [row.split(",") for row in rows]
    for i, row in enumerate(cells):
        row[k] = "" if i % 10 == 0 else "3"
    out.write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n")
    cfg = PipelineConfig(input_path=str(out),
                         output_dir=str(tmp_path / "out"), window_days=90)
    result = run_pipeline(cfg)
    design = result.estimation.design
    assert result.manifest["stages"]["exclusions"]["retained"] == 200
    assert design.n_obs == 180
    assert design.n_dropped_missing == 20
    assert design.dropped_constant == ("typSurgery",)
    assert result.estimation.negbin.n_obs == 180
    stage = result.manifest["stages"]["regression"]
    assert stage["rows_used"] == 180
    assert stage["rows_dropped_missing"] == 20
    assert stage["dropped_constant_covariates"] == ["typSurgery"]


def test_distinct_complications_flag_reduces_counts(dataset, tmp_path):
    base = PipelineConfig(input_path=str(dataset["cases"]),
                          output_dir=str(tmp_path / "a"), window_days=90)
    distinct = PipelineConfig(input_path=str(dataset["cases"]),
                              output_dir=str(tmp_path / "b"), window_days=90,
                              distinct_complications=True)
    total = sum(r.c for r in run_pipeline(base, write=False).rows)
    total_distinct = sum(r.c for r in run_pipeline(distinct, write=False).rows)
    assert total_distinct <= total
    assert total_distinct > 0


# ---------------------------------------------------------------------------
# network_data.tsv / .json rendered a column at a time, in row chunks


def _row(**values):
    """One joined row in ROW_COLUMNS order, None where a value is missing."""
    rec = {"case_id": "c1", "segment": 1, "C": 0, "age": 50, "teamSize": 2,
           "typSurgery": 1, "dMale": 1, "avgBtwn": 0.1, "avgClos": 0.25,
           "avgEigen": 1.0, "avgClust": 0.0, "avgDeg": 1 / 3}
    rec.update(values)
    return tuple(rec[name] for name in ROW_COLUMNS)


def _table(rows):
    """The joined table's columns holding ``rows``."""
    columns = list(zip(*rows)) or [()] * len(ROW_COLUMNS)
    table = {"case_id": list(columns[0])}
    for name, values in zip(ROW_COLUMNS[1:], columns[1:]):
        if name.startswith("avg"):
            table[name] = np.array(values, dtype=np.float64)
        else:
            table[name] = np.array([MISSING if v is None else v
                                    for v in values], dtype=np.int64)
    return table


def _network_data(table):
    """network_data.tsv and .json, each joined from its pieces."""
    return ("".join(pipeline._tsv_pieces(table)),
            "".join(pipeline._network_json_pieces(table)))


INT64 = st.integers(MISSING + 1, 2 ** 63 - 1)
MEAN = st.floats(allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0000001e-300])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.text(max_size=8), st.integers(1, 40),
    st.integers(0, 60) | st.just(2 ** 63 - 1),
    st.none() | st.integers(-5, 200) | INT64, st.integers(1, 20),
    st.none() | INT64, st.integers(0, 1), MEAN, MEAN, MEAN, MEAN, MEAN),
    max_size=6))
@example([])
@example([_row(), _row(age=None, typSurgery=None),
          _row(avgBtwn=float("nan"), avgDeg=np.float64("nan")),
          _row(case_id='q"uo\\te\n'),
          _row(case_id="ca\u00efs\u00e9-\u2713-\U0001f600"),
          _row(avgClos=1e-300, avgEigen=-0.0, C=2 ** 63 - 1),
          _row(avgBtwn=5e-324, avgClust=1.0, avgDeg=0.0)])
def test_network_data_columns_render_like_the_per_cell_reference(rows):
    tsv, json_text = oracles.network_data_by_cells(rows, ROW_COLUMNS)
    # chunks of two rows put a chunk boundary inside most tables drawn
    with mock.patch.object(pipeline, "_CHUNK_ROWS", 2):
        assert _network_data(_table(rows)) == (tsv, json_text)
    assert json_text == pipeline._json_text(
        [dict(zip(ROW_COLUMNS, r)) for r in rows])


def test_json_artifacts_write_null_for_nan_and_infinities():
    # an NB2 alpha interval can end at inf (its ln-alpha error is vast)
    assert pipeline._json_text({"alpha_ci": (0.0, np.inf), "p": np.nan,
                                "low": -np.inf}) == \
        '{\n  "alpha_ci": [\n    0.0,\n    null\n  ],\n  "low": null,\n' \
        '  "p": null\n}\n'


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4])
def test_network_data_chunk_boundaries(n_rows, monkeypatch):
    # no rows, one row, exactly one chunk, one chunk and one row
    monkeypatch.setattr(pipeline, "_CHUNK_ROWS", 3)
    rows = [_row(case_id=f"c{i}", C=i, avgBtwn=i / 7) for i in range(n_rows)]
    table = _table(rows)
    assert _network_data(table) == oracles.network_data_by_cells(
        rows, ROW_COLUMNS)
    chunks = -(-n_rows // 3)
    # the TSV's header, the JSON's closing bracket, a piece per chunk
    assert len(list(pipeline._tsv_pieces(table))) == 1 + chunks
    assert len(list(pipeline._network_json_pieces(table))) == 1 + chunks


def test_streamed_network_data_keeps_the_traced_peak_small(tmp_path,
                                                           monkeypatch):
    # rendered whole, the JSON text takes several times its own size in
    # memory; streamed 256 rows at a time, a small part of it
    monkeypatch.setattr(pipeline, "_CHUNK_ROWS", 256)
    n, rng = 20_000, np.random.default_rng(5)
    table = {"case_id": [f"case-{i:06d}" for i in range(n)]}
    for name in ROW_COLUMNS[1:]:
        table[name] = (rng.random(n) if name.startswith("avg")
                       else rng.integers(0, 90, n))
    tracemalloc.start()
    try:
        pipeline.write_outputs({
            "network_data.tsv": pipeline._tsv_pieces(table),
            "network_data.json": pipeline._network_json_pieces(table)},
            tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "network_data.json").stat().st_size / 4
