"""Command-line interface: subcommands, exit codes, output routing."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from surgnet import cli, pipeline
from surgnet.complications import ComplicationCodeset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    out = root / "cases.csv"
    rc = cli.main(["synth", "--seed", "11", "--cases", "150",
                   "--providers", "30", "--window-days", "80",
                   "--segments", "3", "--out", str(out)])
    assert rc == 0
    return out


def test_synth_writes_case_file_and_truth(dataset, capsys):
    assert dataset.is_file()
    truth = json.loads((dataset.parent / "cases.truth.json").read_text())
    assert truth["n_cases"] == 150


def test_synth_coef_and_alpha_overrides(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = cli.main(["synth", "--seed", "1", "--cases", "20", "--providers", "5",
                   "--coef", "teamSize=0.4", "--coef", "_cons=-2",
                   "--alpha", "0.3", "--out", str(out)])
    assert rc == 0
    truth = json.loads((tmp_path / "s.truth.json").read_text())
    assert truth["model"]["coefficients"]["teamSize"] == 0.4
    assert truth["model"]["coefficients"]["_cons"] == -2.0
    assert truth["model"]["alpha"] == 0.3


def test_synth_bad_coef_is_config_error(tmp_path, capsys):
    rc = cli.main(["synth", "--coef", "teamSize", "--out",
                   str(tmp_path / "x.csv")])
    assert rc == 2
    assert "NAME=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--alpha", "nan"], ["--alpha", "inf"], ["--coef", "age=nan"],
    ["--coef", "age=1e6"], ["--coef", "_cons=800"], ["--coef", "age=abc"],
    ["--seed", "-1"],
    ["--window-days", "3000000000000000000"]])
def test_synth_bad_numbers_are_config_errors(tmp_path, capsys, bad):
    rc = cli.main(["synth", "--cases", "20", "--providers", "5",
                   "--out", str(tmp_path / "s.csv"), *bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--truth-out"])
def test_synth_into_a_missing_directory_is_config_error(tmp_path, capsys,
                                                        flag):
    target = tmp_path / "absent" / "x.csv"
    argv = ["synth", "--cases", "20", "--providers", "5",
            "--out", str(tmp_path / "s.csv"), flag, str(target)]
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(target) in err
    assert err.count("\n") == 1
    # neither file, nor a temporary one, is left behind
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("truth", ["a.csv", "../d/a.csv"])
def test_synth_truth_out_naming_the_case_file_is_config_error(tmp_path, capsys,
                                                              truth):
    folder = tmp_path / "d"
    folder.mkdir()
    rc = cli.main(["synth", "--cases", "20", "--providers", "5",
                   "--out", str(folder / "a.csv"),
                   "--truth-out", str(folder / truth)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(folder.iterdir()) == []


def test_ingest_check(dataset, capsys):
    rc = cli.main(["ingest-check", str(dataset)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cases parsed\t150" in out
    assert "retained\t150" in out
    assert "excluded (age)\t0" in out


def test_ingest_check_prints_every_diagnostic(dataset, tmp_path, capsys):
    header, *rows = dataset.read_text().splitlines()
    # a non-numeric age skips the row with a diagnostic
    bad = [row.split(",") for row in rows[:12]]
    for row in bad:
        row[3] = "old"
    case = tmp_path / "cases.csv"
    case.write_text("\n".join([header] + [",".join(r) for r in bad]
                              + rows[12:]) + "\n")
    assert cli.main(["ingest-check", str(case)]) == 0
    out = capsys.readouterr().out
    assert "parse diagnostics\t12" in out
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("  row ")] == \
        [f"  row {k}" for k in range(2, 14)]
    assert "more" not in out


@pytest.mark.parametrize("command", ["ingest-check", "run"])
def test_oversized_cell_is_a_diagnostic(dataset, tmp_path, capsys, command):
    text = dataset.read_text()
    big = ";".join(["p"] * 100_000)
    header, first, rest = text.split("\n", 2)
    case = tmp_path / "cases.csv"
    case.write_text("\n".join([header, first, f"big,0,5,60,M,6,{big}", rest]))
    argv = {"ingest-check": ["ingest-check", str(case)],
            "run": ["run", "--input", str(case), "--window-days", "80",
                    "--output-dir", str(tmp_path / "o")]}[command]
    assert cli.main(argv) == 0
    if command == "ingest-check":
        out = capsys.readouterr().out
        assert "cases parsed\t150" in out
        assert "row 3: skipped unreadable row: field larger than" in out
    else:
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["stages"]["parse"]["diagnostics"] == 1


def test_oversized_header_cell_is_data_error(tmp_path, capsys):
    case = tmp_path / "cases.csv"
    case.write_text("x" * 200_000 + ",case_id\nc1\n")
    assert cli.main(["ingest-check", str(case)]) == 3
    err = capsys.readouterr().err
    assert str(case) in err and "field limit" in err and err.count("\n") == 1


# What the stage commands printed, read from the files `run` writes.

@pytest.fixture(scope="module")
def run_outdir(dataset, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("clirun") / "out"
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(outdir)])
    assert rc == 0
    return outdir


def test_segment_table(run_outdir):
    header = (run_outdir / "segments.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["measure", "1", "2", "3"]
    stats = json.loads((run_outdir / "segments.json").read_text())
    assert [s["segment"] for s in stats] == [1, 2, 3]
    # 80-day windows anchored at the earliest case
    assert [(s["start_day"], s["end_day_exclusive"]) for s in stats] == [
        (0, 80), (80, 160), (160, 240)]


def test_metrics_writes_tables_and_edges(run_outdir):
    stats = json.loads((run_outdir / "segments.json").read_text())
    for k, seg in zip((1, 2, 3), stats):
        lines = (run_outdir / f"node_metrics_seg{k}.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "provider_id", "degree_raw", "degree", "betweenness",
            "closeness", "eigenvector", "clustering"]
        rows = [ln.split("\t") for ln in lines[1:]]
        ids = [r[0] for r in rows]
        assert ids == sorted(ids) and len(ids) == seg["nodes"]
        # each edge counts once at both of its ends
        assert sum(int(r[1]) for r in rows) == 2 * seg["edges"]


def test_metrics_edges_with_a_directory_in_the_way_is_config_error(
        dataset, tmp_path, capsys):
    outdir = tmp_path / "m"
    (outdir / "node_metrics_seg1.tsv").mkdir(parents=True)
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: stage emit: cannot write {outdir}")
    assert err.count("\n") == 1
    # no node table written beside it, and no temporary file left behind
    assert [p.name for p in outdir.iterdir()] == ["node_metrics_seg1.tsv"]


def test_outcomes_lists_counts(dataset, run_outdir):
    lines = (run_outdir / "network_data.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["case_id", "segment", "C"]
    assert len(lines) == 151
    rows = [ln.split("\t") for ln in lines[1:]]
    # one row per case of the input, each with its count
    with dataset.open(newline="") as f:
        case_ids = [row["case_id"] for row in csv.DictReader(f)]
    assert sorted(r[0] for r in rows) == sorted(case_ids)
    assert all(int(r[2]) >= 0 for r in rows)


def test_correlate_prints_matrix(run_outdir):
    out = (run_outdir / "correlation.tsv").read_text()
    assert out.splitlines()[0].split("\t") == [
        "variable", "avgBtwn", "avgClos", "avgEigen", "avgClust", "avgDeg"]
    assert "number of observations: 150" in out


def test_regress_prints_fits(run_outdir):
    out = (run_outdir / "regression.tsv").read_text()
    assert "== poisson ==" in out
    assert "== negative binomial ==" in out
    assert "Likelihood-ratio test of alpha=0" in out


def test_run_full_pipeline(dataset, tmp_path, capsys, monkeypatch):
    def whole_texts(result):
        raise AssertionError("run rendered every artifact's whole text")

    # the files are streamed; nothing on the run path builds outputs
    monkeypatch.setattr(pipeline.RunResult, "outputs", property(whole_texts))
    outdir = tmp_path / "run_out"
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cases used\t150" in out
    assert "segments\t3" in out
    assert "negbin alpha" in out
    assert f"outputs\t{outdir} (13 files)" in out
    assert len(list(outdir.iterdir())) == 13
    assert (outdir / "manifest.json").is_file()
    assert (outdir / "regression.tsv").is_file()
    for k in (1, 2, 3):
        header = (outdir / f"node_metrics_seg{k}.tsv").read_text().split("\n")[0]
        assert header.split("\t") == [
            "provider_id", "degree_raw", "degree", "betweenness",
            "closeness", "eigenvector", "clustering"]


def test_run_with_a_directory_in_the_way_is_config_error(dataset, tmp_path,
                                                         capsys):
    outdir = tmp_path / "out"
    (outdir / "manifest.json").mkdir(parents=True)
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: stage emit: cannot write {outdir}")
    assert err.count("\n") == 1
    # nothing written beside it, and no temporary file left behind
    assert [p.name for p in outdir.iterdir()] == ["manifest.json"]


def test_run_under_a_regular_file_is_config_error(dataset, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n")
    outdir = tmp_path / "file" / "out"
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: stage emit: cannot create output dir {outdir}")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_run_removes_tables_of_segments_it_no_longer_has(dataset, tmp_path,
                                                        capsys):
    outdir = tmp_path / "out"
    run = ["run", "--input", str(dataset), "--output-dir", str(outdir)]

    def tables():
        return sorted(p.name for p in outdir.glob("node_metrics*"))

    assert cli.main(run + ["--window-days", "80"]) == 0
    # names no run writes: str(k) has no leading zero or non-ASCII digit
    others = ["node_metrics_seg01.tsv", "node_metrics_seg_notes.tsv",
              "node_metrics_seg\u00b2.tsv", "node_metrics_seg\u0663.tsv"]
    for name in others:
        (outdir / name).write_text("not a table\n")
    assert tables() == sorted(["node_metrics_seg1.tsv", "node_metrics_seg2.tsv",
                               "node_metrics_seg3.tsv"] + others)
    # one segment now: the tables of segments 2 and 3 go
    assert cli.main(run + ["--window-days", "100000"]) == 0
    assert tables() == sorted(["node_metrics_seg1.tsv"] + others)
    assert len(list(outdir.iterdir())) == 11 + 4  # the run's files, others
    # a table that cannot be removed is a config error
    (outdir / "node_metrics_seg7.tsv").mkdir()
    capsys.readouterr()
    assert cli.main(run + ["--window-days", "100000"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: stage emit: cannot remove stale tables from {outdir}")


def test_run_without_input_is_config_error(capsys):
    rc = cli.main(["run"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: run needs --input (or --config with input_path)\n")


def test_ingest_check_without_input_is_config_error(capsys):
    # the message names the command run, and ingest-check takes no --config
    rc = cli.main(["ingest-check", ""])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: ingest-check needs an input file\n")


def test_run_with_config_file(dataset, tmp_path, capsys):
    outdir = tmp_path / "cfg_out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input_path": str(dataset), "window_days": 80,
        "output_dir": str(outdir)}))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 0
    assert (outdir / "manifest.json").is_file()
    # flag overrides the config file
    outdir2 = tmp_path / "cfg_out2"
    rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(outdir2)])
    assert rc == 0
    assert (outdir2 / "manifest.json").is_file()


# the eigenvector limits are constants of centrality, not config keys
@pytest.mark.parametrize("key", ["bogus", "eig_tol", "eig_max_iter"])
def test_run_unknown_config_key_is_config_error(dataset, tmp_path, capsys,
                                                key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input_path": str(dataset), key: 1}))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 2
    assert f"unknown config key(s): ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("window_days", "365"),
    ("codeset", None),
    ("window_days", True),
    ("provider_form", None),
    ("delimiter", ";;"),
    ("output_dir", 5),
    ("distinct_complications", "yes"),
    ("regression_columns", "age"),
    ("regression_columns", [1]),
    ("window_days", 10**30),
    ("distinct_complications", 0),
])
def test_run_mistyped_config_value_is_config_error(dataset, tmp_path, capsys,
                                                   key, value):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"input_path": str(dataset), key: value}))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest-check", "run"])
def test_bad_delimiter_flag_is_config_error(dataset, tmp_path, capsys,
                                            command):
    argv = {"ingest-check": ["ingest-check", str(dataset)],
            "run": ["run", "--input", str(dataset),
                    "--output-dir", str(tmp_path / "o")]}[command]
    rc = cli.main(argv + ["--delimiter", "ab"])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "delimiter" in err and err.count("\n") == 1


def test_run_config_without_input_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "no_input.json"
    cfg.write_text(json.dumps({"window_days": 80}))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "needs --input" in err and err.count("\n") == 1


def _not_utf8(path, text):
    path.write_bytes(text.encode() + b"\xff\xfe\n")
    return path


@pytest.mark.parametrize("argv", [
    ["ingest-check", "{case}"],
    ["run", "--input", "{case}", "--output-dir", "{out}"],
])
def test_undecodable_case_file_is_data_error(tmp_path, capsys, argv):
    case = _not_utf8(tmp_path / "cases.csv",
                     "case_id,day_offset,end_day_offset,age,gender,"
                     "surgery_type,providers\nc1,0,3,50,M,1,a;b\nc2,")
    rc = cli.main([a.format(case=case, out=tmp_path / "o") for a in argv])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(case) in err and err.count("\n") == 1


def test_undecodable_config_file_is_config_error(dataset, tmp_path, capsys):
    cfg = _not_utf8(tmp_path / "cfg.json",
                    json.dumps({"input_path": str(dataset)}))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and err.count("\n") == 1


def test_undecodable_codeset_file_is_data_error(tmp_path, capsys):
    codes = _not_utf8(tmp_path / "codes.tsv", "996.5\tMechanical complication\n")
    rc = cli.main(["dump-codeset", "--codeset", str(codes)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(codes) in err and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["case", "codeset", "config"])
def test_a_leading_byte_order_mark_is_skipped(dataset, tmp_path, capsys, kind):
    files = {"case": tmp_path / "cases.csv", "codeset": tmp_path / "codes.tsv",
             "config": tmp_path / "cfg.json"}
    files["case"].write_text("case_id,day_offset,end_day_offset,age,gender,"
                             "surgery_type,providers\nc1,0,3,50,M,1,a;b\n")
    files["codeset"].write_text("996.5\tMechanical complication\n")
    files["config"].write_text(json.dumps({
        "input_path": str(dataset), "window_days": 80,
        "output_dir": str(tmp_path / "out")}))
    argv = {"case": ["ingest-check", str(files["case"])],
            "codeset": ["dump-codeset", "--codeset", str(files["codeset"])],
            "config": ["run", "--config", str(files["config"])]}[kind]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    path = files[kind]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs about half a second of import time in every run,
    # and synth and dump-codeset need no scipy module at all
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, surgnet.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    out = tmp_path / "s.csv"
    code = ("import sys, surgnet.synth; from surgnet import cli; "
            f"assert cli.main(['synth', '--cases', '20', '--out', {str(out)!r}])"
            " == 0; assert cli.main(['dump-codeset']) == 0; "
            "sys.exit(' '.join(m for m in sys.modules"
            " if m.startswith('scipy')) or None)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out.is_file()


def test_run_leaves_scipy_linear_algebra_unloaded(dataset, tmp_path):
    # the graph labels its own components, so a whole run needs neither
    # csgraph nor the sparse and dense linear algebra that csgraph loads;
    # its p-values and log-factorials come from surgnet.tails, not from
    # scipy.special; and its sparse products call scipy's compiled kernel
    # loaded from its file, so scipy.sparse, whose array-API layer loads
    # numpy's lazy submodules, stays out too. A later ordinary import of
    # scipy.sparse still works and multiplies as the run did, and so does
    # the fallback load through scipy.sparse.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    unloaded = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg",
                "scipy.linalg", "scipy.special", "scipy._lib._array_api",
                "numpy.f2py", "numpy.testing", "numpy.ma")
    code = f"""
import sys
from unittest import mock
import numpy as np
from surgnet import cli, csr
assert cli.main(['run', '--input', {str(dataset)!r},
                 '--output-dir', {str(tmp_path / 'out')!r}]) == 0
loaded = [m for m in {unloaded!r} if m in sys.modules]
assert not loaded, loaded
with mock.patch.object(csr, '_kernel_path', return_value=None):
    fallback = csr._load_kernel()
import scipy.sparse
assert fallback is scipy.sparse._sparsetools
m = scipy.sparse.random(50, 40, density=0.2, format='csr', random_state=3)
m.data[:] = 1.0
a = csr.Csr(m.indptr, m.indices, 40)
x = np.random.default_rng(3).standard_normal((40, 7))
assert np.array_equal(a @ x, m @ x) and np.array_equal(a @ x[:, 0], m @ x[:, 0])
with mock.patch.object(csr, '_KERNEL', fallback):
    assert np.array_equal(a @ x, m @ x)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_env_output_dir_and_flag_precedence(dataset, tmp_path, monkeypatch,
                                            capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(env_dir))
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80"])
    assert rc == 0
    assert (env_dir / "manifest.json").is_file()
    flag_dir = tmp_path / "from_flag"
    rc = cli.main(["run", "--input", str(dataset), "--window-days", "80",
                   "--output-dir", str(flag_dir)])
    assert rc == 0
    assert (flag_dir / "manifest.json").is_file()


@pytest.mark.parametrize("form", ["config", "flag"])
def test_empty_output_dir_is_config_error(dataset, tmp_path, monkeypatch,
                                          capsys, form):
    # an empty path would put every artifact into the working directory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(dataset), "output_dir": ""}))
    argv = {"config": ["run", "--config", str(cfg)],
            "flag": ["run", "--input", str(dataset), "--output-dir", ""]}[form]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: output_dir must be a non-empty path, got ''\n")
    assert list(work.iterdir()) == []


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = cli.main(["ingest-check", str(tmp_path / "absent.csv")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_all_excluded_is_data_error(tmp_path, capsys):
    path = tmp_path / "young.csv"
    path.write_text(
        "case_id,day_offset,end_day_offset,age,gender,surgery_type,providers\n"
        "c1,0,3,15,M,1,a;b\n")
    rc = cli.main(["run", "--input", str(path),
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "no cases after exclusion" in capsys.readouterr().err


def test_all_zero_outcomes_exit_code(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    rc = cli.main(["synth", "--seed", "2", "--cases", "40", "--providers", "8",
                   "--coef", "_cons=-30", "--alpha", "0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["run", "--input", str(out),
                   "--output-dir", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "convergence error" in err
    assert "trace" in err


def test_dump_codeset(capsys):
    rc = cli.main(["dump-codeset"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 39
    assert lines[0].startswith("996.0\t")
    embedded = ComplicationCodeset.embedded()
    assert [ln.split("\t")[0] for ln in lines] == \
        [e.prefix for e in embedded]


def test_dump_codeset_from_file(tmp_path, capsys):
    path = tmp_path / "codes.tsv"
    path.write_text("996.5\tMechanical complication\n")
    rc = cli.main(["dump-codeset", "--codeset", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == "996.5\tMechanical complication\n"


@pytest.mark.parametrize("name", ["segment", "metrics", "outcomes",
                                  "correlate", "regress"])
def test_removed_stage_commands_are_usage_errors(dataset, capsys, name):
    # run writes everything these printed; argparse rejects the name
    with pytest.raises(SystemExit) as exc_info:
        cli.main([name, str(dataset)])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: surgnet ")
    assert f"invalid choice: {name!r}" in captured.err


def test_readme_cli_table_names_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([\w-]+)` \|", section, re.M)
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(commands)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("surgnet ")
