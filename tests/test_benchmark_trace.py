"""The benchmark's traced mode (``benchmarks/tracing.py``) reaches into the
program from outside: it patches functions by name and reads the run's
rows and segment cases. These tests keep those hooks working."""

import json
import sys
from pathlib import Path

import pytest

from surgnet.synth import synth_generate

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCHMARKS))
    return tracing


def test_every_traced_name_resolves(tracing):
    for owner, attr, name in tracing.TRACED:
        assert attr in owner.__dict__, f"{name}: no {attr} on {owner.__name__}"


def test_traced_replay_counts_match_the_artifacts(tracing, tmp_path):
    cases, _ = synth_generate(seed=5, n_cases=300, n_providers=40,
                              n_segments=2, out_path=tmp_path / "cases.csv")
    outdir = tmp_path / "out"
    metrics, modules = tracing.replay(cases, str(outdir),
                                      str(tmp_path / "trace.json"))
    rows = json.loads((outdir / "network_data.json").read_text())
    assert metrics["pipeline.rows"] == len(rows) == 300
    assert metrics["records.cases_retained"] == 300
    assert metrics["complications.matched"] == sum(r["C"] for r in rows) > 0
    assert metrics["network.clique_pairs"] == sum(
        r["teamSize"] * (r["teamSize"] - 1) // 2 for r in rows)
    assert metrics["complications.dx_codes"] > 0
    # the pipeline calls every stage by the name the tracer patches
    for name in ("records.parse_s", "records.segment_s", "network.bipartite_s",
                 "complications.count_s", "pipeline.assemble_rows_s",
                 "pipeline.emit_s"):
        assert metrics[name] > 0, name
    assert modules["pipeline"] > 0
