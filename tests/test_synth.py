"""Synthetic case generator: determinism, shape, and round-tripping."""

import json

import numpy as np
import pytest

from surgnet.complications import ComplicationCodeset, count_complications
from surgnet.errors import ConfigError
from surgnet.records import apply_exclusions, parse_cases, segment_cases
from surgnet.synth import (
    DEFAULT_COEFFICIENTS,
    ComplicationModel,
    generate_cases,
    synth_generate,
)


def test_same_seed_reproduces_everything():
    a = generate_cases(seed=101, n_cases=60, n_providers=25)
    b = generate_cases(seed=101, n_cases=60, n_providers=25)
    assert a == b


def test_different_seed_differs():
    a = generate_cases(seed=101, n_cases=60, n_providers=25)
    b = generate_cases(seed=102, n_cases=60, n_providers=25)
    assert a != b


def test_row_shape_and_ranges():
    header, rows, truth = generate_cases(seed=5, n_cases=120, n_providers=30,
                                         window_days=100, n_segments=3)
    assert header[:7] == ["case_id", "day_offset", "end_day_offset", "age",
                          "gender", "surgery_type", "providers"]
    assert all(h.startswith("dx_") for h in header[7:])
    assert len(rows) == 120
    ids = [r[0] for r in rows]
    assert len(set(ids)) == 120
    for row in rows:
        assert len(row) == len(header)
        day, end = int(row[1]), int(row[2])
        assert 0 <= day < 300
        assert end > day  # positive stay, never a same-day discharge
        assert 21 <= int(row[3]) <= 90
        assert row[4] in ("M", "F")
        assert 1 <= int(row[5]) <= 10
        team = row[6].split(";")
        assert 1 <= len(team) <= 15
        assert len(set(team)) == len(team)
        assert all(p.startswith("p") for p in team)


def test_day_endpoints_pinned_for_segment_count():
    for seed in (1, 2, 3, 4, 5):
        _, rows, _ = generate_cases(seed=seed, n_cases=50, n_providers=10,
                                    window_days=73, n_segments=4)
        days = [int(r[1]) for r in rows]
        assert min(days) == 0
        assert max(days) == 73 * 4 - 1


def test_generated_file_parses_cleanly_and_survives_exclusions(tmp_path):
    out, truth_path = synth_generate(
        seed=9, n_cases=200, n_providers=40, window_days=90, n_segments=4,
        out_path=tmp_path / "cases.csv")
    cases, diagnostics = parse_cases(out)
    assert diagnostics == []
    assert len(cases) == 200
    retained, report = apply_exclusions(cases)
    assert len(retained) == 200
    assert all(v == 0 for v in report.values())
    segments = segment_cases(retained, window_days=90)
    assert len(segments) == 4


def test_complication_counts_follow_recorded_model(tmp_path):
    out, truth_path = synth_generate(
        seed=33, n_cases=3000, n_providers=60,
        out_path=tmp_path / "cases.csv")
    truth = json.loads((tmp_path / "cases.truth.json").read_text())
    cases, _ = parse_cases(out)
    codeset = ComplicationCodeset.embedded()
    counts = count_complications(cases, codeset)
    assert np.mean(counts) == pytest.approx(truth["mean_count"], abs=1e-9)
    # overdispersion should be visible at alpha = 0.8
    assert np.var(counts) > 1.5 * np.mean(counts)


def test_truth_sidecar_contents(tmp_path):
    out, truth_path = synth_generate(
        seed=77, n_cases=50, n_providers=12, window_days=30, n_segments=2,
        out_path=tmp_path / "syn.csv")
    assert truth_path == str(tmp_path / "syn.truth.json")
    truth = json.loads((tmp_path / "syn.truth.json").read_text())
    assert truth["seed"] == 77
    assert truth["n_cases"] == 50
    assert truth["n_providers"] == 12
    assert truth["window_days"] == 30
    assert truth["n_segments"] == 2
    assert truth["model"]["coefficients"] == {
        k: float(v) for k, v in DEFAULT_COEFFICIENTS.items()}
    assert truth["model"]["alpha"] == 0.8
    assert truth["model"]["network_coefficients"] == {
        "avgBtwn": 0.0, "avgClos": 0.0, "avgEigen": 0.0}
    assert truth["dx_truncated_cases"] >= 0


def test_custom_model_and_poisson_branch(tmp_path):
    model = ComplicationModel(coefficients={"teamSize": 0.3, "_cons": -0.5},
                              alpha=0.0)
    header, rows, truth = generate_cases(seed=3, n_cases=400, n_providers=20,
                                         model=model)
    assert truth["model"]["alpha"] == 0.0
    assert truth["model"]["coefficients"] == {"_cons": -0.5, "teamSize": 0.3}
    assert truth["mean_count"] > 0


def test_model_validation():
    with pytest.raises(ConfigError, match="not known at generation"):
        ComplicationModel(coefficients={"avgBtwn": 0.2})
    with pytest.raises(ConfigError, match="non-negative"):
        ComplicationModel(alpha=-0.1)


def test_generate_parameter_validation():
    with pytest.raises(ConfigError, match="n_cases"):
        generate_cases(seed=1, n_cases=0, n_providers=5)
    with pytest.raises(ConfigError, match="window_days"):
        generate_cases(seed=1, n_cases=5, n_providers=5, window_days=0)


def test_single_provider_teams():
    _, rows, _ = generate_cases(seed=6, n_cases=30, n_providers=1)
    assert all(r[6] == "p1" for r in rows)
