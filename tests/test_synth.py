"""Synthetic case generator: determinism, shape, and round-tripping."""

import json

import numpy as np
import pytest

import oracles
from surgnet import synth
from surgnet.complications import ComplicationCodeset, count_complications
from surgnet.errors import ConfigError
from surgnet.records import (MAX_DX_CODES, apply_exclusions, parse_cases,
                             segment_cases)
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
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            ComplicationModel(alpha=alpha)
    for value in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError, match="finite"):
            ComplicationModel(coefficients={"age": value})


def test_generate_parameter_validation():
    with pytest.raises(ConfigError, match="n_cases"):
        generate_cases(seed=1, n_cases=0, n_providers=5)
    with pytest.raises(ConfigError, match="window_days"):
        generate_cases(seed=1, n_cases=5, n_providers=5, window_days=0)
    with pytest.raises(ConfigError, match="seed"):
        generate_cases(seed=-1, n_cases=5, n_providers=5)
    with pytest.raises(ConfigError, match="window_days"):
        generate_cases(seed=1, n_cases=5, n_providers=5,
                       window_days=3 * 10 ** 18)
    # the last day fits an int64, but not with its stay added
    with pytest.raises(ConfigError, match="stay"):
        generate_cases(seed=1, n_cases=5, n_providers=5,
                       window_days=2 ** 63 - 2, n_segments=1)
    # means beyond what rng.poisson draws, under both count models
    for coef, alpha in (({"age": 1e6}, 0.8), ({"_cons": 800.0}, 0.0),
                        ({"age": 1e306}, 0.8)):
        model = ComplicationModel(coefficients=coef, alpha=alpha)
        with pytest.raises(ConfigError, match="cannot be drawn"):
            generate_cases(seed=1, n_cases=5, n_providers=5, model=model)


ROSTERS = (1, 2, 3, 5, 25, 100, 1200)


def _team_sizes(rng, n_cases, n_providers):
    """Team sizes as generate_cases draws them, then every team full."""
    sizes = np.minimum(n_providers,
                       np.clip(2 + rng.poisson(6.0, size=n_cases), 1, 15))
    return np.concatenate([sizes, np.full(n_cases, min(n_providers, 15))])


@pytest.mark.parametrize("chunk", [7, synth._TEAM_CHUNK])
@pytest.mark.parametrize("n_cases", [1, 300])
@pytest.mark.parametrize("n_providers", ROSTERS)
def test_team_draw_replays_generator_choice(monkeypatch, n_providers, n_cases,
                                            chunk):
    # a chunk smaller than a team refills mid-team and mid-redraw
    monkeypatch.setattr(synth, "_TEAM_CHUNK", chunk)
    weights = 1.0 / np.arange(1, n_providers + 1) ** 0.7
    weights /= weights.sum()
    for seed in (0, 1, 20240601):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, theirs):
            # leave half a 64-bit output buffered, as generate_cases does
            rng.integers(0, 1000, size=3)
        sizes = _team_sizes(np.random.default_rng(seed), n_cases, n_providers)
        got = synth._draw_teams(ours, sizes, weights)
        want = oracles.teams_by_choice(theirs, sizes, weights)
        assert got == [t.tolist() for t in want]
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()
        assert ours.integers(0, 5, size=9).tolist() == \
            theirs.integers(0, 5, size=9).tolist()


DX_CODES = (tuple(e.prefix for e in ComplicationCodeset.embedded()),
            synth._BENIGN_CODES)


@pytest.mark.parametrize("chunk", [3, synth._DX_CHUNK])
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("n_cases", [1, 400])
def test_dx_draw_replays_integers_and_shuffle(monkeypatch, n_cases, held,
                                              chunk):
    # a chunk of three outputs refills mid-case, mid-shuffle and mid-redraw
    monkeypatch.setattr(synth, "_DX_CHUNK", chunk)
    for seed in (0, 1, 20240601):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if held:
            for rng in (ours, theirs):
                # leave half a 64-bit output buffered
                rng.integers(0, 1000, size=3)
        # counts of 0 to 59, some past MAX_DX_CODES with the fill codes
        counts = np.random.default_rng(seed).integers(0, 60, size=n_cases)
        counts[::2] //= 20
        got = synth._draw_dx(ours, counts, *DX_CODES)
        want = oracles.dx_by_integers_and_shuffle(theirs, counts, *DX_CODES)
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(0, 5, size=9).tolist() == \
            theirs.integers(0, 5, size=9).tolist()


# seed 0 advanced this many outputs: the high half of the next one is a
# word that integers(0, 39) rejects, which happens with probability 22/2**32
_LEMIRE_REJECT_AT = 71_676_296


@pytest.mark.parametrize("counts", [[1], [1, 2, 3], [3, 0, 5]])
@pytest.mark.parametrize("lead", [0, 1, 2, 3])
def test_dx_draw_replays_a_rejected_complication_draw(counts, lead):
    m = len(DX_CODES[0])
    probe = np.random.default_rng(0)
    probe.bit_generator.advance(_LEMIRE_REJECT_AT)
    high = int(probe.bit_generator.random_raw()) >> 32
    assert m == 39 and (high * m) & 0xFFFFFFFF < (2**32 - m) % m
    # with no lead, the first case's n_fill takes the low half and its
    # first complication code the rejected high half
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    for rng in (ours, theirs):
        rng.bit_generator.advance(_LEMIRE_REJECT_AT - lead)
    got = synth._draw_dx(ours, np.array(counts), *DX_CODES)
    assert got == oracles.dx_by_integers_and_shuffle(theirs, np.array(counts),
                                                     *DX_CODES)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("alpha", [0.0, 0.8])
@pytest.mark.parametrize("n_cases", [1, 300])
@pytest.mark.parametrize("n_providers", ROSTERS)
def test_generate_cases_equals_the_choice_oracle(monkeypatch, n_providers,
                                                 n_cases, alpha):
    model = ComplicationModel(alpha=alpha)
    for seed in (0, 7):
        args = dict(seed=seed, n_cases=n_cases, n_providers=n_providers,
                    window_days=50, model=model)
        got = generate_cases(**args)
        with monkeypatch.context() as m:
            m.setattr(synth, "_draw_teams", oracles.teams_by_choice)
            m.setattr(synth, "_draw_dx", oracles.dx_by_integers_and_shuffle)
            want = generate_cases(**args)
        assert got == want


def test_truncated_cases_equal_the_per_case_oracle(monkeypatch):
    model = ComplicationModel(alpha=40.0,
                              coefficients={"_cons": 2.0, "teamSize": 0.15})
    args = dict(seed=7, n_cases=3000, n_providers=50, model=model)
    got = generate_cases(**args)
    monkeypatch.setattr(synth, "_draw_dx", oracles.dx_by_integers_and_shuffle)
    assert got == generate_cases(**args)
    header, _, truth = got
    assert truth["dx_truncated_cases"] == 151
    assert len(header) == 7 + MAX_DX_CODES


def test_single_provider_teams():
    _, rows, _ = generate_cases(seed=6, n_cases=30, n_providers=1)
    assert all(r[6] == "p1" for r in rows)
