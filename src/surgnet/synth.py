"""Seeded synthetic case-file generator.

Produces a wide-form case file whose complication counts follow a
negative binomial model with known coefficients, so the full pipeline
can be exercised and checked against ground truth at desk scale. The
generating covariates are the ones known at generation time (age,
teamSize, typSurgery, dMale); network covariates acquire their values
only after projection, so their true coefficients are zero. The truth
sidecar records all of this next to the case file.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .complications import ComplicationCodeset
from .errors import ConfigError
from .pipeline import write_staged
from .records import INT_MAX

# dx filler codes that never match the 996-999 complication set
_BENIGN_CODES = ("250.00", "401.9", "414.01", "427.31", "272.4",
                 "530.81", "584.9", "V45.89", "E878.8")

_MAX_DX = 50

# uniforms drawn at a time for the team draw (bounds its buffer)
_TEAM_CHUNK = 1 << 15


@dataclass(frozen=True)
class ComplicationModel:
    """Ground truth for the synthetic complication counts.

    ``coefficients`` maps generation-time covariate names to betas on
    the log-mean scale; ``alpha`` is the NB2 heterogeneity parameter
    (0 degenerates to Poisson draws).
    """

    coefficients: dict = field(default_factory=lambda: dict(DEFAULT_COEFFICIENTS))
    alpha: float = 0.8

    def __post_init__(self):
        known = {"teamSize", "age", "dMale", "typSurgery", "_cons"}
        extra = set(self.coefficients) - known
        if extra:
            raise ConfigError(
                f"complication model covariates not known at generation "
                f"time: {sorted(extra)}")
        values = [self.alpha, *self.coefficients.values()]
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("alpha and coefficients must be finite")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")


DEFAULT_COEFFICIENTS = {
    "teamSize": 0.15,
    "age": 0.007,
    "dMale": 0.1,
    "typSurgery": 0.017,
    "_cons": -1.0,
}


def _draw_counts(rng, mu, alpha):
    if alpha == 0.0:
        return rng.poisson(mu)
    # NB2 as a gamma-Poisson mixture: lambda ~ Gamma(1/alpha, alpha*mu)
    lam = rng.gamma(shape=1.0 / alpha, scale=alpha * mu)
    return rng.poisson(lam)


def _seek(bitgen, state, n):
    """Set a PCG64 ``bitgen`` to ``state`` moved on by n doubles.

    ``advance`` drops the buffered half of a 64-bit output that
    ``integers`` may hold; it is put back so later draws see it.
    """
    bitgen.state = state
    moved = bitgen.advance(n).state
    moved.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bitgen.state = moved


def _draw_teams(rng, team_sizes, weights):
    """One ``rng.choice(len(weights), k, replace=False, p=weights)`` per k.

    Replays ``Generator.choice`` bit for bit: k uniforms go through the
    CDF of the weights, a repeated provider keeps its first occurrence,
    and the shortfall is redrawn with the found weights zeroed and the
    CDF re-summed. PCG64 spends one 64-bit output per double, so the
    uniforms are drawn in chunks and the generator is left just past
    those used.
    """
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    bitgen = rng.bit_generator
    state, u, first, pos = bitgen.state, np.empty(0), [], 0

    def take(n):  # offset of the next n uniforms in u
        nonlocal state, u, first, pos
        if pos + n > len(u):
            _seek(bitgen, state, pos)
            state, pos = bitgen.state, 0
            u = rng.random(max(n, _TEAM_CHUNK))
            first = cdf.searchsorted(u, side="right").tolist()
        pos += n
        return pos - n

    teams = []
    for k in team_sizes.tolist():
        at = take(k)
        team = list(dict.fromkeys(first[at:at + k]))
        while len(team) < k:
            n = k - len(team)
            at = take(n)
            p = weights.copy()
            p[team] = 0
            redraw = np.cumsum(p)
            redraw /= redraw[-1]
            team += dict.fromkeys(
                redraw.searchsorted(u[at:at + n], side="right").tolist())
        teams.append(team)
    _seek(bitgen, state, pos)
    return teams


def generate_cases(seed, n_cases, n_providers, window_days=365, n_segments=4,
                   model=None):
    """Build synthetic case rows and the matching truth record.

    Returns (header, rows, truth) where rows are lists of strings ready
    for CSV emission. Day offsets are uniform over the full span with
    the two endpoints pinned, so the requested segment count is always
    realized. Providers are drawn with a popularity skew (roughly
    Zipfian weights) without replacement within each team.
    """
    if n_cases < 1 or n_providers < 1:
        raise ConfigError("n_cases and n_providers must be >= 1")
    if window_days < 1 or n_segments < 1:
        raise ConfigError("window_days and n_segments must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    span = window_days * n_segments
    # the last day plus its stay (at least 1 here) must stay an int64
    if span > INT_MAX:
        raise ConfigError(f"window_days * n_segments = {span} passes {INT_MAX}")
    model = model if model is not None else ComplicationModel()
    rng = np.random.default_rng(seed)

    days = rng.integers(0, span, size=n_cases)
    if n_cases >= 2:
        days[0], days[-1] = 0, span - 1
    stay = 1 + rng.poisson(3.0, size=n_cases)
    if span - 1 + int(stay.max()) > INT_MAX:
        raise ConfigError(f"window_days * n_segments = {span} leaves no room "
                          f"for a {int(stay.max())}-day stay below {INT_MAX}")

    ages = np.clip(np.rint(rng.normal(55.0, 15.0, size=n_cases)), 21, 90)
    ages = ages.astype(np.int64)
    male = rng.random(n_cases) < 0.5
    surgery = rng.integers(1, 11, size=n_cases)
    team_sizes = np.minimum(n_providers,
                            np.clip(2 + rng.poisson(6.0, size=n_cases), 1, 15))

    weights = 1.0 / np.arange(1, n_providers + 1) ** 0.7
    weights /= weights.sum()
    pad = len(str(n_providers))
    provider_ids = [f"p{i + 1:0{pad}d}" for i in range(n_providers)]
    teams = _draw_teams(rng, team_sizes, weights)

    coef = model.coefficients
    # a mean that overflows is rejected by the count draw below
    with np.errstate(over="ignore", invalid="ignore"):
        eta = (coef.get("_cons", 0.0)
               + coef.get("teamSize", 0.0) * team_sizes
               + coef.get("age", 0.0) * ages
               + coef.get("dMale", 0.0) * male
               + coef.get("typSurgery", 0.0) * surgery)
        mu = np.exp(eta)
    try:
        counts = _draw_counts(rng, mu, model.alpha)
    except ValueError as exc:
        raise ConfigError(f"the complication model's means cannot be "
                          f"drawn: {exc}") from None

    comp_prefixes = tuple(e.prefix for e in ComplicationCodeset.embedded().entries)
    case_pad = len(str(n_cases))
    rows = []
    max_dx = 1
    truncated = 0
    for i in range(n_cases):
        n_fill = int(rng.integers(0, 5))
        c = int(counts[i])
        if c + n_fill > _MAX_DX:
            truncated += 1
            c = _MAX_DX - n_fill
            counts[i] = c
        dx = [comp_prefixes[j] for j in rng.integers(0, len(comp_prefixes), size=c)]
        dx += [_BENIGN_CODES[j] for j in rng.integers(0, len(_BENIGN_CODES),
                                                      size=n_fill)]
        rng.shuffle(dx)
        max_dx = max(max_dx, len(dx))
        rows.append([
            f"c{i + 1:0{case_pad}d}",
            str(int(days[i])),
            str(int(days[i] + stay[i])),
            str(int(ages[i])),
            "M" if male[i] else "F",
            str(int(surgery[i])),
            ";".join(provider_ids[p] for p in sorted(teams[i])),
            dx,
        ])

    header = ["case_id", "day_offset", "end_day_offset", "age", "gender",
              "surgery_type", "providers"] + [f"dx_{k + 1}" for k in range(max_dx)]
    for row in rows:
        dx = row.pop()
        row.extend(dx + [""] * (max_dx - len(dx)))

    truth = {
        "seed": int(seed),
        "n_cases": int(n_cases),
        "n_providers": int(n_providers),
        "window_days": int(window_days),
        "n_segments": int(n_segments),
        "model": {
            "coefficients": {k: float(v) for k, v in sorted(coef.items())},
            "network_coefficients": {"avgBtwn": 0.0, "avgClos": 0.0,
                                     "avgEigen": 0.0},
            "alpha": float(model.alpha),
        },
        "mean_count": float(np.mean(counts)),
        "dx_truncated_cases": int(truncated),
    }
    return header, rows, truth


def synth_generate(seed, n_cases, n_providers, window_days=365, n_segments=4,
                   model=None, out_path="synthetic_cases.csv", truth_path=None):
    """Write the synthetic case file and its truth sidecar to disk.

    Returns (out_path, truth_path). The sidecar defaults to the case
    file's path with a ``.truth.json`` suffix. Both are written at once
    (``pipeline.write_staged``): a file that cannot be written raises
    ConfigError naming its path and leaves neither behind.
    """
    header, rows, truth = generate_cases(
        seed, n_cases, n_providers, window_days=window_days,
        n_segments=n_segments, model=model)
    out_path = str(out_path)
    if truth_path is None:
        stem = out_path[:-4] if out_path.endswith(".csv") else out_path
        truth_path = stem + ".truth.json"
    case_text = "".join(",".join(row) + "\n" for row in [header, *rows])
    truth_text = json.dumps(truth, indent=2, sort_keys=True) + "\n"
    write_staged({out_path: case_text, truth_path: truth_text})
    return out_path, str(truth_path)
