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
from pathlib import Path

import numpy as np

from .complications import ComplicationCodeset
from .errors import ConfigError
from .records import COLUMNS, INT_MAX, MAX_DX_CODES, WINDOW_DAYS, write_staged

# dx filler codes that never match the 996-999 complication set
_BENIGN_CODES = ("250.00", "401.9", "414.01", "427.31", "272.4",
                 "530.81", "584.9", "V45.89", "E878.8")

# uniforms drawn at a time for the team draw (bounds its buffer)
_TEAM_CHUNK = 1 << 15
# 64-bit outputs drawn at a time for the dx codes (bounds their buffer)
_DX_CHUNK = 1 << 14


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


def _seek(bitgen, state, n, held=None):
    """Set a PCG64 ``bitgen`` to ``state`` moved on by n 64-bit outputs.

    ``advance`` drops the buffered 32-bit half of an output that
    ``integers`` may hold. ``held`` = (has_uint32, uinteger) is put back
    in its place, by default the one ``state`` holds.
    """
    bitgen.state = state
    moved = bitgen.advance(n).state
    has_uint32, uinteger = held or (state["has_uint32"], state["uinteger"])
    moved.update(has_uint32=has_uint32, uinteger=uinteger)
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


def _draw_dx(rng, counts, complication_codes, benign_codes):
    """Each case's dx codes, and its count cut so they fit MAX_DX_CODES.

    Replays this loop bit for bit, case by case: ``n_fill =
    rng.integers(0, 5)``, the cut, ``c`` complication codes by
    ``rng.integers(0, len(complication_codes), size=c)``, n_fill benign
    codes likewise, and ``rng.shuffle`` of them all. Every one of those
    draws takes a 32-bit half of a 64-bit PCG64 output, the low half
    first, the high half held over (the state's ``has_uint32`` and
    ``uinteger``). ``integers(0, m)`` is Lemire's multiply-shift,
    redrawn while the low word is below (2**32 - m) % m; each shuffle
    step k takes j = u & mask(k), redrawn while j > k. The outputs are
    drawn in chunks, and the generator is left as the loop leaves it.
    Returns (codes per case, counts).
    """
    bitgen = rng.bit_generator
    base = bitgen.state
    halves = [base["uinteger"]] if base["has_uint32"] else []
    pos, lead = 0, len(halves)  # lead: halves not drawn from base

    def u32():
        nonlocal base, halves, pos, lead
        if pos == len(halves):
            base, pos, lead = bitgen.state, 0, 0
            raw = bitgen.random_raw(_DX_CHUNK)
            halves = np.column_stack((raw & 0xFFFFFFFF, raw >> 32)).ravel().tolist()
        pos += 1
        return halves[pos - 1]

    def below(m):  # rng.integers(0, m), 1 < m < 2**32
        reject = (0x100000000 - m) % m
        x = u32() * m
        while x & 0xFFFFFFFF < reject:
            x = u32() * m
        return x >> 32

    n_comp, n_benign = len(complication_codes), len(benign_codes)
    counts = counts.tolist()
    dx = []
    for i, c in enumerate(counts):
        n_fill = below(5)
        if c + n_fill > MAX_DX_CODES:
            c = counts[i] = MAX_DX_CODES - n_fill
        codes = [complication_codes[below(n_comp)] for _ in range(c)]
        codes += [benign_codes[below(n_benign)] for _ in range(n_fill)]
        for k in range(len(codes) - 1, 0, -1):
            mask = (1 << k.bit_length()) - 1
            j = u32() & mask
            while j > k:
                j = u32() & mask
            codes[k], codes[j] = codes[j], codes[k]
        dx.append(codes)
    # outputs spent since base; the last one's high half held if unused
    n = (pos - lead + 1) // 2
    high = halves[lead + 2 * n - 1] if n else base["uinteger"]
    _seek(bitgen, base, n, held=(lead + 2 * n - pos, high))
    return dx, counts


def generate_cases(seed, n_cases, n_providers, window_days=WINDOW_DAYS,
                   n_segments=4, model=None):
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
    dx, kept = _draw_dx(rng, counts, comp_prefixes, _BENIGN_CODES)
    max_dx = max(1, max(map(len, dx)))
    case_pad = len(str(n_cases))
    header = [*COLUMNS, *(f"dx_{k + 1}" for k in range(max_dx))]
    rows = [
        [f"c{i:0{case_pad}d}", str(day), str(end), str(age),
         "M" if is_male else "F", str(kind),
         ";".join(provider_ids[p] for p in sorted(team)),
         *codes, *[""] * (max_dx - len(codes))]
        for i, day, end, age, is_male, kind, team, codes in zip(
            range(1, n_cases + 1), days.tolist(), (days + stay).tolist(),
            ages.tolist(), male.tolist(), surgery.tolist(), teams, dx)]

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
        "mean_count": float(np.mean(kept)),
        "dx_truncated_cases": int(np.count_nonzero(counts != kept)),
    }
    return header, rows, truth


def synth_generate(seed, n_cases, n_providers, window_days=WINDOW_DAYS,
                   n_segments=4, model=None, out_path="synthetic_cases.csv",
                   truth_path=None):
    """Write the synthetic case file and its truth sidecar to disk.

    Returns (out_path, truth_path). The sidecar defaults to the case
    file's path with a ``.truth.json`` suffix. Both are written at once
    (``records.write_staged``): a file that cannot be written raises
    ConfigError naming its path and leaves neither behind, and so does
    a sidecar path naming the case file.
    """
    out_path = str(out_path)
    if truth_path is None:
        stem = out_path[:-4] if out_path.endswith(".csv") else out_path
        truth_path = stem + ".truth.json"
    if Path(truth_path).resolve() == Path(out_path).resolve():
        raise ConfigError(f"the truth sidecar {truth_path} is the case file "
                          f"{out_path}")
    header, rows, truth = generate_cases(
        seed, n_cases, n_providers, window_days=window_days,
        n_segments=n_segments, model=model)
    case_text = "".join(",".join(row) + "\n" for row in [header, *rows])
    truth_text = json.dumps(truth, indent=2, sort_keys=True) + "\n"
    write_staged({out_path: case_text, truth_path: truth_text})
    return out_path, str(truth_path)
