"""The benchmark's case files, generated with ``surgnet.synth``.

Each workload is a function of the benchmark seed. It writes one wide-form
case file and returns a ``Workload`` with what the checks need to know
about it that the program does not report: the rows injected for each
exclusion rule and the parse diagnostics those rows must produce.
"""

from dataclasses import dataclass, field

import numpy as np

from surgnet import synth

WINDOW_DAYS = 365


@dataclass(frozen=True)
class Workload:
    name: str
    path: str
    cases: int  # rows that parse into a case
    excluded: dict = field(default_factory=dict)  # rule -> injected rows
    diagnostics: int = 0


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _pad(header, rows, width):
    """Widen every row, and the header, to ``width`` dx columns."""
    fixed = 7
    header = header[:fixed] + [f"dx_{k + 1}" for k in range(width)]
    for row in rows:
        row.extend([""] * (fixed + width - len(row)))
    return header, rows


# ---------------------------------------------------------------------------
# paper-scale: the criterion-9 synthetic of the acceptance suite


def paper_scale(seed, path):
    synth.synth_generate(seed=20240601 + seed, n_cases=20000, n_providers=1200,
                         window_days=WINDOW_DAYS, n_segments=4,
                         out_path=path, truth_path=path + ".truth.json")
    return Workload("paper-scale", path, cases=20000)


# ---------------------------------------------------------------------------
# many-segments: a long, narrow roster with injected bad rows

MANY_CASES = 40000
MANY_PROVIDERS = 100
MANY_SEGMENTS = 40

# rows injected per exclusion rule; each breaks only its own rule, so the
# first-match attribution of apply_exclusions cannot move it elsewhere.
# Negative stays (end before start) are left out: apply_exclusions keeps
# them although the README excludes them.
_EXCLUDED = {"age": 40, "missing dates": 30, "same-day discharge": 35,
             "providers": 25}
_MALFORMED = 40     # rows the parser skips, one diagnostic each
_REPAIRED = 15      # a placeholder among valid providers: one diagnostic
_REPEATED = 15      # a provider listed twice: one diagnostic ("invalid")
# providers of their own, so segment networks are disconnected: a lone
# provider is an isolated node and a pair a two-node component
_ALONE = 20
_PAIRS = 10


def _injected_rows(rng, rows, span):
    """Bad and unusual rows; returns (rows to scatter, rows to append)."""
    pool = sorted({p for row in rows[:2000] for p in row[6].split(";")})

    def row(case_id, day, end, age="50", providers=None):
        team = providers if providers is not None else ";".join(
            rng.choice(pool, size=3, replace=False))
        return [case_id, day, end, age, "F", "3", team]

    def dates():
        day = int(rng.integers(0, span))
        return str(day), str(day + 2)

    out, k = [], 0

    def next_id():
        nonlocal k
        k += 1
        return f"x{k:04d}"

    for i in range(_EXCLUDED["age"]):
        out.append(row(next_id(), *dates(), age="17" if i % 4 else ""))
    for i in range(_EXCLUDED["missing dates"]):
        day, end = dates()
        out.append(row(next_id(), "" if i % 3 == 0 else day,
                       end if i % 3 == 0 else ""))
    for _ in range(_EXCLUDED["same-day discharge"]):
        day, _ = dates()
        out.append(row(next_id(), day, day))
    for i in range(_EXCLUDED["providers"]):
        out.append(row(next_id(), *dates(),
                       providers=("", "unknown", "NA;null")[i % 3]))
    for i in range(_MALFORMED - 10):
        day, end = dates()
        kind = i % 3
        if kind == 0:
            out.append(row(next_id(), "d" + day, end))
        elif kind == 1:
            out.append(row(next_id(), day, "-" + end))
        else:
            out.append(row(next_id(), day, end, age="fifty"))
    for _ in range(_REPAIRED):
        a, b = rng.choice(pool, size=2, replace=False)
        out.append(row(next_id(), *dates(), providers=f"{a};unknown;{b}"))
    for _ in range(_REPEATED):
        a, b = rng.choice(pool, size=2, replace=False)
        out.append(row(next_id(), *dates(), providers=f"{a};{b};{a}"))
    for j in range(_ALONE):
        out.append(row(next_id(), *dates(), providers=f"alone{j}"))
    for j in range(_PAIRS):
        out.append(row(next_id(), *dates(), providers=f"pair{j}a;pair{j}b"))

    # ten more malformed rows, at the end: five with an empty case_id and
    # five repeating the id of a synthetic case seen earlier
    tail = [row("", *dates()) for _ in range(5)]
    for j in rng.choice(len(rows), size=5, replace=False):
        tail.append(row(rows[int(j)][0], *dates()))
    return out, tail


def many_segments(seed, path):
    rng = np.random.default_rng(20240602 + seed)
    header, rows, _ = synth.generate_cases(
        int(rng.integers(2**31)), MANY_CASES, MANY_PROVIDERS,
        window_days=WINDOW_DAYS, n_segments=MANY_SEGMENTS)
    width = len(header) - 7
    scattered, tail = _injected_rows(rng, rows, WINDOW_DAYS * MANY_SEGMENTS)
    # scatter the injected rows through the file, the first row excepted
    for r, pos in zip(scattered,
                      rng.integers(1, len(rows), size=len(scattered))):
        rows.insert(int(pos), r)
    rows.extend(tail)
    header, rows = _pad(header, rows, width)
    _write_csv(path, header, rows)
    excluded_cases = sum(_EXCLUDED.values())
    return Workload(
        "many-segments", path,
        cases=(MANY_CASES + excluded_cases + _REPAIRED + _REPEATED + _ALONE
               + _PAIRS),
        excluded=dict(_EXCLUDED),
        # a provider cell with no valid id yields two diagnostics: the
        # dropped placeholder token(s) and the empty team
        diagnostics=2 * _EXCLUDED["providers"] + _MALFORMED + _REPAIRED
        + _REPEATED)


WORKLOADS = {
    "paper-scale": paper_scale,
    "many-segments": many_segments,
}
