"""Case record ingestion: parsing, exclusion filtering, and time segmentation.

Raw input is delimited text with a header row, one case per row ("wide" form,
providers semicolon-joined in one column) or one provider per row ("long"
form). Parsing never drops a malformed row silently: every skipped or
repaired row produces a diagnostic.
"""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError

# Provider tokens treated as generic/placeholder entries and dropped.
PLACEHOLDER_IDS = frozenset({"", "null", "none", "unknown", "na", "n/a"})

# Logical field -> default column header. "provider" replaces "providers"
# in long form.
DEFAULT_SCHEMA = {
    "case_id": "case_id",
    "day_offset": "day_offset",
    "end_day_offset": "end_day_offset",
    "age": "age",
    "gender": "gender",
    "surgery_type": "surgery_type",
    "providers": "providers",
    "provider": "provider",
}

MAX_DX_CODES = 50
AGE_CAP = 90


@dataclass(frozen=True)
class CaseRecord:
    """One surgical case, as parsed (exclusion rules are applied later).

    Day offsets count days since an undisclosed de-identification origin.
    ``age`` is capped at 90. Optional fields are None when the source cell
    was empty.
    """

    case_id: str
    day_offset: int | None
    end_day_offset: int | None
    providers: frozenset[str]
    age: int | None
    gender: str
    surgery_type: int | None
    dx_codes: tuple[str, ...]


@dataclass(frozen=True)
class Segment:
    """One contiguous time slice; covers days [start_day, end_day_exclusive)."""

    index: int
    start_day: int
    end_day_exclusive: int
    cases: tuple[CaseRecord, ...]

    @property
    def span_days(self) -> int:
        return self.end_day_exclusive - self.start_day


@dataclass(frozen=True)
class ParseDiagnostic:
    row: int
    message: str


def _parse_int(raw: str, field: str, row: int, diagnostics, nonneg=True):
    """Parse an optional integer cell. Returns (value, ok)."""
    raw = raw.strip()
    if raw == "":
        return None, True
    try:
        value = int(raw)
    except ValueError:
        diagnostics.append(ParseDiagnostic(row, f"non-numeric {field}: {raw!r}"))
        return None, False
    if nonneg and value < 0:
        diagnostics.append(ParseDiagnostic(row, f"negative {field}: {value}"))
        return None, False
    return value, True


def _parse_gender(raw: str) -> str:
    g = raw.strip().lower()
    if g in ("m", "male"):
        return "male"
    if g in ("f", "female"):
        return "female"
    return "other"


def _split_providers(raw: str, placeholders) -> tuple[frozenset, int]:
    """Split a semicolon-joined provider cell; returns (ids, dropped_count)."""
    tokens = [t.strip() for t in raw.split(";")]
    kept = {t for t in tokens if t.lower() not in placeholders}
    return frozenset(kept), len(tokens) - len(kept)


def parse_cases(
    source,
    schema=None,
    delimiter=",",
    provider_form="wide",
    placeholder_ids=PLACEHOLDER_IDS,
):
    """Parse case records from delimited text.

    Parameters
    ----------
    source : path or text stream
        Delimited text with a header row.
    schema : dict, optional
        Overrides for logical-field -> column-header names. Unknown logical
        fields, or mapped headers absent from the file, raise ConfigError.
    delimiter : str
        Field delimiter, default comma.
    provider_form : {"wide", "long"}
        "wide": one row per case, providers semicolon-joined.
        "long": one row per (case, provider); scalar fields and dx codes
        are taken from the first row seen for each case, and every value
        a later row of the case would change or add is reported as a
        diagnostic.
    placeholder_ids : set of str
        Lower-cased provider tokens dropped as invalid/generic entries.

    Returns
    -------
    (cases, diagnostics)
        Every syntactically valid row yields a CaseRecord; malformed rows
        are skipped with a ParseDiagnostic.
    """
    if provider_form not in ("wide", "long"):
        raise ConfigError(f"provider_form must be 'wide' or 'long', got {provider_form!r}")

    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown schema field(s): {sorted(unknown)}")
        columns.update(schema)

    close_after = False
    if isinstance(source, (str, Path)):
        try:
            stream = open(source, "r", newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read case file {source}: {exc}") from exc
        close_after = True
    else:
        stream = source

    try:
        return _parse_stream(stream, columns, delimiter, provider_form, placeholder_ids)
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read case file {source}: {exc}") from exc
    finally:
        if close_after:
            stream.close()


def _dx_codes(row, dx_cols):
    """The row's non-empty dx cells, trimmed, in dx column order."""
    cells = [row[i].strip() for _, i in dx_cols if i < len(row)]
    return [c for c in cells if c]


def _report_discarded(kept: CaseRecord, cell, dx, row_no, diagnostics):
    """One diagnostic per value of a long-form continuation row that the
    merge discards: a scalar that differs from the case's first row, and
    each dx code beyond those the case already holds. Empty cells and
    repeated values discard nothing."""
    found = {f: _parse_int(cell(f), f, row_no, diagnostics,
                           nonneg=f.endswith("offset"))[0]
             for f in ("day_offset", "end_day_offset", "age", "surgery_type")}
    if found["age"] is not None:
        found["age"] = min(found["age"], AGE_CAP)
    if cell("gender").strip():
        found["gender"] = _parse_gender(cell("gender"))
    lost = [f"conflicting {f} {v!r} (kept {getattr(kept, f)!r})"
            for f, v in found.items() if v is not None and v != getattr(kept, f)]
    lost += [f"dx code {code!r} beyond the kept codes"
             for code in (Counter(dx) - Counter(kept.dx_codes)).elements()]
    diagnostics.extend(ParseDiagnostic(row_no, f"case {kept.case_id}: "
                                               f"discarded {what}")
                       for what in lost)


def _parse_stream(stream, columns, delimiter, provider_form, placeholders):
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("case file is empty (no header row)")
    header = [h.strip() for h in header]
    col_index = {name: i for i, name in enumerate(header)}

    provider_field = "provider" if provider_form == "long" else "providers"
    required = ["case_id", "day_offset", "end_day_offset", "age", "gender",
                "surgery_type", provider_field]
    missing = [columns[f] for f in required if columns[f] not in col_index]
    if missing:
        raise ConfigError(f"column(s) not found in header: {missing}")
    field_idx = {f: col_index[columns[f]] for f in required}

    # dx columns: header names dx_<k>, ordered by k
    dx_cols = sorted(
        ((int(name[3:]), i) for name, i in col_index.items()
         if name.startswith("dx_") and name[3:].isdigit()),
    )

    placeholders = {p.lower() for p in placeholders}
    diagnostics: list[ParseDiagnostic] = []
    cases: list[CaseRecord] = []
    by_id: dict[str, int] = {}  # case_id -> index in cases (long-form merge)

    for row_no, row in enumerate(reader, start=2):
        if not any(cell.strip() for cell in row):
            continue

        def cell(field):
            i = field_idx[field]
            return row[i] if i < len(row) else ""

        case_id = cell("case_id").strip()
        if not case_id:
            diagnostics.append(ParseDiagnostic(row_no, "empty case_id"))
            continue

        if provider_form == "long" and case_id in by_id:
            # merge: providers add up; other values stay from the first row
            pids, dropped = _split_providers(cell("provider"), placeholders)
            if dropped:
                diagnostics.append(ParseDiagnostic(
                    row_no, f"dropped {dropped} invalid provider id(s) for case {case_id}"))
            idx = by_id[case_id]
            prev = cases[idx]
            _report_discarded(prev, cell, _dx_codes(row, dx_cols), row_no,
                              diagnostics)
            cases[idx] = CaseRecord(
                case_id=prev.case_id, day_offset=prev.day_offset,
                end_day_offset=prev.end_day_offset,
                providers=prev.providers | pids,
                age=prev.age, gender=prev.gender,
                surgery_type=prev.surgery_type, dx_codes=prev.dx_codes)
            continue

        if provider_form == "wide" and case_id in by_id:
            diagnostics.append(ParseDiagnostic(row_no, f"duplicate case_id {case_id}"))
            continue

        day, ok1 = _parse_int(cell("day_offset"), "day_offset", row_no, diagnostics)
        end_day, ok2 = _parse_int(cell("end_day_offset"), "end_day_offset", row_no, diagnostics)
        age, ok3 = _parse_int(cell("age"), "age", row_no, diagnostics, nonneg=False)
        styp, ok4 = _parse_int(cell("surgery_type"), "surgery_type", row_no,
                               diagnostics, nonneg=False)
        if not (ok1 and ok2 and ok3 and ok4):
            continue
        if age is not None and age > AGE_CAP:
            age = AGE_CAP

        pids, dropped = _split_providers(cell(provider_field), placeholders)
        if dropped:
            diagnostics.append(ParseDiagnostic(
                row_no, f"dropped {dropped} invalid provider id(s) for case {case_id}"))
        if not pids:
            diagnostics.append(ParseDiagnostic(
                row_no, f"case {case_id} has no valid providers"))

        dx = _dx_codes(row, dx_cols)
        if len(dx) > MAX_DX_CODES:
            diagnostics.append(ParseDiagnostic(
                row_no, f"case {case_id}: {len(dx)} dx codes, keeping first {MAX_DX_CODES}"))
            dx = dx[:MAX_DX_CODES]

        record = CaseRecord(
            case_id=case_id, day_offset=day, end_day_offset=end_day,
            providers=pids, age=age, gender=_parse_gender(cell("gender")),
            surgery_type=styp, dx_codes=tuple(dx))
        by_id[case_id] = len(cases)
        cases.append(record)

    return cases, diagnostics


# Exclusion rules, applied in order; a removed case is attributed to the
# first rule that rejects it.
EXCLUSION_RULES = (
    ("age", lambda c: c.age is None or c.age < 21),
    ("missing dates", lambda c: c.day_offset is None or c.end_day_offset is None),
    ("same-day discharge", lambda c: c.end_day_offset <= c.day_offset),
    ("providers", lambda c: len(c.providers) == 0),
)


def apply_exclusions(cases):
    """Filter out ineligible cases.

    Removes cases aged under 21 (or with no recorded age), cases with a
    missing start or end day offset, cases whose end day is not after the
    start day (same-day discharge proxy; an end before the start is a
    negative stay and goes under the same rule), and cases with no valid
    providers.

    Returns (retained_cases, report) where report maps rule name ->
    removed count. Idempotent.
    """
    report = {name: 0 for name, _ in EXCLUSION_RULES}
    retained = []
    for case in cases:
        for name, rejects in EXCLUSION_RULES:
            if rejects(case):
                report[name] += 1
                break
        else:
            retained.append(case)
    return retained, report


def segment_cases(cases, window_days=365):
    """Slice cases into sequential time segments of ``window_days`` days.

    Segment k covers the half-open interval
    [min_day + (k-1)*window_days, min_day + k*window_days); the last
    segment ends at max observed day + 1 and may span fewer days. Cases
    are assigned by day_offset, so the segments partition the input.
    Output is independent of input order.
    """
    if window_days < 1:
        raise ConfigError(f"window_days must be >= 1, got {window_days}")
    if not cases:
        raise DataError("no cases to segment")
    undated = [c.case_id for c in cases if c.day_offset is None]
    if undated:
        raise DataError(
            f"cannot segment cases with missing day_offset (e.g. {undated[0]}); "
            "run apply_exclusions first")

    min_day = min(c.day_offset for c in cases)
    max_day = max(c.day_offset for c in cases)
    n_segments = math.ceil((max_day + 1 - min_day) / window_days)

    buckets: list[list[CaseRecord]] = [[] for _ in range(n_segments)]
    for case in cases:
        buckets[(case.day_offset - min_day) // window_days].append(case)

    segments = []
    for k in range(n_segments):
        start = min_day + k * window_days
        end = min(start + window_days, max_day + 1)
        ordered = tuple(sorted(buckets[k], key=lambda c: (c.day_offset, c.case_id)))
        segments.append(Segment(index=k + 1, start_day=start,
                                end_day_exclusive=end, cases=ordered))
    return segments


def read_cases_text(text, **kwargs):
    """Convenience wrapper: parse cases from an in-memory string."""
    return parse_cases(io.StringIO(text), **kwargs)
