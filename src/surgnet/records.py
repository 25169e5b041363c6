"""Case record ingestion: parsing, exclusion filtering, and time segmentation.

Raw input is delimited text with a header row, one case per row ("wide" form,
providers semicolon-joined in one column) or one provider per row ("long"
form). Parsing never drops a malformed row silently: every skipped or
repaired row produces a diagnostic. One header pass keys each column read
(a name, or ``dx_<k>`` by its slot ``int(k)``), and first and long-form
continuation rows share ``_parse_ints`` and ``_split_providers``.

The parsed cases are one columnar ``CaseTable``, streamed from the file
without keeping its rows: an array per scalar field, the providers as one
case x provider ``csr.Csr`` over the sorted provider ids, and the dx codes
as one case x code ``csr.Csr`` over the distinct codes. Exclusion rules are
boolean masks over the table, and segments are runs of its rows sorted by
(segment, day, case_id). A ``CaseRecord`` is one row read back from a
table. Tables come only from ``parse_cases``, so the parser alone decides
what a valid case is; the later stages take a table and nothing else.
Case files and run artifacts are written all at once by ``write_staged``.
"""

import csv
import os
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import csr
from .errors import ConfigError, DataError

# Provider tokens treated as generic/placeholder entries and dropped.
PLACEHOLDER_IDS = frozenset({"", "null", "none", "unknown", "na", "n/a"})

# the required header columns; long form reads "provider" for "providers"
COLUMNS = ("case_id", "day_offset", "end_day_offset", "age", "gender",
           "surgery_type", "providers")
MAX_DX_CODES = 50
WINDOW_DAYS = 365  # the default segment length
AGE_CAP = 90
GENDERS = ("male", "female", "other")
# An empty cell in an integer column of a CaseTable: the int64 minimum,
# which no parsed value takes and which sorts below every age.
MISSING = -(2 ** 63)
INT_MAX = 2 ** 63 - 1


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


def _optional(value):
    return None if value == MISSING else value


@dataclass(frozen=True, eq=False)
class CaseTable:
    """Cases as columns, one row per case.

    ``day_offset``, ``end_day_offset``, ``age`` and ``surgery_type`` are
    int64 arrays holding MISSING for an empty cell; ``gender`` indexes
    GENDERS. ``team`` is the case x provider ``csr.Csr`` over
    ``provider_ids``, rows ascending and distinct, and ``dx`` the case x
    code ``csr.Csr`` over ``codes``, rows in dx column order with repeated
    codes kept. Indexing (which raises IndexError past the end, so
    iteration works too) gives CaseRecord views; two tables are equal when
    their records are.
    """

    case_id: list
    day_offset: np.ndarray
    end_day_offset: np.ndarray
    age: np.ndarray
    surgery_type: np.ndarray
    gender: np.ndarray
    team: csr.Csr
    provider_ids: tuple
    dx: csr.Csr
    codes: tuple

    def __len__(self):
        return len(self.case_id)

    def __getitem__(self, i):
        i = range(len(self))[i]
        team, dx = self.team.row(i).tolist(), self.dx.row(i).tolist()
        return CaseRecord(
            case_id=self.case_id[i],
            day_offset=_optional(int(self.day_offset[i])),
            end_day_offset=_optional(int(self.end_day_offset[i])),
            providers=frozenset(self.provider_ids[j] for j in team),
            age=_optional(int(self.age[i])),
            gender=GENDERS[self.gender[i]],
            surgery_type=_optional(int(self.surgery_type[i])),
            dx_codes=tuple(self.codes[k] for k in dx))

    def __eq__(self, other):
        return isinstance(other, CaseTable) and list(self) == list(other)

    def take(self, rows):
        """The table of rows ``rows`` (an index array), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return CaseTable(
            case_id=[self.case_id[i] for i in rows.tolist()],
            day_offset=self.day_offset[rows],
            end_day_offset=self.end_day_offset[rows],
            age=self.age[rows], surgery_type=self.surgery_type[rows],
            gender=self.gender[rows], team=self.team.take(rows),
            provider_ids=self.provider_ids, dx=self.dx.take(rows),
            codes=self.codes)


class _TableBuilder:
    """Cases appended one at a time. Each distinct provider id and dx code
    is held once (``names``); they are numbered when the table is built."""

    def __init__(self):
        self.case_id, self.day, self.end, self.age, self.styp = [], [], [], [], []
        self.gender, self.team_case, self.team, self.dx = [], [], [], []
        self.dx_ptr, self.names = [0], {}

    def add(self, case_id, day, end, age, gender, styp, providers, dx):
        """Append one case; returns its row."""
        row = len(self.case_id)
        self.case_id.append(case_id)
        self.day.append(day)
        self.end.append(end)
        self.age.append(age)
        self.gender.append(gender)
        self.styp.append(styp)
        self.add_providers(row, providers)
        self.dx += map(self.names.setdefault, dx, dx)
        self.dx_ptr.append(len(self.dx))
        return row

    def add_providers(self, row, providers):
        self.team += map(self.names.setdefault, providers, providers)
        self.team_case += [row] * len(providers)

    def kept(self, row):
        """Row ``row``'s values: ``_parse_ints``'s, then gender and dx codes."""
        return {"day_offset": self.day[row], "end_day_offset": self.end[row],
                "age": self.age[row], "surgery_type": self.styp[row],
                "gender": GENDERS[self.gender[row]],
                "dx_codes": self.dx[self.dx_ptr[row]:self.dx_ptr[row + 1]]}

    def build(self) -> CaseTable:
        provider_ids, codes = sorted(set(self.team)), list(dict.fromkeys(self.dx))
        # a provider listed twice on a case (long form) links it once
        team = csr.from_pairs((len(self.case_id), len(provider_ids)),
                              self.team_case, _numbered(self.team, provider_ids))
        return CaseTable(
            case_id=self.case_id,
            day_offset=_int_column(self.day), end_day_offset=_int_column(self.end),
            age=_int_column(self.age), surgery_type=_int_column(self.styp),
            gender=np.array(self.gender, dtype=np.int8),
            team=team, provider_ids=tuple(provider_ids),
            dx=csr.Csr(self.dx_ptr, _numbered(self.dx, codes), len(codes)),
            codes=tuple(codes))


def _numbered(values, names):
    """Each value's position in ``names``."""
    index = {name: k for k, name in enumerate(names)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                       count=len(values))


def _int_column(values):
    return np.array([MISSING if v is None else v for v in values], dtype=np.int64)


@dataclass(frozen=True)
class Segment:
    """One time slice: the cases of days [start_day, end_day_exclusive)."""

    index: int
    start_day: int
    end_day_exclusive: int
    cases: CaseTable


@dataclass(frozen=True)
class ParseDiagnostic:
    row: int
    message: str


def _parse_int(raw: str, field: str, row: int, diagnostics, nonneg=True):
    """Parse an optional integer cell. Returns (value, ok); an empty cell
    is (None, True). A value is ``[+-]?[0-9]+`` once the surrounding
    whitespace is stripped, and must fit in 64 bits. The other forms that
    int() reads are non-numeric: digit-group underscores (5_0) and every
    non-ASCII decimal digit, Arabic-Indic and full-width ones included."""
    text = raw.strip()
    if not text:
        return None, True
    try:
        # on ASCII text without an underscore, int() reads the grammar
        # above and nothing else; this is cheaper than matching it first
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = int(text)
    except ValueError:
        diagnostics.append(ParseDiagnostic(row, f"non-numeric {field}: {text!r}"))
        return None, False
    if nonneg and value < 0:
        diagnostics.append(ParseDiagnostic(row, f"negative {field}: {value}"))
        return None, False
    if not MISSING < value <= INT_MAX:
        diagnostics.append(ParseDiagnostic(row, f"out-of-range {field}: {value}"))
        return None, False
    return value, True


def _parse_gender(raw: str) -> str:
    g = raw.strip().lower()
    if g in ("m", "male"):
        return "male"
    if g in ("f", "female"):
        return "female"
    return "other"


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a tab or line break, which would split its
    row of a TSV artifact."""
    return "\t" in text or "\n" in text or "\r" in text


def _split_providers(raw, case_id, row_no, diagnostics):
    """The set of ids in a semicolon-joined provider cell. Placeholders and
    ids holding a tab or line break are dropped as invalid, and a repeat of
    a kept id as repeated, with one diagnostic that counts both."""
    tokens = [t.strip() for t in raw.split(";")]
    kept = {t for t in tokens if t.lower() not in PLACEHOLDER_IDS}
    if _breaks_line(raw):
        kept = {t for t in kept if not _breaks_line(t)}
    if len(tokens) > len(kept):
        invalid = sum(t not in kept for t in tokens)
        repeated = len(tokens) - invalid - len(kept)
        counts = " and ".join(f"{n} {kind}" for n, kind in (
            (invalid, "invalid"), (repeated, "repeated")) if n)
        diagnostics.append(ParseDiagnostic(
            row_no, f"dropped {counts} provider id(s) for case {case_id}"))
    return kept


def _parse_ints(row, cols, row_no, diagnostics):
    """(day, end_day, age, surgery_type, ok) from a row's cells ``cols``: the
    offsets non-negative, the age capped at AGE_CAP, None for an empty or
    refused cell, and ``ok`` False when ``_parse_int`` refused one."""
    i_day, i_end, i_age, i_styp = cols
    day, ok1 = _parse_int(row[i_day], "day_offset", row_no, diagnostics)
    end_day, ok2 = _parse_int(row[i_end], "end_day_offset", row_no, diagnostics)
    age, ok3 = _parse_int(row[i_age], "age", row_no, diagnostics, nonneg=False)
    styp, ok4 = _parse_int(row[i_styp], "surgery_type", row_no, diagnostics,
                           nonneg=False)
    if age is not None and age > AGE_CAP:
        age = AGE_CAP
    return day, end_day, age, styp, ok1 and ok2 and ok3 and ok4


def parse_cases(source, delimiter=",", provider_form="wide"):
    """Parse case records from delimited text.

    Provider tokens in ``PLACEHOLDER_IDS`` (compared lower-cased) are
    dropped as invalid/generic entries, and so are tokens holding a tab or
    line break, which the TSV artifacts cannot hold; a case_id holding
    one skips its row with a diagnostic.

    Parameters
    ----------
    source : path or text stream
        Delimited text (a file is read as UTF-8, a leading byte-order
        mark skipped) with a header row naming the columns case_id,
        day_offset, end_day_offset, age, gender, surgery_type and
        providers (provider in long form), and dx_<k> columns read in order
        of int(k); a missing one, or one of these named twice (dx_1 and
        dx_01 name one), raises ConfigError. A row csv cannot read, such
        as one with a cell past csv's field limit, is skipped with a
        diagnostic; an unreadable header row raises DataError. A row's
        non-empty cells past the header's columns are dropped with a
        diagnostic.
    delimiter : str
        Field delimiter, default comma.
    provider_form : {"wide", "long"}
        "wide": one row per case, providers semicolon-joined.
        "long": one row per (case, provider); scalar fields and dx codes
        are taken from the first row seen for each case, and every value
        a later row of the case would change or add is reported as a
        diagnostic. A case is reported as having no valid providers, at
        its first row, only when none of its rows gives one.

    Returns
    -------
    (cases, diagnostics)
        ``cases`` is a CaseTable with one row per syntactically valid case,
        in order of first appearance; malformed rows are skipped with a
        ParseDiagnostic.
    """
    if provider_form not in ("wide", "long"):
        raise ConfigError(f"provider_form must be 'wide' or 'long', got {provider_form!r}")

    close_after = False
    if isinstance(source, (str, Path)):
        try:
            stream = open(source, "r", newline="", encoding="utf-8-sig")
        except OSError as exc:
            raise DataError(f"cannot read case file {source}: {exc}") from exc
        close_after = True
    else:
        stream = source

    try:
        return _parse_stream(stream, delimiter, provider_form)
    except (UnicodeDecodeError, csv.Error) as exc:  # csv: on the header row
        raise DataError(f"cannot read case file {source}: {exc}") from exc
    finally:
        if close_after:
            stream.close()


def _report_discarded(case_id, kept, ints, gender, dx, row_no, diagnostics):
    """One diagnostic per value of a long-form continuation row that the
    merge discards: a scalar that differs from the case's first row, and
    each dx code beyond those the case already holds. ``kept`` holds the
    case's values (``_TableBuilder.kept``), ``ints`` the row's integer
    values as ``_parse_ints`` read them and ``gender`` its gender cell.
    Empty or refused cells and repeated values discard nothing."""
    found = zip(kept, [*ints, _parse_gender(gender) if gender.strip() else None])
    lost = [f"conflicting {f} {v!r} (kept {kept[f]!r})"
            for f, v in found if v is not None and v != kept[f]]
    lost += [f"dx code {code!r} beyond the kept codes"
             for code in (Counter(dx) - Counter(kept["dx_codes"])).elements()]
    diagnostics.extend(ParseDiagnostic(row_no, f"case {case_id}: "
                                               f"discarded {what}")
                       for what in lost)


def _parse_stream(stream, delimiter, provider_form):
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("case file is empty (no header row)")
    long_form = provider_form == "long"
    required = COLUMNS[:-1] + ("provider" if long_form else "providers",)
    names = [h.strip() for h in header]
    at, repeated = {}, set()
    for i, name in enumerate(names):
        if name in required:
            key = name
        # k in ASCII digits, the [0-9]+ of integer cells
        elif name.startswith("dx_") and name[3:].isascii() and name[3:].isdigit():
            key = int(name[3:])
        else:
            continue
        if key in at:
            repeated.add(name)
        at[key] = i
    missing = [f for f in required if f not in at]
    if missing:
        raise ConfigError(f"column(s) not found in header: {missing}")
    if repeated:
        raise ConfigError(f"column(s) repeated in header: "
                          f"{sorted(repeated, key=names.index)}")
    i_case, i_day, i_end, i_age, i_gender, i_styp, i_prov = map(at.get, required)
    int_cols = i_day, i_end, i_age, i_styp
    dx_idx = [at[k] for k in sorted(k for k in at if isinstance(k, int))]
    dx_cells = itemgetter(*dx_idx) if len(dx_idx) > 1 else \
        (lambda row: [row[i] for i in dx_idx])

    diagnostics: list[ParseDiagnostic | None] = []
    table = _TableBuilder()
    by_id: dict[str, int] = {}  # case_id -> row (long-form merge)
    # case_id -> its "no valid providers" diagnostic, judged once merged
    unstaffed: dict[str, int] = {}
    gender_code: dict[str, int] = {}  # raw gender cell -> index in GENDERS
    width = len(header)

    row_no = 1
    while True:
        row_no += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # the reader resumes at the next line
            diagnostics.append(ParseDiagnostic(
                row_no, f"skipped unreadable row: {exc}"))
            continue
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < width:  # absent trailing cells read as empty
            row += [""] * (width - len(row))
        elif len(row) > width:
            extra = sum(1 for cell in row[width:] if cell.strip())
            if extra:
                diagnostics.append(ParseDiagnostic(
                    row_no, f"dropped {extra} non-empty cell(s) past the "
                            f"{width} header columns"))

        case_id = row[i_case].strip()
        if not case_id:
            diagnostics.append(ParseDiagnostic(row_no, "empty case_id"))
            continue
        if _breaks_line(case_id):
            diagnostics.append(ParseDiagnostic(
                row_no, f"case_id {case_id!r} holds a tab or line break"))
            continue
        dx = [c.strip() for c in dx_cells(row) if c and not c.isspace()]

        seen = by_id.get(case_id)
        if long_form and seen is not None:
            # merge: providers add up; other values stay from the first row
            pids = _split_providers(row[i_prov], case_id, row_no, diagnostics)
            *ints, _ = _parse_ints(row, int_cols, row_no, diagnostics)
            _report_discarded(case_id, table.kept(seen), ints, row[i_gender],
                              dx, row_no, diagnostics)
            table.add_providers(seen, pids)
            if pids and case_id in unstaffed:
                diagnostics[unstaffed.pop(case_id)] = None
            continue
        if seen is not None:
            diagnostics.append(ParseDiagnostic(row_no, f"duplicate case_id {case_id}"))
            continue

        day, end, age, styp, ok = _parse_ints(row, int_cols, row_no, diagnostics)
        if not ok:
            continue
        pids = _split_providers(row[i_prov], case_id, row_no, diagnostics)
        if not pids:
            unstaffed[case_id] = len(diagnostics)
            diagnostics.append(ParseDiagnostic(
                row_no, f"case {case_id} has no valid providers"))

        if len(dx) > MAX_DX_CODES:
            diagnostics.append(ParseDiagnostic(
                row_no, f"case {case_id}: {len(dx)} dx codes, keeping first {MAX_DX_CODES}"))
            dx = dx[:MAX_DX_CODES]

        gender = gender_code.get(row[i_gender])
        if gender is None:
            gender = gender_code[row[i_gender]] = GENDERS.index(
                _parse_gender(row[i_gender]))
        by_id[case_id] = table.add(case_id, day, end, age, gender, styp,
                                   pids, dx)

    return table.build(), [d for d in diagnostics if d is not None]


# Exclusion rules over a CaseTable, applied in order; a removed case is
# attributed to the first rule that rejects it. An empty age is MISSING,
# which is below 21.
EXCLUSION_RULES = (
    ("age", lambda t: t.age < 21),
    ("missing dates", lambda t: (t.day_offset == MISSING)
                                | (t.end_day_offset == MISSING)),
    ("same-day discharge", lambda t: t.end_day_offset <= t.day_offset),
    ("providers", lambda t: np.diff(t.team.indptr) == 0),
)


def apply_exclusions(cases):
    """Filter out ineligible cases.

    Removes cases aged under 21 (or with no recorded age), cases with a
    missing start or end day offset, cases whose end day is not after the
    start day (same-day discharge proxy; an end before the start is a
    negative stay and goes under the same rule), and cases with no valid
    providers.

    Each rule is a mask over the CaseTable ``cases`` and its count is the
    mask minus the masks of the rules before it. Returns (retained
    CaseTable, report) where report maps rule name -> removed count.
    Idempotent.
    """
    report, removed = {}, np.zeros(len(cases), dtype=bool)
    for name, rejects in EXCLUSION_RULES:
        hit = rejects(cases) & ~removed
        report[name] = int(hit.sum())
        removed |= hit
    return cases.take(np.flatnonzero(~removed)), report


def segment_cases(cases, window_days=WINDOW_DAYS):
    """Slice a CaseTable into sequential segments of ``window_days`` days.

    Segment k covers the half-open interval
    [min_day + (k-1)*window_days, min_day + k*window_days); the last
    segment ends at max observed day + 1 and may span fewer days. Cases
    are assigned by day_offset, so the segments partition the input.
    Each segment's cases are a run of the rows stably sorted by (segment,
    day_offset, case_id), so the output is independent of input order.
    """
    if not 1 <= window_days <= INT_MAX:
        raise ConfigError(f"window_days must be from 1 to 2**63 - 1, "
                          f"got {window_days}")
    if not len(cases):
        raise DataError("no cases to segment")
    day = cases.day_offset
    undated = np.flatnonzero(day == MISSING)
    if undated.size:
        raise DataError(
            f"cannot segment cases with missing day_offset "
            f"(e.g. {cases.case_id[undated[0]]}); run apply_exclusions first")

    min_day, max_day = int(day.min()), int(day.max())
    n_segments = -((min_day - max_day - 1) // window_days)
    segment = (day - min_day) // window_days
    id_rank = np.empty(len(cases), dtype=np.int64)
    id_rank[sorted(range(len(cases)), key=cases.case_id.__getitem__)] = \
        np.arange(len(cases))
    order = np.lexsort((id_rank, day, segment))
    bounds = np.searchsorted(segment[order], np.arange(n_segments + 1)).tolist()

    segments = []
    for k in range(n_segments):
        start = min_day + k * window_days
        end = min(start + window_days, max_day + 1)
        segments.append(Segment(
            index=k + 1, start_day=start, end_day_exclusive=end,
            cases=cases.take(order[bounds[k]:bounds[k + 1]])))
    return segments


def write_staged(texts):
    """Write files all at once: each path's text under a temporary name
    beside it, then all renamed into place. A text is a str or an
    iterable of str pieces, written as they come. A failed write, or a
    directory in the way, leaves every path as it was (only a rename
    failing part-way would not); any OSError ends in a ConfigError."""
    staged = {}
    try:
        for path, text in texts.items():
            path = Path(path)
            if path.is_dir():
                raise IsADirectoryError("a directory is in the way")
            staged[path] = path.with_name(f".{path.name}.tmp")
            with open(staged[path], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        for path, tmp in list(staged.items()):
            os.replace(tmp, path)
            del staged[path]
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in staged.values():
            try:
                tmp.unlink()
            except OSError:
                pass
