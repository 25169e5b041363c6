"""Shared test fixtures and the acceptance-summary reporter."""

import csv
import io
import sys

import pytest

from surgnet.records import CaseRecord, parse_cases


def make_case(case_id="c1", day=0, end=3, providers=("a", "b"), age=50,
              gender="male", surgery_type=1, dx=()):
    """CaseRecord factory with sensible defaults for unit tests."""
    return CaseRecord(
        case_id=case_id,
        day_offset=day,
        end_day_offset=end,
        providers=frozenset(providers),
        age=age,
        gender=gender,
        surgery_type=surgery_type,
        dx_codes=tuple(dx),
    )


def case_table(cases):
    """The CaseTable that ``parse_cases`` reads from ``cases`` (CaseRecords,
    as from ``make_case``) written out as wide-form CSV text, as the
    program reads a case file. Fails if the parser skips a record."""
    cases = list(cases)
    n_dx = max((len(c.dx_codes) for c in cases), default=0)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["case_id", "day_offset", "end_day_offset", "age",
                     "gender", "surgery_type", "providers"]
                    + [f"dx_{k}" for k in range(1, n_dx + 1)])
    for c in cases:  # None writes an empty cell
        writer.writerow([c.case_id, c.day_offset, c.end_day_offset, c.age,
                         c.gender, c.surgery_type,
                         ";".join(sorted(c.providers)), *c.dx_codes])
    table, _ = parse_cases(io.StringIO(text.getvalue()))
    assert len(table) == len(cases), "the parser skipped a case"
    return table


@pytest.fixture
def case_factory():
    return make_case


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
