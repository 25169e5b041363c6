"""Parsing, exclusion filtering, and time segmentation."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_table, make_case
from surgnet.errors import ConfigError, DataError
from surgnet.records import (
    EXCLUSION_RULES,
    apply_exclusions,
    parse_cases,
    segment_cases,
)

HEADER = "case_id,day_offset,end_day_offset,age,gender,surgery_type,providers"


def read_cases_text(text, **kwargs):
    """Parse cases from an in-memory string."""
    return parse_cases(io.StringIO(text), **kwargs)


def test_parse_wide_happy_path():
    text = (
        HEADER + ",dx_1,dx_2\n"
        "c1,10,12,63,M,4,a;b;c,996.52,250.00\n"
        "c2,11,15,47,f,2,b;d,,\n"
    )
    cases, diags = read_cases_text(text)
    assert diags == []
    assert [c.case_id for c in cases] == ["c1", "c2"]
    c1 = cases[0]
    assert c1.day_offset == 10 and c1.end_day_offset == 12
    assert c1.age == 63
    assert c1.gender == "male"
    assert c1.surgery_type == 4
    assert c1.providers == frozenset({"a", "b", "c"})
    assert c1.dx_codes == ("996.52", "250.00")
    assert cases[1].gender == "female"
    assert cases[1].dx_codes == ()


def test_gender_normalization():
    text = HEADER + "\n" + "\n".join(
        f"c{i},0,1,50,{g},1,a" for i, g in enumerate(["M", "male", "F", "Female", "x", ""]))
    cases, _ = read_cases_text(text)
    assert [c.gender for c in cases] == [
        "male", "male", "female", "female", "other", "other"]


def test_age_capped_at_90():
    cases, _ = read_cases_text(HEADER + "\nc1,0,1,104,M,1,a\n")
    assert cases[0].age == 90


def test_dx_columns_ordered_by_suffix_with_gaps():
    text = ("case_id,dx_10,day_offset,end_day_offset,age,gender,surgery_type,"
            "providers,dx_2\n"
            "c1,997.3,0,1,50,M,1,a,996.0\n")
    cases, _ = read_cases_text(text)
    assert cases[0].dx_codes == ("996.0", "997.3")


@pytest.mark.parametrize("name", ["dx_\u00b2",   # superscript two
                                  "dx_\u0661"])  # Arabic-Indic one
def test_dx_header_with_a_non_ascii_digit_is_an_ignored_column(name):
    # a dx column is dx_ and ASCII digits, as integer cells are [0-9]+;
    # int() reads neither suffix as the same number str.isdigit() accepts
    text = (HEADER + f",dx_1,{name}\n"
            "c1,0,1,50,M,1,a,996.1,998.5\n"
            "c2,0,1,50,M,1,a,,998.5\n"
            "c3,0,1,50,M,1,b,997.3,\n")
    cases, diags = read_cases_text(text)
    assert diags == []
    assert [c.dx_codes for c in cases] == [("996.1",), (), ("997.3",)]


def test_placeholder_providers_dropped_with_diagnostic():
    cases, diags = read_cases_text(HEADER + "\nc1,0,1,50,M,1,a;NULL;unknown;b\n")
    assert cases[0].providers == frozenset({"a", "b"})
    assert len(diags) == 1 and "2 invalid provider" in diags[0].message


@pytest.mark.parametrize("cell, message", [
    ("p1;p2;p1", "dropped 1 repeated provider id(s) for case c1"),
    ("p1;unknown;p1", "dropped 1 invalid and 1 repeated provider id(s) "
                      "for case c1"),
])
@pytest.mark.parametrize("form, rows", [
    ("wide", ["c1,0,1,50,M,1,{}"]),
    ("long", ["c1,0,1,50,M,1,{}"]),
    ("long", ["c1,0,1,50,M,1,p0", "c1,,,,,,{}"]),  # a continuation row
])
def test_a_repeated_provider_id_is_named_repeated(cell, message, form, rows):
    header = HEADER if form == "wide" else HEADER[:-1]
    text = "\n".join([header] + [r.format(cell) for r in rows]) + "\n"
    cases, diags = read_cases_text(text, provider_form=form)
    kept = {t for t in cell.split(";") if t != "unknown"}
    if len(rows) == 2:
        kept.add("p0")
    assert cases[0].providers == kept
    assert [(d.row, d.message) for d in diags] == [(len(rows) + 1, message)]


def test_ids_holding_a_tab_or_line_break_are_refused():
    # each would split its row of network_data.tsv or node_metrics_seg<k>.tsv
    text = io.StringIO()
    csv.writer(text).writerows([
        HEADER.split(","),
        ["c\tX", "0", "1", "50", "M", "1", "a;b"],
        ["c\nY", "0", "1", "50", "M", "1", "a"],
        ["c\rZ", "0", "1", "50", "M", "1", "a"],
        ["c3", "0", "1", "50", "M", "1", "a;p\tq;b\n;null;c"],
    ])
    cases, diags = read_cases_text(text.getvalue())
    assert [c.case_id for c in cases] == ["c3"]
    # a trailing break is whitespace that stripping removes
    assert cases[0].providers == frozenset({"a", "b", "c"})
    assert [(d.row, d.message) for d in diags] == [
        (2, "case_id 'c\\tX' holds a tab or line break"),
        (3, "case_id 'c\\nY' holds a tab or line break"),
        (4, "case_id 'c\\rZ' holds a tab or line break"),
        (5, "dropped 2 invalid provider id(s) for case c3")]


def test_no_valid_providers_keeps_case_with_diagnostic():
    cases, diags = read_cases_text(HEADER + "\nc1,0,1,50,M,1,null\n")
    assert cases[0].providers == frozenset()
    assert any("no valid providers" in d.message for d in diags)


def test_duplicate_case_id_skipped_in_wide_form():
    text = HEADER + "\nc1,0,1,50,M,1,a\nc1,5,6,60,F,2,b\n"
    cases, diags = read_cases_text(text)
    assert len(cases) == 1 and cases[0].age == 50
    assert any("duplicate case_id" in d.message for d in diags)


def test_malformed_numeric_rows_skipped_with_diagnostics():
    text = (HEADER + "\n"
            "c1,ten,1,50,M,1,a\n"        # non-numeric day
            "c2,-3,1,50,M,1,a\n"         # negative day
            "c3,0,1,50,M,one,a\n"        # non-numeric surgery type
            # digit-group underscores, which int() reads: 5_0 is 50
            "c5,0,1,5_0,M,1,a\n"
            "c6,1_0,11,50,M,1,a\n"
            "c7,0,1,50,M,1_2,a\n"
            "c4,0,1,50,M,1,a\n")
    cases, diags = read_cases_text(text)
    assert [c.case_id for c in cases] == ["c4"]
    messages = " | ".join(d.message for d in diags)
    assert "non-numeric day_offset" in messages
    assert "negative day_offset" in messages
    assert "non-numeric surgery_type" in messages
    assert [(d.row, d.message) for d in diags[3:]] == [
        (5, "non-numeric age: '5_0'"),
        (6, "non-numeric day_offset: '1_0'"),
        (7, "non-numeric surgery_type: '1_2'")]


def test_integers_are_ascii_digits_only():
    # int() reads any Unicode decimal digits and digit-group underscores;
    # a cell is [+-]?[0-9]+ after its surrounding whitespace is stripped
    text = (HEADER + "\n"
            "c1,\u0660,\u0661,\u0665\u0660,M,1,a\n"   # Arabic-Indic 0, 1, 50
            "c2,0,1,\uff15\uff10,M,1,a\n"              # full-width 50
            "c3,0,1,50,M,\U0001d7d0,a\n"               # mathematical bold 2
            "c4, +3 ,\t007 ,-0,M,+1,a\n")
    cases, diags = read_cases_text(text)
    assert [(d.row, d.message) for d in diags] == [
        (2, "non-numeric day_offset: '\u0660'"),
        (2, "non-numeric end_day_offset: '\u0661'"),
        (2, "non-numeric age: '\u0665\u0660'"),
        (3, "non-numeric age: '\uff15\uff10'"),
        (4, "non-numeric surgery_type: '\U0001d7d0'")]
    assert [(c.case_id, c.day_offset, c.end_day_offset, c.age,
             c.surgery_type) for c in cases] == [("c4", 3, 7, 0, 1)]
    long_text = ("case_id,day_offset,end_day_offset,age,gender,surgery_type,"
                 "provider\n"
                 "c1,0,1,50,M,1,a\n"
                 "c1,\u0660,,\u0665\u0660,,\uff11,b\n")
    cases, diags = read_cases_text(long_text, provider_form="long")
    assert cases[0].providers == frozenset("ab")
    assert [(d.row, d.message) for d in diags] == [
        (3, "non-numeric day_offset: '\u0660'"),
        (3, "non-numeric age: '\u0665\u0660'"),
        (3, "non-numeric surgery_type: '\uff11'")]


def test_integers_beyond_64_bits_skipped_with_diagnostics():
    big = 2 ** 63
    text = (HEADER + "\n"
            f"c1,{big},{big + 1},50,M,1,a\n"
            f"c2,0,1,50,M,{-big - 1},a\n"
            f"c3,0,1,{-big},M,1,a\n"
            f"c4,{big - 1},{big - 1},{2 ** 80},M,{-big + 1},a\n")
    cases, diags = read_cases_text(text)
    assert [(d.row, d.message) for d in diags] == [
        (2, f"out-of-range day_offset: {big}"),
        (2, f"out-of-range end_day_offset: {big + 1}"),
        (3, f"out-of-range surgery_type: {-big - 1}"),
        (4, f"out-of-range age: {-big}"),
        (5, f"out-of-range age: {2 ** 80}"),
    ]
    assert len(cases) == 0
    cases, _ = read_cases_text(HEADER + f"\nc4,{big - 1},{big - 1},95,M,"
                               f"{-big + 1},a\n")
    assert (cases[0].day_offset, cases[0].age, cases[0].surgery_type) == (
        big - 1, 90, -big + 1)


def test_case_table_round_trips_its_records():
    text = (HEADER + ",dx_1,dx_2\n"
            "c2,4,,,F,,b;a,998.5,998.5\n"
            "c1,0,3,95,x,7,c,,250.00\n"
            "c3,1,2,30,M,1,null,,\n")
    cases, _ = read_cases_text(text)
    records = list(cases)
    assert [c.case_id for c in records] == ["c2", "c1", "c3"]
    assert records[0] == make_case("c2", day=4, end=None, age=None,
                                   gender="female", surgery_type=None,
                                   providers=("a", "b"), dx=("998.5", "998.5"))
    assert cases[-1] == records[2] and cases[-1].providers == frozenset()
    assert list(cases.take([2, 0])) == [records[2], records[0]]
    assert cases.provider_ids == ("a", "b", "c")
    with pytest.raises(IndexError):
        cases[3]


def test_empty_cells_become_none_not_errors():
    cases, diags = read_cases_text(HEADER + "\nc1,,1,,M,,a\n")
    assert diags == []
    c = cases[0]
    assert c.day_offset is None and c.age is None and c.surgery_type is None


def test_empty_case_id_and_blank_rows():
    # a row with data but no id gets a diagnostic; fully blank rows are
    # skipped silently
    text = HEADER + "\n,0,1,50,M,1,a\n\n  , , , , , , \nc2,0,1,50,M,1,a\n"
    cases, diags = read_cases_text(text)
    assert [c.case_id for c in cases] == ["c2"]
    assert sum("empty case_id" in d.message for d in diags) == 1


def test_dx_overflow_truncated_to_50():
    dx_headers = ",".join(f"dx_{k}" for k in range(1, 56))
    dx_values = ",".join("996.0" for _ in range(55))
    text = f"{HEADER},{dx_headers}\nc1,0,1,50,M,1,a,{dx_values}\n"
    cases, diags = read_cases_text(text)
    assert len(cases[0].dx_codes) == 50
    assert any("keeping first 50" in d.message for d in diags)


def test_empty_file_raises_data_error():
    with pytest.raises(DataError, match="empty"):
        read_cases_text("")


def test_missing_column_raises_config_error():
    with pytest.raises(ConfigError, match="not found"):
        read_cases_text("case_id,day_offset\nc1,0\n")
    # a column the parser reads may not be named twice, a stray one may
    for header, name in ((HEADER + ",age", "age"),
                         (HEADER + ",dx_1, dx_1 ", "dx_1"),
                         (HEADER + ",dx_1,dx_2,dx_1", "dx_1"),
                         # one dx slot, int(k), under two names
                         (HEADER + ",dx_01,dx_1", "dx_1"),
                         (HEADER + ",dx_1,dx_01", "dx_01")):
        with pytest.raises(ConfigError, match=f"repeated in header: \\['{name}'\\]"):
            read_cases_text(header + "\nc1,0,1,50,M,1,a,,,\n")
    cases, diags = read_cases_text(HEADER + ",note,note\nc1,0,1,50,M,1,a,x,y\n")
    assert diags == [] and cases[0].age == 50
    # long form does not read providers, so it may be named twice
    cases, _ = read_cases_text(HEADER + ",providers,provider\nc1,0,1,50,M,1,,,a\n",
                               provider_form="long")
    assert cases[0].providers == {"a"}


def test_cells_past_the_header_are_reported_and_the_row_kept():
    text = (HEADER + ",dx_1\n"
            "c1,0,1,50,M,1,a,998.5,EXTRA,MORE\n"
            "c2,0,1,50,M,1,b,998.5,,\n"
            "c3,0,1,50,M,1,c,998.5, ,x,\n")
    cases, diags = read_cases_text(text)
    assert [c.case_id for c in cases] == ["c1", "c2", "c3"]
    assert all(c.dx_codes == ("998.5",) for c in cases)
    assert [(d.row, d.message) for d in diags] == [
        (2, "dropped 2 non-empty cell(s) past the 8 header columns"),
        (4, "dropped 1 non-empty cell(s) past the 8 header columns")]


def test_oversized_cell_skips_its_row_with_a_diagnostic():
    # csv's field limit is 131 072 characters; the reader resumes at the
    # next line
    big = ";".join(["p"] * 100_000)
    text = HEADER + f"\nc1,0,1,50,M,1,a\nc2,0,1,50,M,1,{big}\nc3,0,1,50,M,1,b\n"
    cases, diags = read_cases_text(text)
    assert [c.case_id for c in cases] == ["c1", "c3"]
    assert len(diags) == 1 and diags[0].row == 3
    assert "field larger than field limit" in diags[0].message


def test_oversized_header_cell_raises_data_error():
    with pytest.raises(DataError, match="field larger than field limit"):
        read_cases_text("x" * 200_000 + "," + HEADER + "\nc1,0,1,50,M,1,a\n")


def test_schema_override_and_delimiter():
    text = HEADER.replace(",", "|") + "\nc1|0|1|50|M|1|a;b\n"
    cases, diags = read_cases_text(text, delimiter="|")
    assert diags == []
    assert cases[0].case_id == "c1" and cases[0].providers == {"a", "b"}


def test_long_form_merges_providers():
    text = ("case_id,day_offset,end_day_offset,age,gender,surgery_type,provider\n"
            "c1,0,2,50,M,1,a\n"
            "c1,0,2,50,M,1,b\n"
            "c2,1,3,60,F,2,c\n"
            "c1,0,2,50,M,1,c\n")
    cases, diags = read_cases_text(text, provider_form="long")
    assert diags == []
    assert len(cases) == 2
    assert cases[0].providers == frozenset({"a", "b", "c"})
    assert cases[1].providers == frozenset({"c"})


def test_long_form_judges_a_case_s_providers_on_all_its_rows():
    # a placeholder row first, then the ids: as the wide cell "null;a;b"
    text = ("case_id,day_offset,end_day_offset,age,gender,surgery_type,provider\n"
            "c1,0,2,50,M,1,null\n"
            "c2,1,3,60,F,2,\n"
            "c1,0,2,50,M,1,a\n"
            "c3,1,3,60,F,2,x\n"
            "c1,0,2,50,M,1,b\n")
    cases, diags = read_cases_text(text, provider_form="long")
    assert cases[0].providers == frozenset({"a", "b"})
    assert cases[1].providers == frozenset()
    assert [(d.row, d.message) for d in diags] == [
        (2, "dropped 1 invalid provider id(s) for case c1"),
        (3, "dropped 1 invalid provider id(s) for case c2"),
        (3, "case c2 has no valid providers")]


# repeated dx codes in a row, and providers merged from later rows, one
# of them listed twice
TAKE_TEXT = ("case_id,day_offset,end_day_offset,age,gender,surgery_type,"
             "provider,dx_1,dx_2,dx_3\n"
             "c1,0,2,50,M,1,b,996.1,996.1,250.0\n"
             "c2,1,3,,F,,c,,,\n"
             "c1,,,,,,a,,,\n"
             "c3,2,4,70,M,2,,997.3,,997.3\n"
             "c1,,,,,,b,,,\n"
             "c4,5,6,30,F,1,d,250.0,996.1,250.0\n"
             "c2,,,,,,a,,,\n")


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.integers(0, 3), max_size=12))
def test_take_gives_the_selected_records(rows):
    cases, _ = read_cases_text(TAKE_TEXT, provider_form="long")
    assert cases[0].providers == frozenset("ab")
    assert cases[3].dx_codes == ("250.0", "996.1", "250.0")
    for order in (rows, rows[::-1]):  # repeats, reversed, empty
        assert list(cases.take(order)) == [cases[i] for i in order]


def test_long_form_reports_every_discarded_continuation_value():
    text = ("case_id,day_offset,end_day_offset,age,gender,surgery_type,"
            "provider,dx_1,dx_2\n"
            "c1,0,2,95,M,1,a,998.5,\n"
            # same values (age 95 caps to the kept 90), an empty cell, the
            # kept dx code: nothing is lost
            "c1,0,,95,male,1,b,998.5,\n"
            # five conflicting scalars, then two codes beyond the kept
            # one, then an unparseable day and age
            "c1,3,4,70,F,2,c,998.5,997.1\n"
            "c1,,,,,,d,998.5,998.5\n"
            "c1,x,,,,,e,,\n"
            "c1,,,9_0,,,f,,\n")
    cases, diags = read_cases_text(text, provider_form="long")
    assert len(cases) == 1
    c1 = cases[0]
    assert c1.providers == frozenset("abcdef")
    assert (c1.day_offset, c1.end_day_offset, c1.age, c1.gender,
            c1.surgery_type, c1.dx_codes) == (0, 2, 90, "male", 1, ("998.5",))
    assert [(d.row, d.message) for d in diags] == [
        (4, "case c1: discarded conflicting day_offset 3 (kept 0)"),
        (4, "case c1: discarded conflicting end_day_offset 4 (kept 2)"),
        (4, "case c1: discarded conflicting age 70 (kept 90)"),
        (4, "case c1: discarded conflicting surgery_type 2 (kept 1)"),
        (4, "case c1: discarded conflicting gender 'female' (kept 'male')"),
        (4, "case c1: discarded dx code '997.1' beyond the kept codes"),
        (5, "case c1: discarded dx code '998.5' beyond the kept codes"),
        (6, "non-numeric day_offset: 'x'"),
        (7, "non-numeric age: '9_0'"),
    ]


def test_bad_provider_form_raises_config_error():
    with pytest.raises(ConfigError, match="provider_form"):
        read_cases_text(HEADER + "\nc1,0,1,50,M,1,a\n", provider_form="tall")


def test_parse_from_path(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "\nc1,0,1,50,M,1,a\n")
    cases, _ = parse_cases(path)
    assert len(cases) == 1
    with pytest.raises(DataError, match="cannot read"):
        parse_cases(tmp_path / "missing.csv")


# ---------------------------------------------------------------------------
# exclusions


def test_exclusion_rules_each_fire():
    keep = make_case("ok")
    dropped = [
        make_case("young", age=20),
        make_case("no-age", age=None),
        make_case("no-start", day=None),
        make_case("no-end", end=None),
        make_case("same-day", day=5, end=5),
        make_case("negative-stay", day=5, end=3),
        make_case("no-team", providers=()),
    ]
    retained, report = apply_exclusions(case_table([keep] + dropped))
    assert [c.case_id for c in retained] == ["ok"]
    assert report == {"age": 2, "missing dates": 2,
                      "same-day discharge": 2, "providers": 1}


def test_exclusion_attribution_is_first_matching_rule():
    # under-age AND same-day: only the age rule should claim it
    case = make_case("both", age=18, day=4, end=4)
    _, report = apply_exclusions(case_table([case]))
    assert report["age"] == 1
    assert report["same-day discharge"] == 0


def test_exclusions_idempotent():
    cases = case_table([make_case("a"), make_case("b", age=10),
                        make_case("c", day=2, end=2)])
    once, _ = apply_exclusions(cases)
    twice, report = apply_exclusions(once)
    assert twice == once
    assert all(v == 0 for v in report.values())


def test_rule_order_matches_report_keys():
    names = [name for name, _ in EXCLUSION_RULES]
    assert names == ["age", "missing dates", "same-day discharge", "providers"]


# ---------------------------------------------------------------------------
# segmentation


def test_segments_partition_cases_by_365_day_windows():
    cases = [make_case(f"c{d}", day=d, end=d + 1) for d in (0, 364, 365, 729, 730)]
    segments = segment_cases(case_table(cases))
    assert [s.index for s in segments] == [1, 2, 3]
    assert [(s.start_day, s.end_day_exclusive) for s in segments] == [
        (0, 365), (365, 730), (730, 731)]
    assert [[c.case_id for c in s.cases] for s in segments] == [
        ["c0", "c364"], ["c365", "c729"], ["c730"]]


def test_segment_windows_anchor_at_min_day():
    cases = [make_case("a", day=100, end=101), make_case("b", day=500, end=501)]
    segments = segment_cases(case_table(cases))
    assert segments[0].start_day == 100
    assert segments[0].end_day_exclusive == 465
    assert (segments[1].start_day, segments[1].end_day_exclusive) == (465, 501)


def test_segment_output_is_input_order_independent():
    rng = np.random.default_rng(7)
    cases = [make_case(f"c{i}", day=int(d), end=int(d) + 2)
             for i, d in enumerate(rng.integers(0, 1200, size=40))]
    shuffled = list(cases)
    rng.shuffle(shuffled)
    a = segment_cases(case_table(cases))
    b = segment_cases(case_table(shuffled))
    assert a == b
    for seg in a:  # ordered by (day, case_id) within segment
        keys = [(c.day_offset, c.case_id) for c in seg.cases]
        assert keys == sorted(keys)


def test_segment_custom_window():
    for days, window, sizes in [
            ((0, 9, 10, 25), 10, [2, 1, 1]),
            # (2**62 + 1) / 2**62 rounds to 1.0 in floats
            ((0, 1, 2 ** 62), 2 ** 62, [2, 1])]:
        cases = [make_case(f"c{d}", day=d, end=d + 1) for d in days]
        segments = segment_cases(case_table(cases), window_days=window)
        assert [len(s.cases) for s in segments] == sizes
        # every case lands in exactly one segment, inside its window
        ids = [c.case_id for s in segments for c in s.cases]
        assert sorted(ids) == sorted(c.case_id for c in cases)
        for s in segments:
            assert all(s.start_day <= c.day_offset < s.end_day_exclusive
                       for c in s.cases)
        assert segments[-1].start_day == min(days) + (len(sizes) - 1) * window
        assert segments[-1].end_day_exclusive == max(days) + 1


def test_segment_errors():
    with pytest.raises(ConfigError, match="window_days"):
        segment_cases(case_table([make_case()]), window_days=0)
    with pytest.raises(ConfigError, match="window_days"):
        segment_cases(case_table([make_case()]), window_days=2 ** 63)
    with pytest.raises(DataError, match="no cases"):
        segment_cases(case_table([]))
    with pytest.raises(DataError, match="missing day_offset"):
        segment_cases(case_table([make_case(day=None)]))
