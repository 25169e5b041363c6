"""ICD-9-CM complication codeset, normalization, matching, and counting."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import case_table, make_case
from surgnet import complications
from surgnet.complications import (
    ComplicationCodeset,
    count_complications,
    match_complication,
    normalize_icd9,
)
from surgnet.errors import DataError

CODESET = ComplicationCodeset.embedded()
# a second codeset alive in the same process: a bare class, a subset, and
# an order different from the embedded one
OTHER = ComplicationCodeset([("998", "Complications of procedures"),
                             ("997.3", "Respiratory complications"),
                             ("996.5", "Mechanical, other prosthetic")])


def test_embedded_codeset_shape():
    assert len(CODESET) == 39
    prefixes = [e.prefix for e in CODESET]
    assert len(set(prefixes)) == 39
    assert all(p[:3] in ("996", "997", "998", "999") for p in prefixes)
    assert all(len(p) == 5 and p[3] == "." for p in prefixes)
    assert all(e.definition for e in CODESET)
    # 997.8 is the one absent subcategory in the 996-999 block
    assert "997.8" not in prefixes
    assert prefixes == sorted(prefixes)


def test_normalize_icd9():
    assert normalize_icd9("99681") == "996.81"
    assert normalize_icd9(" 996.81 ") == "996.81"
    assert normalize_icd9("996") == "996"
    assert normalize_icd9("9968") == "996.8"
    assert normalize_icd9("v4511") == "V4511"
    assert normalize_icd9("E878.1") == "E878.1"
    assert normalize_icd9("25000") == "250.00"
    with pytest.raises(DataError, match="empty"):
        normalize_icd9("   ")


def test_every_prefix_matches_itself():
    for entry in CODESET:
        assert match_complication(entry.prefix, CODESET) is entry


def test_match_extensions_and_misses():
    assert match_complication("996.52", CODESET).prefix == "996.5"
    assert match_complication("998.59", CODESET).prefix == "998.5"
    assert match_complication("997.31", CODESET).prefix == "997.3"
    assert match_complication("250.00", CODESET) is None
    assert match_complication("V45.81", CODESET) is None
    # extension must be digits, not an arbitrary suffix
    assert match_complication("996.5A", CODESET) is None


def test_bare_class_maps_to_first_covering_entry():
    assert match_complication("996", CODESET).prefix == "996.0"
    assert match_complication("999", CODESET).prefix == "999.0"
    # 997.8 is absent, so the bare class still lands on 997.0
    assert match_complication("997", CODESET).prefix == "997.0"


def test_worked_example_counts_two():
    case = case_table([make_case(dx=("996.52", "998.59", "250.00"))])
    assert count_complications(case, CODESET).tolist() == [2]


def test_duplicates_count_individually_unless_distinct():
    case = case_table([make_case(dx=("998.59", "998.59", "998.51", "401.9"))])
    assert count_complications(case, CODESET).tolist() == [3]
    assert count_complications(case, CODESET, distinct=True).tolist() == [1]


def test_unnormalized_input_codes_still_match():
    case = case_table([make_case(dx=("99652", " 998.59 ", "25000"))])
    assert count_complications(case, CODESET).tolist() == [2]


def test_counts_match_prefix_scan_oracle_on_random_codes():
    rng = np.random.default_rng(42)
    prefixes = [e.prefix for e in CODESET]
    pool = (
        [f"{cls}.{d}{e}" for cls in (996, 997, 998, 999)
         for d in range(10) for e in ("", "1", "23")]
        + ["250.00", "401.9", "V45.81", "E878.1", "996", "997", "42"]
        + ["99652", "9985", "25000"]
    )
    dxs = [tuple(rng.choice(pool, size=int(rng.integers(0, 12))))
           for _ in range(200)]
    cases = case_table(make_case(f"c{k}", dx=dx) for k, dx in enumerate(dxs))
    for dx, count in zip(dxs, count_complications(cases, CODESET).tolist()):
        assert count == oracles.count_by_prefix_scan(dx, prefixes)


# raw dx cells over the shapes the matcher tells apart: bare classes,
# subcategories with and without the point, trailing letters, V/E codes
RAW_CODES = st.one_of(
    st.builds(str.__add__,
              st.sampled_from(["996", "997", "998", "999", "250", "401"]),
              st.sampled_from(["", ".", "5", "52", ".5", ".52", ".59",
                               "5A", ".5A", ".A", "A1"])),
    st.from_regex(r"[VvEe][0-9]{2,3}(\.[0-9]{1,2})?", fullmatch=True),
    st.text(alphabet="0123456789.VEA ", min_size=1, max_size=7)
    .filter(str.strip),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RAW_CODES, max_size=12))
def test_memoized_match_is_the_scanned_entry(raw):
    for codeset in (CODESET, OTHER):
        scanned = [complications._scan(normalize_icd9(r), codeset) for r in raw]
        for r, entry in zip(raw, scanned):
            # first call may fill the memo, the second reads it
            assert match_complication(normalize_icd9(r), codeset) is entry
            assert match_complication(normalize_icd9(r), codeset) is entry
        case = case_table([make_case(dx=raw)])
        assert count_complications(case, codeset).tolist() == \
            [sum(e is not None for e in scanned)]
        assert count_complications(case, codeset, distinct=True).tolist() == \
            [len({e.prefix for e in scanned if e is not None})]


def test_memo_is_per_codeset():
    assert match_complication("998", CODESET).prefix == "998.0"
    assert match_complication("998", OTHER).prefix == "998"
    assert match_complication("998.59", CODESET).prefix == "998.5"
    assert match_complication("998.59", OTHER) is None
    assert match_complication("996.52", OTHER).prefix == "996.5"
    assert match_complication("996.52", CODESET).prefix == "996.5"
    assert match_complication("996.52", OTHER) is not \
        match_complication("996.52", CODESET)


def test_codeset_file_round_trip(tmp_path):
    path = tmp_path / "codes.tsv"
    buf = io.StringIO()
    CODESET.dump(buf)
    path.write_text(buf.getvalue())
    loaded = ComplicationCodeset.from_file(path)
    assert loaded.entries == CODESET.entries


def test_codeset_file_normalizes_prefixes(tmp_path):
    path = tmp_path / "codes.tsv"
    path.write_text("9965\tMechanical complication\n\n99810\tHemorrhage\n")
    loaded = ComplicationCodeset.from_file(path)
    assert [e.prefix for e in loaded] == ["996.5", "998.10"]


def test_codeset_file_errors(tmp_path):
    missing_tab = tmp_path / "bad.tsv"
    missing_tab.write_text("996.5 no tab here\n")
    with pytest.raises(DataError, match="no tab"):
        ComplicationCodeset.from_file(missing_tab)
    with pytest.raises(DataError, match="cannot read"):
        ComplicationCodeset.from_file(tmp_path / "absent.tsv")


def test_codeset_validation():
    with pytest.raises(DataError, match="outside 996-999"):
        ComplicationCodeset([("250.0", "diabetes")])
    with pytest.raises(DataError, match="duplicate"):
        ComplicationCodeset([("996.5", "x"), ("996.5", "y")])
