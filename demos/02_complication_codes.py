"""
Counting postoperative complications
====================================

The outcome variable C counts how many of a case's discharge diagnoses
fall under the postoperative-complication code classes (ICD-9-CM range
996-999). This demo walks through the matching rules.
"""

import io

from surgnet.complications import (ComplicationCodeset, count_complications,
                                   match_complication, normalize_icd9)
from surgnet.records import parse_cases

codeset = ComplicationCodeset.embedded()
print(f"embedded codeset: {len(codeset.entries)} code classes")
for entry in codeset.entries[:5]:
    print(f"  {entry.prefix:<7} {entry.definition}")
print("  ...")

# Codes arrive in several spellings; normalization upper-cases and
# restores the decimal point of plain digit strings.
for raw in ("99659", "996.59", " 997.1 ", "E878.1"):
    print(f"normalize {raw!r:<10} -> {normalize_icd9(raw)!r}")

# A diagnosis matches a class when it equals the prefix or extends it
# with further digits; a bare three-digit class code matches the first
# class that refines it.
for code in ("996.52", "996.529", "996", "250.00"):
    entry = match_complication(code, codeset)
    hit = entry.prefix if entry else "no match"
    print(f"match {code:<8} -> {hit}")

# The worked example, c1: two of the three discharge diagnoses are
# complication codes, so C = 2. Repeats of the same class, as in c2,
# still count once per occurrence unless distinct=True. The counts come
# for a whole parsed case file at once, one per case.
CASES = """\
case_id,day_offset,end_day_offset,age,gender,surgery_type,providers,dx_1,dx_2,dx_3
c1,0,6,64,M,3,anna;ben,996.52,998.59,250.00
c2,0,6,70,F,1,anna,998.59,998.59,
"""
cases, diagnostics = parse_cases(io.StringIO(CASES))
counts = count_complications(cases, codeset)
distinct = count_complications(cases, codeset, distinct=True)
case, twice = cases
print(f"\ndx {list(case.dx_codes)} -> C = {counts[0]}")
print(f"dx {list(twice.dx_codes)} -> C = {counts[1]} (occurrences), "
      f"{distinct[1]} (distinct)")
