"""Postoperative complication detection from ICD-9-CM diagnosis codes.

The shipped codeset covers the surgical-complication categories 996.x
through 999.x at subcategory granularity. A case's complication count is
the number of its diagnosis codes matching any codeset entry; duplicate
matches count individually by default. A codeset is immutable, so it
scans its entries once per distinct code and keeps the answer. Counts for
a case table, one per row, take each distinct code of the table once.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

# (prefix, ICD-9-CM definition), subcategory granularity.
_EMBEDDED_ROWS = (
    ("996.0", "Mechanical complication of cardiac device, implant, and graft"),
    ("996.1", "Mechanical complication of other vascular device, implant, and graft"),
    ("996.2", "Mechanical complication of nervous system device, implant, and graft"),
    ("996.3", "Mechanical complication of genitourinary device, implant, and graft"),
    ("996.4", "Mechanical complication of internal orthopedic device, implant, and graft"),
    ("996.5", "Mechanical complication of other specified prosthetic device, implant, and graft"),
    ("996.6", "Infection and inflammatory reaction due to internal prosthetic device, implant, and graft"),
    ("996.7", "Other complications of internal (biological) (synthetic) prosthetic device, implant, and graft"),
    ("996.8", "Complications of transplanted organ"),
    ("996.9", "Complications of reattached extremity or body part"),
    ("997.0", "Nervous system complications"),
    ("997.1", "Cardiac complications"),
    ("997.2", "Peripheral vascular complications"),
    ("997.3", "Respiratory complications"),
    ("997.4", "Digestive system complications"),
    ("997.5", "Urinary complications"),
    ("997.6", "Amputation stump complication"),
    ("997.7", "Vascular complications of other vessels"),
    ("997.9", "Complications affecting other specified body systems, not elsewhere classified"),
    ("998.0", "Postoperative shock"),
    ("998.1", "Hemorrhage or hematoma or seroma complicating a procedure"),
    ("998.2", "Accidental puncture or laceration during a procedure"),
    ("998.3", "Disruption of wound"),
    ("998.4", "Foreign body accidentally left during a procedure"),
    ("998.5", "Postoperative infection"),
    ("998.6", "Persistent postoperative fistula"),
    ("998.7", "Acute reaction to foreign substance accidentally left during a procedure"),
    ("998.8", "Other specified complications of procedures, not elsewhere classified"),
    ("998.9", "Unspecified complication of procedure, not elsewhere classified"),
    ("999.0", "Generalized vaccinia"),
    ("999.1", "Air embolism"),
    ("999.2", "Other vascular complications"),
    ("999.3", "Other infection"),
    ("999.4", "Anaphylactic shock due to serum"),
    ("999.5", "Other serum reaction"),
    ("999.6", "ABO incompatibility reaction"),
    ("999.7", "Rh incompatibility reaction"),
    ("999.8", "Other infusion and transfusion reaction"),
    ("999.9", "Other and unspecified complications of medical care, not elsewhere classified"),
)


@dataclass(frozen=True)
class CodesetEntry:
    prefix: str
    definition: str


class ComplicationCodeset:
    """Ordered list of complication code prefixes with their definitions."""

    def __init__(self, entries):
        self.entries = tuple(CodesetEntry(p, d) for p, d in entries)
        self._matches = {}  # normalized code -> entry or None
        seen = set()
        for e in self.entries:
            if not e.prefix.startswith(("996", "997", "998", "999")):
                raise DataError(f"codeset prefix {e.prefix!r} outside 996-999")
            if e.prefix in seen:
                raise DataError(f"duplicate codeset prefix {e.prefix!r}")
            seen.add(e.prefix)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def embedded(cls):
        """The built-in 39-entry surgical-complication codeset."""
        return cls(_EMBEDDED_ROWS)

    @classmethod
    def load(cls, source):
        """The codeset a ``codeset`` setting names: "embedded" or a file."""
        return cls.embedded() if source == "embedded" else cls.from_file(source)

    @classmethod
    def from_file(cls, path):
        """Load ``prefix<TAB>definition`` lines; blank lines are skipped."""
        entries = []
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read codeset file {path}: {exc}") from exc
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            prefix, sep, definition = line.partition("\t")
            if not sep:
                raise DataError(f"codeset line {line_no} has no tab separator")
            entries.append((normalize_icd9(prefix), definition.strip()))
        return cls(entries)

    def dump(self, stream):
        """Write the codeset in the file format it is loaded from."""
        for e in self.entries:
            stream.write(f"{e.prefix}\t{e.definition}\n")


def normalize_icd9(raw: str) -> str:
    """Canonical form for prefix matching: trimmed, upper-cased, with the
    decimal point inserted after the third character when absent.

    V- and E-codes pass through untouched apart from trimming.
    """
    code = raw.strip().upper()
    if not code:
        raise DataError("empty ICD-9 code")
    if code[0] in ("V", "E"):
        return code
    if "." not in code and len(code) > 3:
        code = code[:3] + "." + code[3:]
    return code


def match_complication(code: str, codeset: ComplicationCodeset):
    """Entry whose prefix covers ``code`` at subcategory granularity.

    A code matches an entry when it equals the prefix or extends it with
    further digits. A bare three-digit class (e.g. "996") is matched to
    its first covering entry. Returns None when nothing matches. The
    answer is kept on the codeset, so each distinct code is scanned once.
    """
    if code not in codeset._matches:
        codeset._matches[code] = _scan(code, codeset)
    return codeset._matches[code]


def _scan(code, codeset):
    """``match_complication`` without the memo: the codeset in order."""
    for entry in codeset:
        rest = code[len(entry.prefix):]
        if code.startswith(entry.prefix) and (rest == "" or rest.isdigit()):
            return entry
    for entry in codeset:
        if entry.prefix.startswith(code + "."):
            return entry
    return None


def count_complications(cases, codeset: ComplicationCodeset, distinct=False):
    """Number of complication codes detected on each case.

    ``cases`` is a CaseTable; the counts are an int64 array, one per row.
    Each matching diagnosis code counts, so duplicates add up; with
    ``distinct`` every matched codeset entry counts once per case. Each
    distinct code of the table is matched once; the counts are the row
    sums of the case x code matrix over the matched codes.
    """
    position = {e: k for k, e in enumerate(codeset.entries)}
    entry = np.array([position.get(match_complication(normalize_icd9(code),
                                                      codeset), -1)
                      for code in cases.codes], dtype=np.int64)[cases.dx.indices]
    hit = entry >= 0
    rows = cases.dx.rows()[hit]
    if distinct:  # one hit per (row, entry) pair
        rows = np.unique(np.stack([rows, entry[hit]]), axis=1)[0]
    return np.bincount(rows, minlength=len(cases))
