"""End-to-end orchestration: case file in, report files out.

The flow is ingest -> exclusions -> segmentation -> network build and
projection -> node metrics -> team aggregation -> complication counts ->
joined per-case table -> Spearman matrix -> OLS/VIF screening -> Poisson
fit with goodness of fit -> negative binomial fit with the alpha=0 LR
test. All numeric work happens before any file is created; a failing
stage therefore aborts with the stage name and writes nothing. Given the
same config and input, reruns on one machine are byte-identical.

The cases travel as one columnar ``records.CaseTable`` and the joined
per-case table is a dict of columns (``assemble_rows``), which the
Spearman and regression stages read directly. ``network_data.tsv/.json``
are formatted a column at a time, ``_CHUNK_ROWS`` rows a piece, and
streamed into their staged files. ``RunResult.outputs``, ``.rows`` and
``Segment.cases`` are built from the columns on access. Each segment's
incidence matrix B gives its case-side counts and team means, and
``regression.json`` is written from the ``regression`` result records.
``run`` deletes the node tables an earlier run left for other segments.

The process's parallelism is across segments. Each segment's network
and measures are one task on a thread pool with a worker per CPU the
process may run on (its affinity mask); results and the first error come
back in segment order, and the heap pages the workers freed go back to
the OS (``analyze_segments``). The BLAS thread count is neither set nor read:
- OLS and VIF read the rows once, through ``np.einsum`` (numpy's own
  loop, not BLAS), and solve the small cross-product system after it;
- Spearman's dot products sum half-integer rank deviations, exactly at
  any thread count while the sums stay below 2**51;
- the Poisson and NB2 fits go through BLAS gemv/gemm; on the inputs
  tested with OpenBLAS 0.3.31 their results are the same at 1, 2 and 4
  threads;
- known limit: the bytes are those of one machine. The eigenvector's
  ``np.linalg.norm`` and the fits' gemv/gemm run the BLAS kernels chosen
  for the CPU, so another CPU (or ``OPENBLAS_CORETYPE``) can move the
  last digits of the eigenvector, its team means and the fits. The norm's
  sum can also move with the thread count on vectors of some 20 000
  entries, not on ones of 2 000; the largest components of the benchmark
  workloads have 1 200 and 100 providers.
"""

import ctypes
import hashlib
import json
import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from . import centrality, correlation, csr, network, records, regression
from .complications import ComplicationCodeset, count_complications
from .errors import ConfigError, ConvergenceError, DataError

REGRESSION_COLUMNS = ("age", "teamSize", "typSurgery", "avgBtwn", "avgClos",
                      "avgEigen", "dMale")
CORRELATION_COLUMNS = ("avgBtwn", "avgClos", "avgEigen", "avgClust", "avgDeg")

# conventions recorded in every manifest; outputs are meaningless without them
CONVENTIONS = {
    "betweenness": "geodesic counts over unordered pairs, normalized by (n-1)(n-2)/2",
    "closeness": "component-corrected ((n_c-1)/sum d)*((n_c-1)/(n-1)); isolated nodes 0",
    "eigenvector": "largest connected component only, max entry scaled to 1; others 0",
    "degree": "raw neighbor count; normalized raw/(n-1); team averages use normalized",
    "clustering": "edges among neighbors / C(degree, 2); 0 when degree < 2",
    "projection": "unweighted simple graph; repeat collaborations collapse to one edge",
    "segmentation": "half-open day windows [start, start+window); last ends max day + 1",
    "complications": "each matching dx occurrence counts once",
    "ci95": "coefficient +/- 1.959964 * std_error",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run depends on; hashed into the manifest."""

    input_path: str = ""
    output_dir: str = "surgnet_out"
    window_days: int = records.WINDOW_DAYS
    delimiter: str = ","
    provider_form: str = "wide"
    regression_columns: tuple = REGRESSION_COLUMNS
    codeset: str = "embedded"
    distinct_complications: bool = False

    _KNOWN_COLUMNS = REGRESSION_COLUMNS + ("avgClust", "avgDeg")

    def validate(self):
        def expect(key, ok, what):
            if not ok:
                raise ConfigError(f"{key} must be {what}, "
                                  f"got {getattr(self, key)!r}")

        for key in ("input_path", "output_dir", "codeset"):
            expect(key, isinstance(getattr(self, key), str), "a string")
        if not self.input_path:
            raise ConfigError("input_path is required")
        expect("output_dir", self.output_dir, "a non-empty path")
        expect("window_days", isinstance(self.window_days, int)
               and not isinstance(self.window_days, bool)
               and 1 <= self.window_days <= records.INT_MAX,
               "an integer from 1 to 2**63 - 1")
        expect("delimiter", isinstance(self.delimiter, str)
               and len(self.delimiter) == 1, "a one-character string")
        expect("provider_form", self.provider_form in ("wide", "long"),
               "'wide' or 'long'")
        expect("distinct_complications",
               isinstance(self.distinct_complications, bool), "true or false")
        expect("regression_columns",
               isinstance(self.regression_columns, (list, tuple))
               and all(isinstance(c, str) for c in self.regression_columns),
               "a list of strings")
        unknown = [c for c in self.regression_columns if c not in self._KNOWN_COLUMNS]
        if unknown:
            raise ConfigError(f"unknown regression column(s): {unknown}; "
                              f"known: {list(self._KNOWN_COLUMNS)}")
        if len(set(self.regression_columns)) < len(self.regression_columns):
            raise ConfigError(f"regression_columns lists a column twice: "
                              f"{list(self.regression_columns)}")
        return self

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["regression_columns"] = list(self.regression_columns)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_file(cls, path, **overrides):
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        if isinstance(raw.get("regression_columns"), list):
            raw["regression_columns"] = tuple(raw["regression_columns"])
        return cls(**raw)


ROW_COLUMNS = ("case_id", "segment", "C", "age", "teamSize", "typSurgery",
               "dMale", "avgBtwn", "avgClos", "avgEigen", "avgClust", "avgDeg")
# one row of the joined table read back from its columns, in ROW_COLUMNS
# order; None where a value is missing
CaseRow = namedtuple("CaseRow", (
    "case_id", "segment", "c", "age", "team_size", "surgery_type", "d_male",
    "avg_btwn", "avg_clos", "avg_eigen", "avg_clust", "avg_deg"))


@dataclass(frozen=True)
class SegmentAnalysis:
    segment: records.Segment
    incidence: csr.Csr  # B, one row per case, one column per graph node
    graph: network.CoworkerGraph
    summary: dict  # network.summarize's descriptives
    measures: dict  # centrality.compute_all's columns


@dataclass(frozen=True)
class EstimationResult:
    design: regression.DesignMatrix
    ols: regression.OlsResult
    vifs: list
    poisson: regression.FitResult
    gof: regression.GofResult
    negbin: regression.FitResult
    lr_alpha: regression.LrAlphaResult


@dataclass
class RunResult:
    config: PipelineConfig
    diagnostics: list
    exclusion_report: dict
    analyses: list
    table: dict
    spearman: correlation.SpearmanResult
    estimation: EstimationResult
    manifest: dict
    output_dir: str | None = None
    written: tuple = ()  # names of the artifacts written into output_dir

    @property
    def rows(self):
        """The joined table as CaseRow tuples, built on each access."""
        columns = [self.table[name] for name in ROW_COLUMNS]
        return list(map(CaseRow._make, zip(columns[0], *(
            [None if m else v for v, m in zip(c.tolist(), _missing(c).tolist())]
            for c in columns[1:]))))

    @property
    def outputs(self):
        """Every artifact's name and whole text, rendered on each access."""
        return {name: text if isinstance(text, str) else "".join(text)
                for name, text in _render_outputs(self).items()}


@contextmanager
def _stage(name):
    """Prefix any pipeline error with the stage it came from."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(f"stage {name}: {exc.args[0]}",
                               trace=exc.trace) from exc
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"stage {name}: {exc.args[0]}") from exc


def load_cases(cfg: PipelineConfig):
    """Parse and filter; returns (diagnostics, exclusion_report, retained
    CaseTable)."""
    with _stage("ingest"):
        cases, diagnostics = records.parse_cases(
            cfg.input_path, delimiter=cfg.delimiter,
            provider_form=cfg.provider_form)
        if not cases:
            raise DataError("no parseable cases in input")
    with _stage("exclusions"):
        retained, report = records.apply_exclusions(cases)
        if not retained:
            raise DataError("no cases after exclusion")
    return diagnostics, report, retained


def _analyze_segment(seg):
    """Build, project, and measure one segment's network."""
    with _stage(f"network (segment {seg.index})"):
        providers, incidence = network.build_bipartite(seg)
        graph = network.project_one_mode(providers, incidence)
        summary = network.summarize(graph, incidence)
    with _stage(f"metrics (segment {seg.index})"):
        measures = centrality.compute_all(graph)
    return SegmentAnalysis(segment=seg, incidence=incidence, graph=graph,
                           summary=summary, measures=measures)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def analyze_segments(segments):
    """Build, project, and measure each segment's network.

    Segments are independent, so each is one task on a thread pool with a
    worker per usable CPU; the sparse products and array work of the
    measures release the GIL. Results, and the first error, come back in
    segment order, as from a serial loop. Then glibc's ``malloc_trim(0)``
    hands the pages freed in the workers' arenas, which the main thread's
    later stages cannot reuse, back to the OS. Where the C library has no
    ``malloc_trim`` (macOS, musl), nothing is called.
    """
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        analyses = list(pool.map(_analyze_segment, segments))
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
        trim(0)
    return analyses


def assemble_rows(cfg: PipelineConfig, analyses, codeset):
    """The joined per-case table: a dict of ROW_COLUMNS columns.

    Rows follow the segments and each segment's cases. Team sizes and
    means come from each segment's incidence matrix in one product
    (``centrality.team_means``), complication counts from the segment's
    case table (``count_complications``). ``case_id`` is a list, the
    measure means are float64 arrays and the other columns int64 arrays,
    with ``records.MISSING`` for an empty age or surgery type.
    """
    parts = []
    with _stage("join"):
        for sa in analyses:
            cases = sa.segment.cases
            sizes, means = centrality.team_means(sa.incidence, sa.measures)
            parts.append((
                np.full(len(cases), sa.segment.index, dtype=np.int64),
                count_complications(cases, codeset,
                                    distinct=cfg.distinct_complications),
                cases.age, sizes.astype(np.int64), cases.surgery_type,
                (cases.gender == records.GENDERS.index("male")).astype(np.int64),
                *means.T))
        table = {"case_id": [cid for sa in analyses
                             for cid in sa.segment.cases.case_id]}
        table.update(zip(ROW_COLUMNS[1:], map(np.concatenate, zip(*parts))))
    return table


def _missing(column):
    """Where a numeric column of the joined table has no value."""
    if column.dtype.kind == "f":
        return np.isnan(column)
    return column == records.MISSING


def _floats(table, name):
    """One numeric column as float64; NaN where missing."""
    column = table[name]
    return np.where(_missing(column), np.nan, column.astype(np.float64))


def correlate_rows(table) -> correlation.SpearmanResult:
    with _stage("correlate"):
        cols = {name: _floats(table, name) for name in CORRELATION_COLUMNS}
        return correlation.spearman_matrix(cols)


def estimate(cfg: PipelineConfig, table) -> EstimationResult:
    """Screening plus count regressions on the joined table.

    ``regression.DesignMatrix.build`` picks the sample: rows missing the
    count or any of ``cfg.regression_columns`` are dropped, then the
    covariates constant on the rows left, so degenerate inputs, like
    single-provider datasets with all-zero network measures, still run
    to completion. The manifest itemizes both.
    """
    with _stage("regress"):
        dm = regression.DesignMatrix.build(
            _floats(table, "C"),
            {name: _floats(table, name) for name in cfg.regression_columns})
        ols = regression.ols_fit(dm)
        vifs = regression.vif(dm)
        pois = regression.poisson_fit(dm)
        gof = regression.poisson_gof(pois, dm)
        nb = regression.negbin_fit(dm, start=regression.negbin_start(pois, dm))
        lr = regression.lr_test_alpha(pois, nb)
    return EstimationResult(design=dm, ols=ols, vifs=vifs, poisson=pois,
                            gof=gof, negbin=nb, lr_alpha=lr)


def run_pipeline(cfg: PipelineConfig, write=True) -> RunResult:
    """Execute every stage and, unless ``write`` is false, emit all
    artifacts into ``cfg.output_dir``."""
    cfg.validate()
    with _stage("codeset"):
        codeset = ComplicationCodeset.load(cfg.codeset)
    diagnostics, report, retained = load_cases(cfg)
    with _stage("segment"):
        segments = records.segment_cases(retained, window_days=cfg.window_days)
    del retained  # the segments copy their cases
    analyses = analyze_segments(segments)
    table = assemble_rows(cfg, analyses, codeset)
    spearman = correlate_rows(table)
    est = estimate(cfg, table)

    manifest = _build_manifest(cfg, diagnostics, report, analyses, table,
                               spearman, est)
    result = RunResult(config=cfg, diagnostics=diagnostics,
                       exclusion_report=report, analyses=analyses, table=table,
                       spearman=spearman, estimation=est, manifest=manifest)
    if write:
        outputs = _render_outputs(result)
        with _stage("emit"):
            write_outputs(outputs, cfg.output_dir)
            _remove_stale_tables(cfg.output_dir, outputs)
        result.output_dir, result.written = cfg.output_dir, tuple(sorted(outputs))
    return result


# ---------------------------------------------------------------------------
# rendering


def _fmt(v):
    """Six significant digits for table output; NA for NaN."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if math.isnan(v):
        return "NA"
    return f"{v:.6g}"


def _jclean(obj):
    """Make an object JSON-safe: a dataclass record to the dict of its
    fields, numpy scalars to Python, NaN and infinities to None."""
    if isinstance(obj, dict):
        return {str(k): _jclean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jclean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jclean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if obj is None or isinstance(obj, str):
        return obj
    return {f.name: _jclean(getattr(obj, f.name)) for f in fields(obj)}


def _json_text(obj) -> str:
    return json.dumps(_jclean(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _tsv(rows_of_cells) -> str:
    return "".join("\t".join(cells) + "\n" for cells in rows_of_cells)


def _node_mean(measures, name):
    """Mean of one measure column by the built-in sum in node order;
    np.mean adds pairwise and would move the last digits."""
    column = measures[name].tolist()
    return sum(column) / len(column) if column else 0.0


# the network.summarize descriptives each segments.* row carries, and
# the rows of segments.tsv
_SEGMENT_SUMMARY = ("nodes", "edges", "cases", "avg_team_size", "avg_degree",
                    "density")
_SEGMENT_MEASURES = _SEGMENT_SUMMARY + ("avg_betweenness", "avg_closeness",
                                        "avg_eigenvector", "avg_complications")


def _segment_stats(analyses, table):
    c_count = np.bincount(table["segment"]).tolist()
    c_sum = np.bincount(table["segment"], weights=table["C"]).tolist()
    stats = []
    for sa in analyses:
        k = sa.segment.index
        row = {"segment": k,
               "start_day": sa.segment.start_day,
               "end_day_exclusive": sa.segment.end_day_exclusive}
        for key in _SEGMENT_SUMMARY:
            row[key] = sa.summary[key]
        for name in ("betweenness", "closeness", "eigenvector"):
            row[f"avg_{name}"] = _node_mean(sa.measures, name)
        row["avg_complications"] = c_sum[k] / c_count[k] if c_count[k] else 0.0
        stats.append(row)
    return stats


def _render_segments(stats):
    out = [["measure"] + [str(s["segment"]) for s in stats]]
    for measure in _SEGMENT_MEASURES:
        out.append([measure] + [_fmt(s[measure]) for s in stats])
    return _tsv(out)


# one network_data.json row, keys sorted, at the depth and with the item
# separator of json.dumps(..., indent=2, sort_keys=True)
_JSON_KEYS = sorted(ROW_COLUMNS)
_JSON_ROW = ("{\n    " + ",\n    ".join(f"{json.dumps(k)}: %s" for k in _JSON_KEYS)
             + "\n  }")


_CHUNK_ROWS = 4096  # rows of a table formatted into one piece of its text


def _chunks(table):
    """A table of columns cut into tables of ``_CHUNK_ROWS`` rows."""
    n = len(next(iter(table.values())))
    return ({name: column[start:start + _CHUNK_ROWS]
             for name, column in table.items()}
            for start in range(0, n, _CHUNK_ROWS))


def _column_cells(table, names, float_text, absent):
    """The ``names`` columns of a table of columns as text: ``float_text``
    of each float, ``str`` of each integer, ``absent`` where missing."""
    cells = {}
    for name in names:
        column = table[name]
        out = cells[name] = list(map(
            float_text if column.dtype.kind == "f" else str, column.tolist()))
        for i in np.flatnonzero(_missing(column)).tolist():
            out[i] = absent
    return cells


def _tsv_pieces(table):
    """A table of columns as TSV text, the header and then a piece per
    ``_chunks`` block: its keys as the header, the first column (the ids)
    as it is, the others as ``_fmt`` writes them."""
    names = list(table)
    yield "\t".join(names) + "\n"
    for chunk in _chunks(table):
        cells = _column_cells(chunk, names[1:], "{:.6g}".format, "NA")
        yield "\n".join(map("\t".join, zip(chunk[names[0]],
                                          *cells.values()))) + "\n"


def _network_json_pieces(table):
    """network_data.json as text, a piece per ``_chunks`` block: byte for
    byte the ``_json_text`` of the row dicts, with the repr of a float,
    integers as they are, ASCII-escaped case ids and null where a value
    is missing. network_data.tsv is the table's ``_tsv_pieces``."""
    for i, chunk in enumerate(_chunks(table)):
        cells = _column_cells(chunk, ROW_COLUMNS[1:], float.__repr__, "null")
        cells["case_id"] = list(map(encode_basestring_ascii, chunk["case_id"]))
        yield (",\n  " if i else "[\n  ") + ",\n  ".join(
            map(_JSON_ROW.__mod__, zip(*(cells[k] for k in _JSON_KEYS))))
    yield "\n]\n" if table["case_id"] else "[]\n"


def render_correlation(sp: correlation.SpearmanResult):
    names = sp.names
    out = [["variable"] + list(names)]
    for i, name in enumerate(names):
        cells = [name]
        for j in range(i + 1):
            rho, p = sp.rho[i, j], sp.p[i, j]
            star = "*" if (not math.isnan(p)) and p < 0.01 and i != j else ""
            cells.append(_fmt(rho) + star)
        out.append(cells)
    text = _tsv(out)
    text += f"\nNote: * p < 0.01, number of observations: {sp.n_obs}\n"
    if sp.degenerate:
        text += f"zero-variance column(s): {', '.join(sp.degenerate)}\n"
    return text


def _fit_table(fit: regression.FitResult):
    out = [["C", "coefficient", "std_error", "z", "p", "ci_low", "ci_high"]]
    for k, name in enumerate(fit.columns):
        out.append([name, _fmt(fit.coef[k]), _fmt(fit.std_err[k]),
                    _fmt(fit.z[k]), _fmt(fit.p[k]), _fmt(fit.ci_low[k]),
                    _fmt(fit.ci_high[k])])
    return out


def render_regression(est: EstimationResult):
    lines = ["== collinearity screening (OLS) =="]
    lines.append(f"R-squared\t{_fmt(est.ols.r_squared)}")
    lines.append("variable\tvif\ttolerance")
    for v in est.vifs:
        lines.append(f"{v.name}\t{_fmt(v.vif)}\t{_fmt(v.tolerance)}")
    if est.design.dropped_constant:
        lines.append("dropped zero-variance covariate(s)\t"
                     + ", ".join(est.design.dropped_constant))

    lines.append("")
    lines.append("== poisson ==")
    lines.extend("\t".join(c) for c in _fit_table(est.poisson))
    lines.append(f"log-likelihood\t{_fmt(est.poisson.log_likelihood)}")
    g = est.gof
    lines.append(f"goodness of fit\tpearson_chi2 {_fmt(g.pearson_chi2)}\t"
                 f"df {g.df}\tp {_fmt(g.p_value)}\tdeviance {_fmt(g.deviance)}")

    lines.append("")
    lines.append("== negative binomial ==")
    nb = est.negbin
    table = _fit_table(nb)
    table.append(["ln_alpha", _fmt(nb.ln_alpha), _fmt(nb.ln_alpha_std_err),
                  "", "", _fmt(nb.ln_alpha_ci[0]), _fmt(nb.ln_alpha_ci[1])])
    table.append(["alpha", _fmt(nb.alpha), _fmt(nb.alpha_std_err),
                  "", "", _fmt(nb.alpha_ci[0]), _fmt(nb.alpha_ci[1])])
    lines.extend("\t".join(c) for c in table)
    if nb.alpha_boundary:
        lines.append("alpha at lower boundary (equidispersed data)")
    lines.append(f"log-likelihood\t{_fmt(nb.log_likelihood)}")
    lines.append(f"Likelihood-ratio test of alpha=0\t"
                 f"chibar2(01) = {_fmt(est.lr_alpha.statistic)}\t"
                 f"Prob >= chibar2 = {_fmt(est.lr_alpha.p_value)}")
    lines.append(f"observations\t{nb.n_obs}\t"
                 f"rows_dropped_missing\t{est.design.n_dropped_missing}")
    return "\n".join(lines) + "\n"


# FitResult fields regression.json leaves out, and those only NB2 writes
_FIT_UNWRITTEN = ("design_key",)
_NB2_ONLY = ("alpha", "ln_alpha", "alpha_std_err", "ln_alpha_std_err",
             "alpha_ci", "ln_alpha_ci", "alpha_boundary")


def _fit_record(fit: regression.FitResult):
    skip = _FIT_UNWRITTEN + (() if fit.model == "negbin" else _NB2_ONLY)
    return {f.name: getattr(fit, f.name) for f in fields(fit)
            if f.name not in skip}


def _build_manifest(cfg, diagnostics, report, analyses, table, spearman,
                    est):
    excluded = dict(report)
    cases_per_segment = [sa.summary["cases"] for sa in analyses]
    # the segments partition the retained cases
    retained = sum(cases_per_segment)
    per_segment = []
    for sa in analyses:
        entry = {"segment": sa.segment.index}
        for key in ("cases", "nodes", "edges", "isolated_nodes",
                    "outside_largest_component"):
            entry[key] = sa.summary[key]
        per_segment.append(entry)
    return {
        "surgnet_version": _VERSION,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "conventions": dict(CONVENTIONS),
        "stages": {
            "parse": {"cases": retained + sum(excluded.values()),
                      "diagnostics": len(diagnostics)},
            "exclusions": {"removed": excluded, "retained": retained},
            "segments": {"count": len(analyses),
                         "cases_per_segment": cases_per_segment},
            "network": {"per_segment": per_segment,
                        "cases_with_isolated_providers": sum(
                            sa.summary["isolated_provider_cases"]
                            for sa in analyses)},
            "join": {"rows": len(table["case_id"])},
            "correlate": {"n_obs": spearman.n_obs,
                          "degenerate_columns": list(spearman.degenerate)},
            "regression": {
                "columns": list(est.design.columns),
                "rows_used": est.design.n_obs,
                "rows_dropped_missing": est.design.n_dropped_missing,
                "dropped_constant_covariates": list(est.design.dropped_constant),
                "design_key": est.design.fingerprint(),
            },
        },
    }


def _render_outputs(result: RunResult):
    """Every artifact's name and text; network_data.* as generators of
    text pieces, which format the table only as they are read."""
    report, analyses, table = result.exclusion_report, result.analyses, result.table
    spearman, est = result.spearman, result.estimation
    stats = _segment_stats(analyses, table)
    outputs = {
        "exclusions.tsv": _tsv([["rule", "removed"]]
                               + [[k, str(v)] for k, v in report.items()]
                               + [["retained",
                                   str(sum(s["cases"] for s in stats))]]),
        "segments.tsv": _render_segments(stats),
        "segments.json": _json_text(stats),
        "network_data.tsv": _tsv_pieces(table),
        "network_data.json": _network_json_pieces(table),
        "correlation.tsv": render_correlation(spearman),
        "correlation.json": _json_text({
            "columns": list(spearman.names),
            "rho": spearman.rho,
            "p": spearman.p,
            "n_obs": spearman.n_obs,
            "degenerate_columns": list(spearman.degenerate),
        }),
        "regression.tsv": render_regression(est),
        "regression.json": _json_text({
            "ols": est.ols,
            "vif": est.vifs,
            "dropped_constant_covariates": list(est.design.dropped_constant),
            "poisson": _fit_record(est.poisson),
            "gof": est.gof,
            "negbin": _fit_record(est.negbin),
            "lr_alpha": est.lr_alpha,
        }),
        "manifest.json": _json_text(result.manifest),
    }
    for sa in analyses:  # one row per provider, in id order
        outputs[f"node_metrics_seg{sa.segment.index}.tsv"] = \
            "".join(_tsv_pieces(sa.measures))
    return outputs


def write_outputs(outputs, output_dir):
    """``write_staged`` of every artifact into ``output_dir``, by name."""
    outdir = Path(output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {outdir}: {exc}") from exc
    records.write_staged({outdir / name: outputs[name]
                          for name in sorted(outputs)})


def _remove_stale_tables(output_dir, written):
    """Delete each ``node_metrics_seg<k>.tsv`` in ``output_dir`` not named
    in ``written``: tables an earlier run left for segments this run does
    not have. k is a positive integer as ``str(k)`` writes it, so names
    with leading zeros or non-ASCII digits stay. Any OSError ends in a
    ConfigError."""
    try:
        for path in Path(output_dir).glob("node_metrics_seg*.tsv"):
            k = path.stem[len("node_metrics_seg"):]
            if (path.name not in written and k.isascii() and k.isdigit()
                    and k[0] != "0"):
                path.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot remove stale tables from {output_dir}: "
                          f"{exc}") from exc
