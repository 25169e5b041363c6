"""Command-line interface.

Each pipeline stage is independently invocable for debugging; ``run``
executes the whole flow. Exit codes: 0 success, 2 configuration error,
3 data error, 4 numeric non-convergence. The output directory can be
overridden with the SURGNET_OUTPUT_DIR environment variable (an explicit
--output-dir flag still wins).
"""

import argparse
import io
import os
import sys
from dataclasses import fields

from . import __version__, pipeline, records, synth
from .complications import count_complications
from .errors import ConfigError, ConvergenceError, DataError
from .network import write_edge_list

ENV_OUTPUT_DIR = "SURGNET_OUTPUT_DIR"


# Every flag that sets a PipelineConfig field has that field as its dest
# and defaults to None: an absent flag leaves the value to the environment,
# the config file or the PipelineConfig default.


def _add_format_args(p):
    p.add_argument("--delimiter", help="field delimiter")
    p.add_argument("--provider-form", choices=("wide", "long"),
                   help="providers semicolon-joined per case (wide) or one "
                        "provider per row (long)")


def _add_ingest_args(p):
    p.add_argument("input_path", metavar="input",
                   help="case file (delimited text with header)")
    _add_format_args(p)


def _add_window_args(p):
    p.add_argument("--window-days", type=int,
                   help="segment window length in days")


def _add_metric_args(p):
    p.add_argument("--eig-tol", type=float,
                   help="eigenvector power-iteration tolerance")
    p.add_argument("--eig-max-iter", type=int,
                   help="eigenvector power-iteration cap")


def _add_codeset_args(p):
    p.add_argument("--codeset",
                   help="complication codeset file, or 'embedded'")
    p.add_argument("--distinct", dest="distinct_complications",
                   action="store_true", default=None,
                   help="count each matching code once per case")


def _config(args) -> pipeline.PipelineConfig:
    """flag > SURGNET_OUTPUT_DIR > config file > PipelineConfig default."""
    given = vars(args)
    overrides = {f.name: given.get(f.name)
                 for f in fields(pipeline.PipelineConfig)}
    overrides["output_dir"] = (overrides["output_dir"]
                               or os.environ.get(ENV_OUTPUT_DIR) or None)
    if given.get("config"):
        cfg = pipeline.PipelineConfig.from_file(given["config"], **overrides)
    else:
        cfg = pipeline.PipelineConfig(
            **{k: v for k, v in overrides.items() if v is not None})
    if not cfg.input_path:
        raise ConfigError("run needs --input (or --config with input_path)")
    return cfg.validate()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="surgnet",
        description="Co-worker network analytics for surgical case records")
    top.add_argument("--version", action="version",
                     version=f"surgnet {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check",
                       help="parse a case file and report diagnostics "
                            "and exclusion counts")
    _add_ingest_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("segment", help="show the time-segment breakdown")
    _add_ingest_args(p)
    _add_window_args(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("metrics",
                       help="compute per-segment node metrics tables")
    _add_ingest_args(p)
    _add_window_args(p)
    _add_metric_args(p)
    p.add_argument("--segment", type=int, default=None,
                   help="restrict output to one segment index")
    p.add_argument("--output-dir",
                   help="where to write node_metrics_seg<k>.tsv")
    p.add_argument("--save-edges", action="store_true",
                   help="also write edges_seg<k>.tsv edge lists")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("outcomes",
                       help="print per-case complication counts")
    _add_ingest_args(p)
    _add_codeset_args(p)
    p.set_defaults(func=cmd_outcomes)

    p = sub.add_parser("correlate",
                       help="Spearman matrix of the team-average measures")
    _add_ingest_args(p)
    _add_window_args(p)
    _add_metric_args(p)
    _add_codeset_args(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("regress",
                       help="screening, Poisson, and negative binomial fits")
    _add_ingest_args(p)
    _add_window_args(p)
    _add_metric_args(p)
    _add_codeset_args(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("run", help="full pipeline, all artifacts to disk")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="case file (overrides config)")
    p.add_argument("--output-dir")
    _add_format_args(p)
    _add_window_args(p)
    _add_metric_args(p)
    _add_codeset_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic case file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--providers", type=int, default=50)
    p.add_argument("--segments", type=int, default=4)
    _add_window_args(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="NB2 heterogeneity of the generating model")
    p.add_argument("--coef", action="append", default=[], metavar="NAME=VALUE",
                   help="override a generating coefficient (repeatable)")
    p.add_argument("--out", default="synthetic_cases.csv")
    p.add_argument("--truth-out", default=None,
                   help="sidecar truth file (default: <out>.truth.json)")
    p.set_defaults(func=cmd_synth,
                   window_days=pipeline.PipelineConfig.window_days)

    p = sub.add_parser("dump-codeset",
                       help="print the complication codeset (prefix<TAB>definition)")
    p.add_argument("--codeset", default=pipeline.PipelineConfig.codeset)
    p.set_defaults(func=cmd_dump_codeset)

    return top


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest_check(args):
    cfg = _config(args)
    cases, diagnostics = records.parse_cases(
        cfg.input_path, delimiter=cfg.delimiter,
        provider_form=cfg.provider_form)
    retained, report = records.apply_exclusions(cases)
    print(f"cases parsed\t{len(cases)}")
    print(f"parse diagnostics\t{len(diagnostics)}")
    for d in diagnostics[:10]:
        print(f"  row {d.row}: {d.message}")
    if len(diagnostics) > 10:
        print(f"  ... {len(diagnostics) - 10} more")
    for rule, count in report.items():
        print(f"excluded ({rule})\t{count}")
    print(f"retained\t{len(retained)}")
    return 0


def cmd_segment(args):
    cfg = _config(args)
    _, _, retained = pipeline.load_cases(cfg)
    segments = records.segment_cases(retained, window_days=cfg.window_days)
    print("segment\tstart_day\tend_day_exclusive\tdays\tcases")
    for seg in segments:
        print(f"{seg.index}\t{seg.start_day}\t{seg.end_day_exclusive}"
              f"\t{seg.span_days}\t{len(seg.cases)}")
    return 0


def cmd_metrics(args):
    cfg = _config(args)
    _, _, retained = pipeline.load_cases(cfg)
    analyses = pipeline.analyze_segments(cfg, retained)
    if args.segment is not None:
        analyses = [sa for sa in analyses if sa.segment.index == args.segment]
        if not analyses:
            raise ConfigError(f"no segment with index {args.segment}")
    outdir = cfg.output_dir
    outputs = {}
    for sa in analyses:
        outputs[f"node_metrics_seg{sa.segment.index}.tsv"] = \
            pipeline.render_node_metrics(sa)
        if args.save_edges:
            edges = io.StringIO()
            write_edge_list(sa.graph, edges)
            outputs[f"edges_seg{sa.segment.index}.tsv"] = edges.getvalue()
    pipeline.write_outputs(outputs, outdir)
    for sa in analyses:
        s = sa.summary
        print(f"segment {sa.segment.index}: nodes {s.node_count}, "
              f"edges {s.edge_count}, cases {s.case_count}, "
              f"density {s.density:.6g}")
    print(f"wrote {len(analyses)} node-metrics table(s) to {outdir}")
    return 0


def cmd_outcomes(args):
    cfg = _config(args)
    codeset = pipeline.load_codeset(cfg.codeset)
    _, _, retained = pipeline.load_cases(cfg)
    counts = count_complications(retained, codeset,
                                 distinct=cfg.distinct_complications).tolist()
    print("case_id\tC")
    for case_id, count in sorted(zip(retained.case_id, counts)):
        print(f"{case_id}\t{count}")
    return 0


def _joined_table(args):
    cfg = _config(args)
    codeset = pipeline.load_codeset(cfg.codeset)
    _, _, retained = pipeline.load_cases(cfg)
    analyses = pipeline.analyze_segments(cfg, retained)
    return cfg, pipeline.assemble_rows(cfg, analyses, codeset)


def cmd_correlate(args):
    _, table = _joined_table(args)
    sp = pipeline.correlate_rows(table)
    sys.stdout.write(pipeline.render_correlation(sp))
    return 0


def cmd_regress(args):
    cfg, table = _joined_table(args)
    est = pipeline.estimate(cfg, table)
    sys.stdout.write(pipeline.render_regression(est))
    return 0


def cmd_run(args):
    result = pipeline.run_pipeline(_config(args))
    nb = result.estimation.negbin
    print(f"cases used\t{len(result.table['case_id'])}")
    print(f"segments\t{len(result.analyses)}")
    print(f"negbin alpha\t{nb.alpha:.6g}"
          + (" (boundary)" if nb.alpha_boundary else ""))
    print(f"outputs\t{result.output_dir} ({len(result.written)} files)")
    return 0


def _parse_coef_overrides(pairs):
    coef = dict(synth.DEFAULT_COEFFICIENTS)
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--coef expects NAME=VALUE, got {pair!r}")
        try:
            coef[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--coef value is not a number: {pair!r}")
    return coef


def cmd_synth(args):
    model = synth.ComplicationModel(
        coefficients=_parse_coef_overrides(args.coef),
        alpha=args.alpha if args.alpha is not None else 0.8)
    out, truth = synth.synth_generate(
        seed=args.seed, n_cases=args.cases, n_providers=args.providers,
        window_days=args.window_days, n_segments=args.segments,
        model=model, out_path=args.out, truth_path=args.truth_out)
    print(f"wrote {out}")
    print(f"wrote {truth}")
    return 0


def cmd_dump_codeset(args):
    pipeline.load_codeset(args.codeset).dump(sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand's BLAS on one thread, as in run_pipeline
        with pipeline._one_blas_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        if exc.trace:
            print(f"trace: {exc.trace}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
