"""Command-line interface.

``run`` executes the whole analysis and writes every artifact;
``ingest-check`` parses a case file and reports what the parse and the
exclusions did; ``synth`` and ``dump-codeset`` make and show inputs.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
non-convergence. The output directory can be
overridden with the SURGNET_OUTPUT_DIR environment variable (an explicit
--output-dir flag still wins). The solvers' stopping rules are constants,
not options: ``centrality.EIG_TOL``/``EIG_MAX_ITER`` for the eigenvector,
``regression.MAX_ITER``/``LL_RTOL``/``GRAD_TOL`` for Poisson and NB2.
"""

import argparse
import os
import sys
from dataclasses import fields

from . import __version__, records, synth
from .complications import ComplicationCodeset
from .errors import ConfigError, ConvergenceError, DataError

ENV_OUTPUT_DIR = "SURGNET_OUTPUT_DIR"


# Every flag that sets a PipelineConfig field has that field as its dest
# and defaults to None: an absent flag leaves the value to the environment,
# the config file or the PipelineConfig default.
#
# The pipeline is imported by run and ingest-check, which resolve a
# PipelineConfig; synth and dump-codeset run no stage and import no scipy
# package. Importing this module still loads csr, because records builds
# its case tables as csr.Csr matrices, and csr loads scipy's compiled
# sparse kernel (the _sparsetools extension) from its file at import.


def _add_format_args(p):
    p.add_argument("--delimiter", help="field delimiter")
    p.add_argument("--provider-form", choices=("wide", "long"),
                   help="providers semicolon-joined per case (wide) or one "
                        "provider per row (long)")


def _add_window_args(p):
    p.add_argument("--window-days", type=int,
                   help="segment window length in days")


def _config(args):
    """flag > SURGNET_OUTPUT_DIR > config file > PipelineConfig default."""
    from . import pipeline
    given = vars(args)
    overrides = {f.name: given.get(f.name)
                 for f in fields(pipeline.PipelineConfig)}
    if overrides["output_dir"] is None:  # an empty variable is unset too
        overrides["output_dir"] = os.environ.get(ENV_OUTPUT_DIR) or None
    if given.get("config"):
        cfg = pipeline.PipelineConfig.from_file(given["config"], **overrides)
    else:
        cfg = pipeline.PipelineConfig(
            **{k: v for k, v in overrides.items() if v is not None})
    if not cfg.input_path:
        need = ("--input (or --config with input_path)" if "config" in given
                else "an input file")
        raise ConfigError(f"{args.command} needs {need}")
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
    p.add_argument("input_path", metavar="input",
                   help="case file (delimited text with header)")
    _add_format_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("run", help="full pipeline, all artifacts to disk")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="case file (overrides config)")
    p.add_argument("--output-dir")
    _add_format_args(p)
    _add_window_args(p)
    p.add_argument("--codeset",
                   help="complication codeset file, or 'embedded'")
    p.add_argument("--distinct", dest="distinct_complications",
                   action="store_true", default=None,
                   help="count each matching code once per case")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic case file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--providers", type=int, default=50)
    p.add_argument("--segments", type=int, default=4)
    _add_window_args(p)
    p.add_argument("--alpha", type=float,
                   default=synth.ComplicationModel.alpha,
                   help="NB2 heterogeneity of the generating model")
    p.add_argument("--coef", action="append", default=[], metavar="NAME=VALUE",
                   help="override a generating coefficient (repeatable)")
    p.add_argument("--out", default="synthetic_cases.csv")
    p.add_argument("--truth-out", default=None,
                   help="sidecar truth file (default: <out>.truth.json)")
    p.set_defaults(func=cmd_synth,
                   window_days=records.WINDOW_DAYS)

    p = sub.add_parser("dump-codeset",
                       help="print the complication codeset (prefix<TAB>definition)")
    p.add_argument("--codeset", default="embedded")
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
    for d in diagnostics:
        print(f"  row {d.row}: {d.message}")
    for rule, count in report.items():
        print(f"excluded ({rule})\t{count}")
    print(f"retained\t{len(retained)}")
    return 0


def cmd_run(args):
    from . import pipeline
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
        alpha=args.alpha)
    out, truth = synth.synth_generate(
        seed=args.seed, n_cases=args.cases, n_providers=args.providers,
        window_days=args.window_days, n_segments=args.segments,
        model=model, out_path=args.out, truth_path=args.truth_out)
    print(f"wrote {out}")
    print(f"wrote {truth}")
    return 0


def cmd_dump_codeset(args):
    ComplicationCodeset.load(args.codeset).dump(sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
