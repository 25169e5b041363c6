"""
The full pipeline on a synthetic roster
=======================================

Generates a seeded synthetic case file with known coefficients, runs the
whole analysis (parse, segment, network, metrics, outcomes, correlation,
regression), and reads the headline results back from the artifacts.
"""

import json
import tempfile
from pathlib import Path

from surgnet.pipeline import PipelineConfig, run_pipeline
from surgnet.synth import synth_generate

# Everything the demo writes lives in a temporary directory that is
# removed when the block ends.
with tempfile.TemporaryDirectory(prefix="surgnet_demo_") as tmp:
    workdir = Path(tmp)

    # The generator plants teamSize = 0.15 on the log-mean scale (see
    # surgnet.synth.DEFAULT_COEFFICIENTS for the rest) and writes the truth
    # next to the case file.
    case_file, truth_file = synth_generate(
        seed=42, n_cases=4000, n_providers=300, window_days=365, n_segments=4,
        out_path=str(workdir / "cases.csv"))
    truth = json.loads(Path(truth_file).read_text())
    print(f"wrote {case_file}")
    print(f"planted coefficients: {truth['model']['coefficients']}")

    # One config object drives the run; everything it contains is hashed
    # into the manifest so reruns are attributable.
    config = PipelineConfig(input_path=case_file,
                            output_dir=str(workdir / "out")).validate()
    result = run_pipeline(config)

    print(f"\nretained {len(result.rows)} cases "
          f"across {len(result.analyses)} segments")
    for sa in result.analyses:
        s = sa.summary
        print(f"  segment {sa.segment.index}: {s['nodes']} providers, "
              f"{s['edges']} edges, density {s['density']:.4f}")

    # The estimation compares Poisson and NB2 side by side; the negative
    # binomial coefficient on teamSize should sit near the planted 0.15.
    nb = result.estimation.negbin
    print("\nnegative binomial estimates")
    for name, b, se in zip(nb.columns, nb.coef, nb.std_err):
        marker = "  <- planted 0.15" if name == "teamSize" else ""
        print(f"  {name:<10} {b:8.4f}  (se {se:.4f}){marker}")
    print(f"  alpha      {nb.alpha:8.4f}  "
          f"(planted {truth['model']['alpha']})")

    lr = result.estimation.lr_alpha
    print(f"LR test of alpha=0: chibar2(01) = {lr.statistic:.1f}, "
          f"p = {lr.p_value:.3g}")

    # All artifacts land in the output directory; the manifest records the
    # config hash, stage tallies, and measurement conventions.
    print(f"\nartifacts in {result.output_dir}:")
    for name in sorted(result.outputs):
        print(f"  {name}")
    manifest = json.loads(
        (Path(result.output_dir) / "manifest.json").read_text())
    print(f"config hash {manifest['config_hash'][:16]}..., "
          f"surgnet {manifest['surgnet_version']}")
