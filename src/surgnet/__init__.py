"""surgnet: co-worker network analytics for surgical case records.

Reconstructs provider collaboration networks from case files, computes
node- and team-level structure measures, counts postoperative
complications from ICD9-CM diagnosis codes, and estimates their
interrelations with Spearman correlation and count regression (Poisson
and NB2 negative binomial).
"""

__version__ = "0.1.0"

from .centrality import (
    TeamMetrics,
    betweenness_centrality,
    closeness_centrality,
    clustering_coefficient,
    compute_all,
    connected_components,
    degree_centrality,
    eigenvector_centrality,
    team_aggregate,
)
from .complications import (
    ComplicationCodeset,
    count_complications,
    match_complication,
    normalize_icd9,
)
from .correlation import SpearmanResult, spearman_matrix
from .errors import ConfigError, ConvergenceError, DataError, SurgnetError
from .network import (
    BipartiteGraph,
    CoworkerGraph,
    GraphSummary,
    build_bipartite,
    project_one_mode,
    summarize,
    write_edge_list,
)
from .pipeline import PipelineConfig, RunResult, run_pipeline
from .records import (
    CaseRecord,
    Segment,
    apply_exclusions,
    parse_cases,
    segment_cases,
)
from .regression import (
    DesignMatrix,
    FitResult,
    GofResult,
    LrAlphaResult,
    OlsResult,
    lr_test_alpha,
    negbin_fit,
    ols_fit,
    poisson_fit,
    poisson_gof,
    vif,
)
from .synth import ComplicationModel, generate_cases, synth_generate

__all__ = [
    "__version__",
    "BipartiteGraph",
    "CaseRecord",
    "ComplicationCodeset",
    "ComplicationModel",
    "ConfigError",
    "ConvergenceError",
    "CoworkerGraph",
    "DataError",
    "DesignMatrix",
    "FitResult",
    "GofResult",
    "GraphSummary",
    "LrAlphaResult",
    "OlsResult",
    "PipelineConfig",
    "RunResult",
    "Segment",
    "SpearmanResult",
    "SurgnetError",
    "TeamMetrics",
    "apply_exclusions",
    "betweenness_centrality",
    "build_bipartite",
    "closeness_centrality",
    "clustering_coefficient",
    "compute_all",
    "connected_components",
    "count_complications",
    "degree_centrality",
    "eigenvector_centrality",
    "generate_cases",
    "lr_test_alpha",
    "match_complication",
    "negbin_fit",
    "normalize_icd9",
    "ols_fit",
    "parse_cases",
    "poisson_fit",
    "poisson_gof",
    "project_one_mode",
    "run_pipeline",
    "segment_cases",
    "spearman_matrix",
    "summarize",
    "synth_generate",
    "team_aggregate",
    "vif",
    "write_edge_list",
]
