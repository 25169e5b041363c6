"""Traced replay of one ``surgnet run``, timed from outside the program.

``replay`` wraps the public functions of each surgnet module, calls
``pipeline.run_pipeline(write=False)`` and ``pipeline.write_outputs`` in
this process with the config the CLI builds, and records one span per
call: name, start, end and the enclosing span. Spans stay in memory
until the replay ends and are then written to one JSON file.

Per-layer times are inclusive sums over each function's calls;
``pipeline.render_s`` is the self time of ``run_pipeline`` (what it does
besides its stage calls) and a module's self time is its spans' time
minus the time of the spans nested in them.
"""

import json
import time
from collections import defaultdict

from surgnet import (centrality, correlation, network, pipeline, records,
                     regression)

# (owner, attribute, metric name); the owner is the namespace the caller
# looks the function up in. pipeline imported count_complications by name.
TRACED = (
    (pipeline, "run_pipeline", "pipeline.run"),
    (pipeline, "load_cases", "pipeline.load_cases"),
    (pipeline, "analyze_segments", "pipeline.analyze_segments"),
    (pipeline, "assemble_rows", "pipeline.assemble_rows"),
    (pipeline, "correlate_rows", "pipeline.correlate_rows"),
    (pipeline, "estimate", "pipeline.estimate"),
    (pipeline, "write_outputs", "pipeline.emit"),
    (records, "parse_cases", "records.parse"),
    (records, "apply_exclusions", "records.exclude"),
    (records, "segment_cases", "records.segment"),
    (network, "build_bipartite", "network.bipartite"),
    (network, "project_one_mode", "network.project"),
    (network, "summarize", "network.summarize"),
    (centrality, "compute_all", "centrality.compute_all"),
    (centrality, "degree_centrality", "centrality.degree"),
    (centrality, "betweenness_centrality", "centrality.betweenness"),
    (centrality, "closeness_centrality", "centrality.closeness"),
    (centrality, "eigenvector_centrality", "centrality.eigenvector"),
    (centrality, "clustering_coefficient", "centrality.clustering"),
    (centrality, "connected_components", "centrality.components"),
    (centrality, "team_aggregate", "centrality.team_aggregate"),
    (pipeline, "count_complications", "complications.count"),
    (correlation, "spearman_matrix", "correlation.spearman"),
    (regression.DesignMatrix, "build", "regression.design"),
    (regression, "ols_fit", "regression.ols"),
    (regression, "vif", "regression.vif"),
    (regression, "poisson_fit", "regression.poisson"),
    (regression, "poisson_gof", "regression.gof"),
    (regression, "negbin_fit", "regression.negbin"),
    (regression, "lr_test_alpha", "regression.lr"),
)

class Tracer:
    """Spans as (name, start_ns, end_ns, parent index or -1)."""

    def __init__(self):
        self.names = [name for _, _, name in TRACED]
        self.spans = []
        self.results = defaultdict(list)  # name -> results, fits only
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name_id, keep_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kept = self.results[self.names[name_id]] if keep_result else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def __enter__(self):
        for name_id, (owner, attr, name) in enumerate(TRACED):
            raw = owner.__dict__[attr]
            fn = getattr(owner, attr)  # bound, for a classmethod
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(
                fn, name_id, name in ("regression.poisson", "regression.negbin")))
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def inclusive(self):
        """Total seconds per name over all its spans."""
        out = defaultdict(float)
        for name_id, start, end, parent in self.spans:
            out[self.names[name_id]] += (end - start) / 1e9
        return out

    def self_times(self):
        """Seconds per name, each span minus its direct children."""
        out = defaultdict(float)
        for name_id, start, end, parent in self.spans:
            out[self.names[name_id]] += (end - start) / 1e9
            if parent >= 0:
                out[self.names[self.spans[parent][0]]] -= (end - start) / 1e9
        return out

    def write(self, path, origin_ns):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[n, s - origin_ns, e - origin_ns, p]
                                 for n, s, e, p in self.spans]}, fh)


def replay(input_path, output_dir, trace_path):
    """Run the pipeline traced; returns (outputs, per-layer metrics,
    per-module self seconds)."""
    cfg = pipeline.PipelineConfig(input_path=input_path, output_dir=output_dir)
    with Tracer() as tracer:
        origin = time.perf_counter_ns()
        result = pipeline.run_pipeline(cfg.validate(), write=False)
        pipeline.write_outputs(result.outputs, output_dir)
        total = (time.perf_counter_ns() - origin) / 1e9
    tracer.write(trace_path, origin)

    inc = tracer.inclusive()
    own = tracer.self_times()
    metrics = {f"{name}_s": inc[name] for name in tracer.names
               if name != "pipeline.run"}
    metrics["pipeline.render_s"] = own["pipeline.run"]

    seg_cases = [c for sa in result.analyses for c in sa.segment.cases]
    retained = len(seg_cases)
    metrics.update({
        "records.cases_parsed": retained + sum(result.exclusion_report.values()),
        "records.diagnostics": len(result.diagnostics),
        "records.cases_retained": retained,
        "network.clique_pairs": sum(len(c.providers) * (len(c.providers) - 1) // 2
                                    for c in seg_cases),
        "network.nodes": sum(sa.graph.n_nodes for sa in result.analyses),
        "network.edges": sum(sa.graph.n_edges for sa in result.analyses),
        "complications.dx_codes": sum(len(c.dx_codes) for c in seg_cases),
        "complications.matched": sum(r.c for r in result.rows),
        "regression.poisson_iterations": sum(
            f.iterations for f in tracer.results["regression.poisson"]),
        "regression.negbin_iterations": sum(
            f.iterations for f in tracer.results["regression.negbin"]),
        "pipeline.output_bytes": sum(len(t.encode("utf-8"))
                                     for t in result.outputs.values()),
        "pipeline.rows": len(result.rows),
        "trace.total_s": total,
        "trace.spans": len(tracer.spans),
    })

    modules = defaultdict(float)
    for name, seconds in own.items():
        modules[name.split(".")[0]] += seconds
    return metrics, dict(modules)
