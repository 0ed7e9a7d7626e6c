"""The metrics every workload prints, in ``BENCHMARK.json`` order.

Every workload prints every end-to-end metric (untraced run) or every
per-layer metric (traced run).  A per-layer metric of a layer that a
workload's own files never call reads 0 there: that is the prediction
"this workload bypasses the layer".
"""

from __future__ import annotations

STAGES = ("repair", "initial", "dependency_merge", "repair_merge",
          "infer_sources", "leap_merge", "order_overlapping", "chare_paths",
          "build_phases", "local_steps", "global_steps", "finalize")

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("verified_ratio", "ratio", "higher", 0.01),
)

#: (name, unit, better)
PER_LAYER = (
    ("trace.open_trace_s", "s", "lower"),
    ("trace.mb_per_s", "MB/s", "higher"),
    ("core.extract_s", "s", "lower"),
    ("core.unstaged_s", "s", "lower"),
    *((f"core.stage.{stage}_s", "s", "lower") for stage in STAGES),
    ("core.phases", "count", "lower"),
    ("core.initial_partitions", "count", "lower"),
    ("patterns.repeating_unit_s", "s", "lower"),
    ("metrics.critical_path_s", "s", "lower"),
    ("metrics.differential_duration_s", "s", "lower"),
    ("metrics.idle_experienced_s", "s", "lower"),
    ("metrics.imbalance_s", "s", "lower"),
    ("metrics.sub_block_durations_s", "s", "lower"),
    ("report.performance_report_self_s", "s", "lower"),
    ("report.analysis_document_s", "s", "lower"),
    ("render.render_document_s", "s", "lower"),
    ("render.write_s", "s", "lower"),
    ("render.doc_mb", "MB", "lower"),
    ("op.unattributed_s", "s", "lower"),
    ("op.unattributed_share", "ratio", "lower"),
    ("op.trace_overhead_s", "s", "lower"),
    ("op.drift_ratio", "ratio", "lower"),
    ("serve.hit_s_p50", "s", "lower"),
    ("serve.hit_s_p90", "s", "lower"),
    ("serve.miss_s_p90", "s", "lower"),
    ("serve.jobs_per_s", "1/s", "higher"),
    *((f"serve.client.{kind}.{step}_s", "s", "lower")
      for kind in ("hit", "miss")
      for step in ("upload", "submit", "wait", "result")),
    ("serve.client.polls_per_job", "count", "lower"),
    ("serve.client.retries", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.job.upload_s", "s", "lower"),
    ("serve.job.submit_s", "s", "lower"),
    ("batch.trace_digest_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("serve.worker.analyze_one_s", "s", "lower"),
    ("serve.render_document_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.http_self_s", "s", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.store_write_failures", "count", "lower"),
    ("serve.ledger_failures", "count", "lower"),
)

#: ``op.unattributed_share`` above this means a layer is missing a span.
UNATTRIBUTED_TOLERANCE = 0.02


def metrics_block(values: dict, trace: bool) -> dict:
    """The printed ``metrics`` object: every metric of the run's kind.

    A layer the workload never called reads 0; an end-to-end metric
    must always have been measured.
    """
    if trace:
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit, _ in PER_LAYER}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _, _ in END_TO_END}
