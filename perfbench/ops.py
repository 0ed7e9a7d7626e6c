"""The in-process workloads: ``analyze_charm`` and ``report_mpi``.

One caller runs the operations one after another, each on a trace that
no earlier operation used, so no memo cache can serve one operation
from another's work.  Each operation goes from the trace file to the
result bytes on disk, exactly as the CLI does it:

* ``analyze_charm``: ``repro analyze TRACE --json`` (ingest, extract,
  ``analysis_document``, ``render_document``, write);
* ``report_mpi``: ``repro report TRACE --repair fix --on-error
  degrade`` (ingest, extract with repair and degrade snapshots,
  ``performance_report``, write).

Everything an operation allocates is released, and the collector run,
before the next one starts; the outputs are checked after the timed
region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.report as report_module
from repro.core import PipelineOptions, PipelineStats, extract_logical_structure
from repro.report import analysis_document, performance_report
from repro.serve.worker import render_document
from repro.trace import open_trace
from repro.verify import check_structure

from perfbench.expected import DEFAULT_SEED, load_expected
from perfbench.inputs import MAX_TRACES, PROFILES, generate_traces, trace_path
from perfbench.spec import STAGES, UNATTRIBUTED_TOLERANCE
from perfbench.tracer import Tracer, median_or_zero, self_by_op

#: Functions ``performance_report`` calls, at the names it looks them up
#: by in :mod:`repro.report`, and the layer each one is reported as.
REPORT_CALLEES = {
    "repeating_unit": "patterns.repeating_unit",
    "critical_path": "metrics.critical_path",
    "differential_duration": "metrics.differential_duration",
    "idle_experienced": "metrics.idle_experienced",
    "imbalance": "metrics.imbalance",
    "sub_block_durations": "metrics.sub_block_durations",
}


def no_span(name: str, op: Optional[str] = None):
    """Stands in for :meth:`Tracer.span` in the untraced run."""
    return contextlib.nullcontext()


def write_output(path: Path, text: str) -> None:
    """Deliver the result bytes, as the CLI's stdout would carry them."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def analyze_charm_op(path: Path, out: Path, span):
    with span("trace.open_trace"):
        trace = open_trace(str(path)).trace()
    stats = PipelineStats()
    with span("core.extract"):
        structure = extract_logical_structure(trace, options=PipelineOptions(),
                                              stats=stats)
    with span("report.analysis_document"):
        doc = analysis_document(structure, stats)
    with span("render.render_document"):
        text = render_document(doc)
    with span("render.write"):
        write_output(out, text)
    return structure, stats


def report_mpi_op(path: Path, out: Path, span):
    with span("trace.open_trace"):
        trace = open_trace(str(path)).trace()
    stats = PipelineStats()
    with span("core.extract"):
        structure = extract_logical_structure(
            trace, options=PipelineOptions(repair="fix", on_error="degrade"),
            stats=stats)
    with span("report.performance_report"):
        text = performance_report(structure, top=5) + "\n"
    with span("render.write"):
        write_output(out, text)
    return structure, stats


def check_document(structure, data: bytes) -> List[str]:
    """Problems with an ``analyze --json`` document for ``structure``."""
    try:
        doc = json.loads(data)
    except ValueError:
        return ["document is not JSON"]
    problems = []
    summary = json.loads(json.dumps(structure.summary()))
    if doc.get("summary") != summary:
        problems.append("document summary differs from the structure")
    if len(doc.get("phases", ())) != len(structure.phases):
        problems.append("document phase count differs from the structure")
    trace = structure.trace
    rows = doc.get("events", ())
    stepped = sum(1 for step in structure.step_of_event if step >= 0)
    if len(rows) != stepped:
        problems.append("document event count differs from the structure")
    for row in rows:
        ev = row.get("event", -1)
        if not (0 <= ev < len(structure.step_of_event)
                and row.get("step") == structure.step_of_event[ev]
                and row.get("phase") == structure.phase_of_event[ev]
                and row.get("local_step") == structure.local_step_of_event[ev]
                and row.get("time") == trace.events[ev].time
                and row.get("pe") == trace.events[ev].pe):
            problems.append(f"document row for event {ev} differs")
            break
    return problems


def check_report(structure, data: bytes) -> List[str]:
    """Problems with a ``repro report`` text for ``structure``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["report is not UTF-8"]
    s = structure.summary()
    lines = text.splitlines()
    need = [
        f"{s['phases']} phases ({s['runtime_phases']} runtime), "
        f"{s['max_step'] + 1} logical steps, {s['leaps']} leaps",
        "== trace ==", "== logical structure ==", "== critical path ==",
        "== differential duration (slow vs same-step peers) ==",
        "== idle experienced ==", "== imbalance ==",
    ]
    return [f"report lacks line {line!r}" for line in need
            if line not in lines]


WORKLOADS: Dict[str, tuple] = {
    "analyze_charm": (analyze_charm_op, check_document),
    "report_mpi": (report_mpi_op, check_report),
}


def peak_rss_mb(pid="self") -> float:
    """Peak RSS (``VmHWM``) of a process since its last reset, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss(pid="self") -> None:
    """Start a new peak-RSS window (Linux ``clear_refs`` value 5)."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall: float
    events: int
    peak_mb: float
    trace_mb: float
    out_mb: float
    phases: int
    initial_partitions: int
    stage_seconds: Dict[str, float]
    problems: List[str]

    @property
    def op(self) -> str:
        return f"op-{self.index}"


def _traced(tracer: Tracer, op: Callable, path: Path, out: Path, op_id: str):
    for attr, layer in REPORT_CALLEES.items():
        tracer.wrap(report_module, attr, layer)
    try:
        with tracer.span("op", op=op_id):
            structure, stats = op(path, out, tracer.span)
    finally:
        tracer.restore()
    extract = next(s for s in reversed(tracer.spans)
                   if s.op == op_id and s.name == "core.extract")
    # The stages run back to back inside extract; lay their measured
    # seconds out from its start so they nest as its children.
    start = extract.start
    for stage, seconds in stats.stage_seconds.items():
        tracer.record(f"core.stage.{stage}", start, start + seconds,
                      parent=extract.id, op=op_id)
        start += seconds
    return structure, stats


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        profile: str, work: Path, tracer: Tracer) -> dict:
    op, check = WORKLOADS[workload]
    prof = PROFILES[profile][workload]
    count = min(MAX_TRACES, math.ceil(1.25 * seconds / prof["op_s"]) + 2)
    setup = [sec for sec, _ in
             generate_traces(prof["trace"], seed, range(count), work)]
    expected = load_expected(profile, workload) if seed == DEFAULT_SEED else {}

    records: List[OpRecord] = []
    measured = 0.0
    i = 0
    while measured < seconds and i < MAX_TRACES:
        if i == count:
            # Faster than ``op_s`` assumed: more traces, outside the clock.
            more = range(count, min(MAX_TRACES, count + count // 2 + 1))
            setup += [sec for sec, _ in
                      generate_traces(prof["trace"], seed, more, work)]
            count = more.stop
        path, out = trace_path(work, i), work / f"out-{i:03d}"
        traced = trace and i % 2 == 0
        trace_mb = path.stat().st_size / 1e6
        gc.collect()
        reset_peak_rss()
        start = time.perf_counter()
        if traced:
            structure, stats = _traced(tracer, op, path, out, f"op-{i}")
        else:
            structure, stats = op(path, out, no_span)
        wall = time.perf_counter() - start
        peak = peak_rss_mb()
        measured += wall
        print(f"perfbench: op {i} {wall:.3f}s", file=sys.stderr)

        data = out.read_bytes()
        problems = [f"invariant {v.invariant}"
                    for v in check_structure(structure)]
        problems += check(structure, data)
        digest = hashlib.sha256(data).hexdigest()
        if i in expected and digest != expected[i]:
            problems.append(f"sha256 {digest} != recorded {expected[i]}")
        records.append(OpRecord(
            i, traced, wall, len(structure.trace.events), peak, trace_mb,
            len(data) / 1e6, stats.final_phases, stats.initial_partitions,
            dict(stats.stage_seconds), problems))
        del structure, stats, data
        out.unlink()
        path.unlink()
        i += 1

    return {"records": records,
            "e2e": _end_to_end(records, setup),
            "layers": _layers(records, tracer) if trace else {}}


def _end_to_end(records: List[OpRecord], setup: List[float]) -> dict:
    walls = [r.wall for r in records]
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(walls),
        "events_per_s": sum(r.events for r in records) / sum(walls),
        "peak_rss_mb": statistics.median(r.peak_mb for r in records),
        "verified_ratio": (sum(1 for r in records if not r.problems)
                           / len(records)),
    }


def _layers(records: List[OpRecord], tracer: Tracer) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    by_op = self_by_op(tracer.spans)
    roots = {s.op: s for s in tracer.spans if s.name == "op"}
    extracts = {s.op: s for s in tracer.spans if s.name == "core.extract"}
    opens = {s.op: s for s in tracer.spans if s.name == "trace.open_trace"}

    def per_op(fn) -> float:
        return median_or_zero([fn(r.op, r) for r in traced])

    out: Dict[str, float] = {}
    names = {name for layers in by_op.values() for name in layers}
    for name in sorted(names - {"op", "core.extract",
                                "report.performance_report"}):
        out[f"{name}_s"] = per_op(lambda op, r: by_op[op].get(name, 0.0))
    out["report.performance_report_self_s"] = per_op(
        lambda op, r: by_op[op].get("report.performance_report", 0.0))
    out["core.extract_s"] = per_op(lambda op, r: extracts[op].seconds)
    out["core.unstaged_s"] = per_op(lambda op, r: by_op[op]["core.extract"])
    for stage in STAGES:
        out[f"core.stage.{stage}_s"] = per_op(
            lambda op, r: r.stage_seconds.get(stage, 0.0))
    out["core.phases"] = per_op(lambda op, r: r.phases)
    out["core.initial_partitions"] = per_op(lambda op, r: r.initial_partitions)
    out["trace.mb_per_s"] = per_op(lambda op, r: r.trace_mb / opens[op].seconds)
    if "render.render_document" in names:
        out["render.doc_mb"] = per_op(lambda op, r: r.out_mb)
    out["op.unattributed_s"] = per_op(lambda op, r: by_op[op]["op"])
    out["op.unattributed_share"] = per_op(
        lambda op, r: by_op[op]["op"] / roots[op].seconds)
    if out["op.unattributed_share"] > UNATTRIBUTED_TOLERANCE:
        print(f"perfbench: unattributed share "
              f"{out['op.unattributed_share']:.3f} exceeds tolerance "
              f"{UNATTRIBUTED_TOLERANCE}", file=sys.stderr)
    out["op.trace_overhead_s"] = (median_or_zero([r.wall for r in traced])
                                  - median_or_zero([r.wall for r in plain]))
    out["op.drift_ratio"] = drift_ratio([r.wall for r in plain])
    return out


def drift_ratio(walls: List[float]) -> float:
    """Median of the later half of a run's times over the earlier half."""
    if len(walls) < 2:
        return 1.0
    half = len(walls) // 2
    return statistics.median(walls[-half:]) / statistics.median(walls[:half])
