"""The ``serve_mixed`` workload: one closed-loop client, one server.

``repro serve --workers 1`` runs as its own process on a fresh data
directory, so it does not share the client's interpreter lock.  Set-up
warms the artifact store with ``WARM`` traces.  Then one client runs a
closed loop of upload, submit, wait and result through
:class:`repro.serve.ServeClient`, alternating two kinds of job:

* a miss submits a trace the server has never seen;
* a hit repeats a warm trace (a store hit),

so half of all submissions repeat.  Jobs run one at a time: when a hit
is rendered on the HTTP loop while the worker analyses a miss in the
same interpreter, how much the two overlap follows the host's load, and
the run's miss median moved by up to a third between runs of the same
code.  A job's latency runs from the start of its upload to the last
byte of its result.

Every served document must equal, byte for byte, what ``repro analyze
--json`` prints for the same trace; those references are computed after
the server has stopped, outside the measured window."""

from __future__ import annotations

import hashlib
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve import ClientError, ServeClient

from perfbench.expected import DEFAULT_SEED, load_expected
from perfbench.inputs import MAX_TRACES, PROFILES, generate_traces, trace_path
from perfbench.ops import drift_ratio, no_span, peak_rss_mb, reset_peak_rss
from perfbench.tracer import Tracer, load_spans, median_or_zero, self_by_op
from perfbench.worker import run_tasks

WARM = 4
#: ``ServeClient.wait`` poll interval: about 4% of a ~1.2 s miss (the
#: client's default of 0.2 s would quantise it by about 17%).
POLL_S = 0.05
#: The server's peak RSS is read after this many measured jobs.  It grows
#: by about 8 MB per miss, so a peak over the whole window would rise
#: with throughput and count against a faster server.
RSS_JOBS = 12
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
STEPS = ("upload", "submit", "wait", "result")


class CountingClient(ServeClient):
    """A :class:`ServeClient` that counts its job-status polls."""

    polls = 0

    def job(self, job_id: str) -> dict:
        self.polls += 1
        return super().job(job_id)


class Server:
    """``repro serve`` in a child process, stopped with SIGTERM."""

    def __init__(self, root: Path, work: Path, spans: Optional[Path]):
        args = ["serve", "--data-dir", str(work / "data"), "--port", "0",
                "--workers", "1"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_launcher",
                   str(spans), *args]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        self.log = open(work / "server.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, stderr=self.log)
        try:
            self.url = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def _await_ready(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("repro serve did not start in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError("repro serve exited before it was ready")
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


@dataclass
class Job:
    seq: int
    index: int
    hit: bool
    latency: float = 0.0
    cached: Optional[bool] = None
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def op(self) -> str:
        return f"job-{self.seq}"


def _run_job(client: ServeClient, job: Job, data: bytes, span) -> None:
    start = time.perf_counter()
    try:
        with span("serve.client.job", op=job.op):
            with span("serve.client.upload"):
                ref = client.upload(data)["trace"]
            with span("serve.client.submit"):
                record = client.submit(ref)
            with span("serve.client.wait"):
                if record["status"] not in ("done", "failed", "expired"):
                    record = client.wait(record["job"], poll=POLL_S)
            with span("serve.client.result"):
                text = (client.result(record["job"])
                        if record["status"] == "done" else None)
    except ClientError as exc:
        job.problems.append(f"client error: {exc}")
        return
    job.latency = time.perf_counter() - start
    job.cached = bool(record.get("cached"))
    if text is None:
        job.problems.append(f"job {record['status']}: {record.get('error')}")
        return
    job.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if job.cached != job.hit:
        job.problems.append(f"cached={job.cached} for a designed "
                            f"{'hit' if job.hit else 'miss'}")


def run(*, root: Path, seed: int, seconds: float, trace: bool, profile: str,
        work: Path, tracer: Tracer) -> dict:
    prof = PROFILES[profile]["serve_mixed"]
    fresh = min(MAX_TRACES - WARM,
                math.ceil(1.25 * seconds * prof["jobs_per_s"] / 2) + 3)
    events: Dict[int, int] = {}
    blobs: Dict[int, bytes] = {}

    def generate(indices: range) -> List[float]:
        generated = generate_traces(prof["trace"], seed, indices, work)
        for i, (_, n) in zip(indices, generated):
            events[i] = n
            blobs[i] = trace_path(work, i).read_bytes()
        return [sec for sec, _ in generated]

    gen_s = statistics.median(generate(range(WARM + fresh)))
    span = tracer.span if trace else no_span
    spans_path = work / "server-spans.jsonl" if trace else None

    server = Server(root, work, spans_path)
    try:
        warm = ServeClient(server.url, timeout=60.0)
        warm_s = []
        for i in range(WARM):
            began = time.perf_counter()
            warm.analyze(blobs[i])
            warm_s.append(time.perf_counter() - began)
        reset_peak_rss(server.proc.pid)

        client = CountingClient(server.url, timeout=60.0)
        rng = random.Random(seed)
        index = WARM
        jobs: List[Job] = []
        paused = 0.0
        start = time.perf_counter()
        while time.perf_counter() - start - paused < seconds:
            if index not in blobs:
                if index >= MAX_TRACES:
                    break
                # Faster than ``jobs_per_s`` assumed: more traces, with the
                # clock stopped while the server sits idle.
                began = time.perf_counter()
                generate(range(index, min(MAX_TRACES,
                                          index + fresh // 2 + 1)))
                paused += time.perf_counter() - began
            for job in (Job(len(jobs), index, hit=False),
                        Job(len(jobs) + 1, rng.randrange(WARM), hit=True)):
                _run_job(client, job, blobs[job.index], span)
                jobs.append(job)
            index += 1
            if len(jobs) == RSS_JOBS:
                peak = peak_rss_mb(server.proc.pid)
        end = time.perf_counter()
        window = end - start - paused
        if len(jobs) < RSS_JOBS:
            peak = peak_rss_mb(server.proc.pid)
        stats = warm.stats()
    finally:
        server.stop()

    _verify(jobs, seed, profile, work)
    # A job that completed has a latency even if its bytes failed a check.
    misses = [j.latency for j in jobs if not j.hit and j.latency]
    hits = [j.latency for j in jobs if j.hit and j.latency]
    e2e = {
        "setup_s": gen_s + server.start_s + statistics.median(warm_s),
        "op_s_p50": statistics.median(misses),
        "events_per_s": sum(events[j.index] for j in jobs if j.latency)
                        / window,
        "peak_rss_mb": peak,
        "verified_ratio": sum(1 for j in jobs if not j.problems) / len(jobs),
    }
    layers, server_spans = {}, []
    if trace:
        server_spans = load_spans(spans_path)
        # Both processes read the same monotonic clock; count the server
        # spans that ended inside the measured window (not the warm-up).
        layers = _layers(jobs, hits, misses, window, client, stats, tracer,
                         [s for s in server_spans
                          if start <= s.end <= end])
    return {"records": jobs, "e2e": e2e, "layers": layers,
            "server_spans": server_spans}


def _verify(jobs: List[Job], seed: int, profile: str, work: Path) -> None:
    """Served bytes must equal ``repro analyze --json`` of the trace."""
    used = sorted({j.index for j in jobs})
    reference = dict(zip(used, run_tasks("cli_digest", [
        ["serve_mixed", str(trace_path(work, i))] for i in used])))
    recorded = (load_expected(profile, "serve_mixed")
                if seed == DEFAULT_SEED else {})
    for job in jobs:
        if job.digest and job.digest != reference[job.index]:
            job.problems.append("served bytes differ from analyze --json")
        if job.index in recorded and reference[job.index] != recorded[job.index]:
            job.problems.append("analyze --json differs from the recorded "
                                "sha256")


def _quantile(values: List[float], q: int) -> float:
    """The q-th decile (9 = p90); the value itself for a single sample."""
    if len(values) < 2:
        return median_or_zero(values)
    return statistics.quantiles(values, n=10)[q - 1]


def _layers(jobs, hits, misses, window, client, stats, tracer,
            server_spans) -> dict:
    done = len(jobs)
    by_op = self_by_op(tracer.spans)
    roots = {s.op: s for s in tracer.spans if s.name == "serve.client.job"}
    out: Dict[str, float] = {
        "serve.hit_s_p50": median_or_zero(hits),
        "serve.hit_s_p90": _quantile(hits, 9),
        "serve.miss_s_p90": _quantile(misses, 9),
        "serve.jobs_per_s": done / window,
        "serve.client.polls_per_job": client.polls / done,
        "serve.client.retries": len(client.sleeps),
        "serve.hit_ratio": sum(1 for j in jobs if j.cached) / done,
        "serve.rejected": (stats["rejected"]["queue_full"]
                           + stats["rejected"]["breaker"]),
        "serve.store_write_failures": stats["store"]["write_failures"],
        "serve.ledger_failures": stats["ledger"]["failures"],
    }
    for kind, hit in (("hit", True), ("miss", False)):
        ops = [j.op for j in jobs if j.hit == hit and j.op in roots]
        for step in STEPS:
            out[f"serve.client.{kind}.{step}_s"] = median_or_zero(
                [by_op[op].get(f"serve.client.{step}", 0.0) for op in ops])
    ops = [j.op for j in jobs if j.op in roots]
    out["op.unattributed_s"] = median_or_zero(
        [by_op[op]["serve.client.job"] for op in ops])
    out["op.unattributed_share"] = median_or_zero(
        [by_op[op]["serve.client.job"] / roots[op].seconds for op in ops])
    out["op.drift_ratio"] = drift_ratio(misses)

    # Server side: seconds of self time per completed job, per layer.
    totals: Dict[str, float] = {}
    for layers in self_by_op(server_spans).values():
        for name, seconds in layers.items():
            totals[name] = totals.get(name, 0.0) + seconds
    for name in ("serve.job.upload", "serve.job.submit",
                 "batch.trace_digest", "store.get", "store.put",
                 "serve.worker.analyze_one", "serve.render_document",
                 "serve.queue_wait"):
        out[f"{name}_s"] = totals.get(name, 0.0) / done
    out["serve.http_self_s"] = totals.get("serve.http", 0.0) / done
    return out
