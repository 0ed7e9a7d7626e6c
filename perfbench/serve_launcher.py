"""Start ``repro serve`` with spans around its server-side functions.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``)::

    python3 -m perfbench.serve_launcher SPANS.jsonl serve [serve flags]

The launcher wraps each server-side function at the name its caller
looks it up by, then runs :func:`repro.cli.main` with the remaining
arguments.  When SIGTERM makes the server drain and ``main`` return,
the spans are written to ``SPANS.jsonl``.  The untraced benchmark run
starts ``python3 -m repro.cli serve`` instead and installs nothing.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List

from perfbench.tracer import Tracer


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans
    opened in an executor thread nest under the request that awaited
    them (``run_in_executor`` does not copy the context itself)."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


def install(tracer: Tracer) -> None:
    from repro.serve import app, jobs, store

    services: List[object] = []
    requests = itertools.count(1)

    tracer.wrap(app.ExtractionApp, "handle", "serve.http",
                op_of=lambda self, reader, writer: f"req-{next(requests)}")
    tracer.wrap(jobs.JobService, "upload", "serve.job.upload")
    tracer.wrap(jobs.JobService, "submit", "serve.job.submit")
    tracer.wrap(jobs, "trace_digest", "batch.trace_digest")
    tracer.wrap(store.ArtifactStore, "get", "store.get")
    tracer.wrap(store.ArtifactStore, "put", "store.put")
    tracer.wrap(jobs, "render_document", "serve.render_document")
    tracer.wrap(jobs, "analyze_one", "serve.worker.analyze_one",
                op_of=lambda source, fields: f"job:{Path(source).stem}")

    start_service = jobs.JobService.start

    def start(self):
        services.append(self)
        return start_service(self)

    jobs.JobService.start = start

    analyze_one = jobs.analyze_one

    def analyze_queued(source, option_fields):
        # The job's enqueue instant is on its record, on the service's
        # monotonic clock; turn the wait into a span on the tracer's.
        waited = max((time.monotonic() - job.enqueued_at
                      for service in services for job in service.jobs()
                      if job.source == source and job.status == "running"),
                     default=0.0)
        now = tracer.clock()
        tracer.record("serve.queue_wait", now - waited, now,
                      op=f"job:{Path(source).stem}")
        return analyze_one(source, option_fields)

    jobs.analyze_one = analyze_queued

    serve_async = app._serve_async

    async def serve_with_context(*args, **kwargs):
        asyncio.get_running_loop().set_default_executor(_ContextExecutor())
        return await serve_async(*args, **kwargs)

    app._serve_async = serve_with_context


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
