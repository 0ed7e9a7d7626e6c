"""In-memory spans for the benchmark's traced run.

Nothing in ``src/`` is instrumented.  Spans come from two places:

* :meth:`Tracer.span` blocks around the calls the benchmark's own files
  make into the program (``open_trace``, ``extract_logical_structure``,
  ``analysis_document`` ...);
* :meth:`Tracer.wrap`, which swaps a module or class attribute for a
  timing wrapper at the name the program's callers look up (for
  example ``repro.report.repeating_unit``, which ``performance_report``
  calls), and :meth:`Tracer.restore`, which puts the original back.

Every span records its name, start, end, parent span and operation id.
The parent is the innermost open span of the same context
(:mod:`contextvars`), so spans nest correctly across asyncio tasks and,
with a context-copying executor, across ``run_in_executor`` threads.
Spans stay in memory; :meth:`Tracer.dump` writes them out once, at the
end of a run.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one per run (or per traced server process)."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, ""))
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """Time the block as a child of the innermost open span.

        ``op`` starts a new operation id; by default the span inherits
        its parent's.
        """
        parent, parent_op = self._current.get()
        op = parent_op if op is None else op
        span_id = next(self._ids)
        token = self._current.set((span_id, op))
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            self._current.reset(token)
            self.add(Span(span_id, name, start, end, parent, op))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, op: str = "") -> None:
        """Add a span whose interval was measured elsewhere."""
        self.add(Span(next(self._ids), name, start, end, parent, op))

    def wrap(self, owner, attr: str, name: str,
             op_of: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``op_of(*args)`` names a new operation for each call (a server
        request or job); otherwise the call joins the caller's.
        """
        original = getattr(owner, attr)
        tracer = self

        def op_for(args, kwargs):
            return None if op_of is None else op_of(*args, **kwargs)

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                with tracer.span(name, op_for(args, kwargs)):
                    return await original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name, op_for(args, kwargs)):
                    return original(*args, **kwargs)
        functools.update_wrapper(wrapper, original)
        self._patched.append((owner, attr, vars(owner).get(attr),
                              attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: Path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: Iterable[Span], path: Path) -> None:
    """Write spans as JSON lines (the format :func:`load_spans` reads)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def load_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children of one parent never overlap here (every traced caller
    awaits one child at a time), so their durations simply add.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def self_by_op(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """``{op: {span name: summed self seconds}}``."""
    spans = list(spans)
    own = self_seconds(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        out[span.op][span.name] += own[span.id]
    return out


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
