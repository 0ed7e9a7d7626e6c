"""Workload inputs: trace sizes per profile, and seeded trace generation.

Traces are generated from the workload seed in worker processes
(:mod:`perfbench.worker`), never in the measured process.  Trace ``i``
of a run with seed ``s`` is simulated with seed ``s * 1000 + i``, so the
same seed always gives the same files.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.worker import run_tasks

#: Trace indices per run stay below this, keeping simulation seeds apart.
MAX_TRACES = 1000


@dataclass(frozen=True)
class TraceSpec:
    """One LULESH configuration (``chares``/``pes`` for Charm++,
    ``ranks`` for MPI)."""

    model: str
    iterations: int
    chares: int = 0
    pes: int = 0
    ranks: int = 0


#: ``full`` is what ``BENCHMARK.json`` runs; ``tiny`` is the smoke-test
#: size.  ``op_s`` is a rough per-operation cost on a 2-core container,
#: used only to decide how many fresh traces a run may need.
PROFILES: Dict[str, Dict[str, dict]] = {
    "full": {
        "analyze_charm": {"trace": TraceSpec("charm", 8, chares=125, pes=8),
                          "op_s": 1.5},
        "report_mpi": {"trace": TraceSpec("mpi", 24, ranks=8),
                       "op_s": 1.4},
        "serve_mixed": {"trace": TraceSpec("charm", 8, chares=64, pes=4),
                        "jobs_per_s": 1.6},
    },
    "tiny": {
        "analyze_charm": {"trace": TraceSpec("charm", 2, chares=8, pes=2),
                          "op_s": 0.05},
        "report_mpi": {"trace": TraceSpec("mpi", 2, ranks=8),
                       "op_s": 0.05},
        "serve_mixed": {"trace": TraceSpec("charm", 2, chares=8, pes=2),
                        "jobs_per_s": 60.0},
    },
}


def sim_seed(run_seed: int, index: int) -> int:
    if not 0 <= index < MAX_TRACES:
        raise ValueError(f"trace index {index} out of range")
    return run_seed * MAX_TRACES + index


def trace_path(work: Path, index: int) -> Path:
    return work / f"trace-{index:03d}.jsonl"


def generate(spec: dict, seed: int, path: str) -> Tuple[float, int]:
    """Simulate and write one trace; returns (seconds taken, events)."""
    from repro.apps import lulesh
    from repro.trace import write_trace

    spec = TraceSpec(**spec)
    start = time.perf_counter()
    if spec.model == "mpi":
        trace = lulesh.run_mpi(ranks=spec.ranks, iterations=spec.iterations,
                               seed=seed)
    else:
        trace = lulesh.run_charm(chares=spec.chares, pes=spec.pes,
                                 iterations=spec.iterations, seed=seed)
    write_trace(trace, path)
    return time.perf_counter() - start, len(trace.events)


def generate_traces(spec: TraceSpec, run_seed: int, indices: Sequence[int],
                    work: Path) -> List[Tuple[float, int]]:
    """Write the traces ``indices`` into ``work`` from worker processes;
    per trace, the seconds generation took and its event count."""
    work.mkdir(parents=True, exist_ok=True)
    return run_tasks("generate", [
        [asdict(spec), sim_seed(run_seed, i), str(trace_path(work, i))]
        for i in indices])
