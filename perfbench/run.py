"""File-to-result benchmark of ``repro``: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_charm --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``perfbench/README.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit).  Inputs are generated from
``--seed``; every output is checked after the timed region, and each
operation with a failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze_charm", "report_mpi", "serve_mixed")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=_positive, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes: full (BENCHMARK.json) or tiny "
                             "(smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_workload(args) -> dict:
    """Run one workload; returns the result object to print."""
    from perfbench import ops, serve_mixed
    from perfbench.spec import metrics_block
    from perfbench.tracer import Tracer, dump_spans

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tracer = Tracer()
    common = dict(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  profile=args.profile, work=work, tracer=tracer)
    try:
        if args.workload == "serve_mixed":
            result = serve_mixed.run(root=ROOT, **common)
        else:
            result = ops.run(args.workload, **common)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        stem = ROOT / ".perfbench_spans" / f"{args.workload}-seed{args.seed}"
        tracer.dump(stem.with_suffix(".jsonl"))
        if result.get("server_spans"):
            dump_spans(result["server_spans"], stem.with_suffix(".server.jsonl"))
        print(f"perfbench: spans written to {stem}.*", file=sys.stderr)
    records = result["records"]
    failed = [r for r in records if r.problems]
    for record in failed:
        print(f"perfbench: {record.op} failed: "
              f"{'; '.join(record.problems)}", file=sys.stderr)
    values = result["layers"] if args.trace else result["e2e"]
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed),
            "metrics": metrics_block(values, bool(args.trace))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    print(json.dumps(run_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
