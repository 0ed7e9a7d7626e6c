"""Reference outputs of the default seed, produced through ``repro.cli``.

``expected.json`` holds the sha256 of the CLI's stdout for the first
traces of the default seed, per profile and workload:

* ``analyze_charm`` and ``serve_mixed``: ``repro analyze TRACE --json``
  (the service must serve exactly these bytes);
* ``report_mpi``: ``repro report TRACE --repair fix --on-error degrade``.

A run with the default seed compares every output it produced for
those traces against the recorded digest.  Regenerate the file only
when an output is meant to change, and say so in the change::

    python3 -m perfbench.expected      # from the repository root
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from perfbench.inputs import PROFILES, generate_traces, trace_path
from perfbench.worker import run_tasks

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: Trace indices recorded per workload (serve_mixed warms 0-3).
RECORDED = {"analyze_charm": 3, "report_mpi": 3, "serve_mixed": 6}


def cli_args(workload: str, path: str) -> List[str]:
    if workload == "report_mpi":
        return ["report", path, "--repair", "fix", "--on-error", "degrade"]
    return ["analyze", path, "--json"]


def cli_output(args: List[str]) -> bytes:
    """What ``python -m repro.cli ARGS`` prints, run in this process."""
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited {code}")
    return buf.getvalue().encode("utf-8")


def cli_digest(workload: str, path: str) -> str:
    return hashlib.sha256(cli_output(cli_args(workload, path))).hexdigest()


def load_expected(profile: str, workload: str) -> Dict[int, str]:
    """``{trace index: sha256}`` recorded for the default seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    return {int(i): d for i, d in table[profile][workload].items()}


def record(root: Path) -> dict:
    table: dict = {}
    for profile, workloads in PROFILES.items():
        table[profile] = {}
        for workload, prof in workloads.items():
            work = Path(tempfile.mkdtemp(prefix="expected-", dir=root))
            try:
                indices = range(RECORDED[workload])
                generate_traces(prof["trace"], DEFAULT_SEED, indices, work)
                digests = run_tasks("cli_digest", [
                    [workload, str(trace_path(work, i))] for i in indices])
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table[profile][workload] = {str(i): d
                                        for i, d in zip(indices, digests)}
    return table


if __name__ == "__main__":
    repo = Path(__file__).resolve().parent.parent
    scratch = repo / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(record(scratch), indent=1) + "\n",
                             encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
