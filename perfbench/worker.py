"""Run benchmark tasks in child processes that are waited for.

Trace generation and reference outputs run here, outside the measured
process, so they set neither its peak RSS nor its heap state.  Each
call starts at most ``workers`` plain ``python3 -m perfbench.worker``
processes, hands each a share of the tasks as JSON on stdin, and waits
for every one of them before returning.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0


def _task(name: str):
    if name == "generate":
        from perfbench.inputs import generate
        return generate
    if name == "cli_digest":
        from perfbench.expected import cli_digest
        return cli_digest
    raise ValueError(f"unknown task {name!r}")


def run_tasks(name: str, args: Sequence[list], workers: int = 2) -> list:
    """``[task(*a) for a in args]``, split over child processes."""
    shares = [list(range(len(args)))[w::workers] for w in range(workers)]
    shares = [share for share in shares if share]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    procs = [subprocess.Popen([sys.executable, "-m", "perfbench.worker", name],
                              cwd=ROOT, env=env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE)
             for _ in shares]
    results: List[object] = [None] * len(args)
    try:
        for proc, share in zip(procs, shares):
            out, _ = proc.communicate(
                json.dumps([args[i] for i in share]).encode("utf-8"),
                timeout=TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"perfbench worker {name!r} exited "
                                   f"{proc.returncode}")
            for i, value in zip(share, json.loads(out)):
                results[i] = value
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def main() -> int:
    task = _task(sys.argv[1])
    args = json.loads(sys.stdin.read())
    json.dump([task(*a) for a in args], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
