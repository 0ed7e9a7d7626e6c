"""Smoke tests for the benchmark, at the ``tiny`` input size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import ops, run  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_spec_matches_benchmark_json():
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert BENCH["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END]
    assert BENCH["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in table})
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "serve_mixed":
        assert 0.3 <= values["serve.hit_ratio"] <= 0.7
        assert values["serve.worker.analyze_one_s"] > 0
        assert values["store.get_s"] > 0
    else:
        assert values["core.extract_s"] > 0
        assert values["op.unattributed_share"] < 0.25


@pytest.mark.parametrize("workload", ["analyze_charm", "report_mpi"])
def test_corrupted_output_byte_counts_as_failure(workload, monkeypatch):
    deliver = ops.write_output
    corrupted = []

    def write_then_flip_one_byte(path, text):
        deliver(path, text)
        if not corrupted:
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
            corrupted.append(path)

    monkeypatch.setattr(ops, "write_output", write_then_flip_one_byte)
    args = run.parse_args(["--workload", workload, "--seed", "0",
                           "--seconds", "0.2", "--profile", "tiny"])
    result = run.run_workload(args)
    assert corrupted
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["verified_ratio"]["value"] < 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
