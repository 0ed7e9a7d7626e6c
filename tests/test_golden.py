"""Golden lock on the ``repro analyze --json`` document bytes.

``tests/data/golden_documents.json`` holds the sha256 of the
``repro analyze --json`` stdout for every bundled app (the configs of
``tests/test_backend_equivalence.py``) plus MPI LULESH, under
``backend="auto"`` and ``backend="python"``.  Any refactor of the
extraction pipeline must leave these bytes alone; a digest change fails
here.  The digests are regenerated only by the separate, reviewed step

    PYTHONPATH=src:. python -m tests.regen_golden

which this test never calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.api import PipelineOptions
from repro.apps import lulesh
from repro.cli import main
from repro.core.columnar import HAVE_NUMPY
from repro.trace import write_trace
from tests.test_backend_equivalence import APPS

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_documents.json"

#: Every locked trace: the nine bundled app configs plus MPI LULESH.
CASES = dict(APPS)
CASES["lulesh_mpi"] = lambda: lulesh.run_mpi(ranks=8, iterations=2, seed=3)

#: Backends each trace is locked under.
BACKENDS = ("auto", "python")


def analyze_digest(case: str, backend: str, workdir: Path) -> str:
    """sha256 of ``repro analyze TRACE --json --backend BACKEND`` stdout."""
    path = workdir / f"{case}.jsonl"
    if not path.exists():
        write_trace(CASES[case](), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(path), "--json", "--backend", backend])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(
        f"{case}/{backend}" for case in CASES for backend in BACKENDS
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One trace file per case, shared by both backends."""
    return tmp_path_factory.mktemp("golden")


@pytest.mark.skipif(not HAVE_NUMPY, reason="auto resolves to python without NumPy")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_document_digest(case, backend, workdir):
    assert analyze_digest(case, backend, workdir) == _golden()[f"{case}/{backend}"]


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy backends unavailable")
def test_columnar_aliases_share_result_token():
    tokens = {PipelineOptions(backend=b).result_token()
              for b in ("auto", "columnar", "columnar_batched")}
    assert len(tokens) == 1
