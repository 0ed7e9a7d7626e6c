"""Regenerate ``tests/data/golden_documents.json``.

A deliberate, reviewed step — never run by the test suite.  Run it only
when a change is *meant* to move the ``repro analyze --json`` bytes,
and log the regeneration in CHANGES.md:

    PYTHONPATH=src:. python -m tests.regen_golden
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from tests.test_golden import BACKENDS, CASES, GOLDEN_PATH, analyze_digest


def main() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for backend in BACKENDS:
                digests[f"{case}/{backend}"] = analyze_digest(
                    case, backend, Path(tmp))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
