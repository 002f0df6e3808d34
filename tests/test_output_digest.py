"""scripts/output_digest.py runs and prints the pinned digests.

tests/data/output_digests.json holds the eight group digests at one BLAS
thread.  A change that means to alter a CLI output edits that file and says
which groups moved and why."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_digest():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                          env=env, capture_output=True, text=True, check=True)
    return [line.split() for line in done.stdout.splitlines()]


def test_full_digest_matches_the_pinned_outputs():
    pinned = json.loads((ROOT / "tests" / "data" / "output_digests.json").read_text())
    assert dict(run_digest()) == pinned
