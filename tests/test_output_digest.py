"""scripts/output_digest.py runs and is repeatable; it pins no digest."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_digest():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--quick"],
                          env=env, capture_output=True, text=True, check=True)
    return [line.split() for line in done.stdout.splitlines()]


def test_quick_digest_is_repeatable():
    first = quick_digest()
    assert [group for group, _ in first] == ["catalog", "construct", "certify"]
    assert all(len(digest) == 64 for _, digest in first)
    assert quick_digest() == first
