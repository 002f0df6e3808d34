"""scripts/output_digest.py runs and prints the pinned digests.

tests/data/output_digests.json holds the eight group digests at one BLAS
thread.  A change that means to alter a CLI output edits that file and says
which groups moved and why."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_full_digest_matches_the_pinned_outputs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                          env=env, capture_output=True, text=True, check=True)
    digests, listed = {}, {}  # under each group, one "<sha256> <arguments>" line per command
    for line in done.stdout.splitlines():
        if line.startswith(" "):
            listed[group].append(line.split(maxsplit=1)[1])
        else:
            group, digests[group] = line.split()
            listed[group] = []
    assert digests == json.loads((ROOT / "tests" / "data" / "output_digests.json").read_text())
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "scripts" / "output_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run = {}  # each group's commands in run order, groups in order of first use
    for group, argv, _ in script._commands(tmp_path):
        run.setdefault(group, []).append(" ".join(argv).replace(
            str(script.FIXTURES), "<fixtures>").replace(str(tmp_path), "<tmp>"))
    assert list(listed.items()) == list(run.items())
    commands = [command for group in run.values() for command in group]
    assert len(set(commands)) == len(commands)
