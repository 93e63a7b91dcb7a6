"""The sweep script's table, pinned byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Recorded from a per-topology decide_trg sweep, before the script read
# the TRG topologies from the pruned generator.
GOLDEN = ROOT / "tests" / "golden" / "explore_max_n_4.txt"


def test_explore_small_trgs_max_n_4_matches_the_golden_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "explore_small_trgs.py"), "--max-n", "4"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout == GOLDEN.read_text(encoding="utf-8")
