"""The benchmark's own test: `python -m pytest bench/test_smoke.py`.

It runs `run.py --smoke`, which runs every workload once on tiny inputs and
feeds every correctness check a corrupted output.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_passes():
    run = Path(__file__).resolve().parent / "run.py"
    done = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"
