"""The scripts in scripts/ run against this checkout and keep their claims.

Each script runs in a fresh interpreter whose environment holds only
PYTHONPATH=src (``-s`` skips the user site), so a script that still calls
a removed or renamed API fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-s", str(ROOT / "scripts" / name)],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_classify_catalog_lists_every_code():
    rows = [line for line in run_script("classify_catalog.py").splitlines()
            if line.startswith("[[")]
    assert len(rows) == 8
