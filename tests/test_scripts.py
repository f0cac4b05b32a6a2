"""The scripts in scripts/ run against this checkout and keep their claims.

Each script runs in a fresh interpreter whose environment holds only
PYTHONPATH=src (``-s`` skips the user site), so a script that still calls
a removed or renamed API fails here.
"""

import re
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


def test_twirl_necessity_full_plan_hides_and_every_drop_leaks():
    out = run_script("twirl_necessity.py")
    full = [float(v) for v in re.findall(r"full plan leak (\S+)", out)]
    dropped = [float(v) for v in
               re.findall(r"without generator \d+ \(.*?\): leak (\S+)", out)]
    # cnot_2_1, ghz_4 and ghz_5 have one generator each, four_two_two four.
    assert len(full) == 4 and len(dropped) == 7, out
    assert max(full) < 1e-10, out
    assert min(dropped) > 0.1, out
