import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))

# sha256 of the stdout of every demo, which must not change
STDOUT_SHA256 = {
    "01_rings_and_permutations.py":
        "de2c1e766287cf718d436475f013393d29080641f7249f5b63a0daf0a3b23d29",
    "02_divisor_graph.py":
        "60ae6738cda60309bb9c09d1de99f9aac622b54f469ee141e1df63fb42f12aef",
    "03_class_counting.py":
        "b15ae6c39288b88b874cd8c179b23f7edcb2a82a84ae94a796e19b7bea258ff4",
    "04_equation_solving.py":
        "ad0f16f1ad52f488a33ff26b9a9c30ef19869fcb053b8a246bc64f0b9e33f3a1",
    "05_brute_force_crosscheck.py":
        "f9045b2137cefa144d895cab607dffff7f40482ef22e5af3e39388ea2f045bda",
}


def test_all_five_demos_found():
    assert len(DEMOS) == 5
    assert set(STDOUT_SHA256) == {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
