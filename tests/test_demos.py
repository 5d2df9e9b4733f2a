"""Every demo runs and prints the bytes recorded for it.

Each demos/*.py runs in a fresh interpreter with the package imported
from src/; its exit code must be 0 and its stdout must hash to the
sha256 in DEMOS.  A demo without a recorded hash fails too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {  # file: stdout sha256
    "01_characters_and_tilting.py":
        "1b1323d713419cc51303e46d05e2163fec5849903dbff027dc83a2798e2772f3",
    "02_taft_hochschild.py":
        "5fd96f7c81a5e72377965928af61763863af7b654ed9baaa5ebe9a4bfd4d3f17",
    "03_sl2_hochschild_tables.py":
        "7a7da22a548f438a5e9d23ba6110045e8ef2cb2df98eb67dfd79f8d17a751fb1",
    "04_collapse_and_ideal.py":
        "5ca9adb8ce94b18f01f5f406179183af1277b997fe29ee405d7baa4c6b89901b",
}


def test_every_demo_has_a_recorded_hash():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_matches_recorded_hash(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMOS[name]
