"""The benchmark tracer (perfbench/tracer.py) wraps frobcoho functions and
methods by name; a rename in src/ must fail here, not only under --trace 1."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_target():
    script = (
        "from tracer import TARGETS, install\n"
        "tracer = install()\n"
        "from frobcoho import fpmatrix\n"
        "mat = fpmatrix.FpMatrix(3, [[0, 1], [0, 0]])\n"
        "fpmatrix.graded_kernel(fpmatrix.GradedMap.cut(mat, fpmatrix.Grading([0, 2]), -2))\n"
        "assert tracer.calls['fpmatrix.graded_kernel'] == 1\n"
        "print(len(TARGETS))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "perfbench",
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.strip()) > 0
