"""Only the --format json paths load json: a command that prints text or
TSV leaves it out of sys.modules.

Each check runs in a fresh interpreter, as in tests/test_lazy_namespace.py,
since the test session itself has json loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _json_loaded(*argvs: list[str]) -> bool:
    """Whether json is in sys.modules after run_cli ran each argv, with exit 0."""
    script = ("import sys\n"
              "from frobcoho.cli import run_cli\n"
              f"for argv in {list(argvs)!r}:\n"
              "    assert run_cli(argv) == 0, argv\n"
              "print('json' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FROBCOHO_FIXTURES", None)
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1] == "True"


def test_text_and_tsv_commands_load_no_json():
    assert not _json_loaded(["table", "g1", "--p", "13"], ["verify", "appendix", "--p", "2"])


def test_json_format_loads_json():  # the probe sees json once a command needs it
    assert _json_loaded(["table", "g1", "--p", "3", "--format", "json"])
    assert _json_loaded(["verify", "appendix", "--p", "2", "--format", "json"])
