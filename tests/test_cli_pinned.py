"""The fast CLI operations of the benchmark give their recorded output.

perfbench/expected.json holds the stdout sha256 and exit code of every
benchmark CLI operation; this runs the quick ones in-process, so a change
in any byte of their reports or tables fails the test suite.
"""

import hashlib
import json
from pathlib import Path

import pytest

from frobcoho.cli import run_cli

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
FAST_OPS = (
    "verify props --p 3",
    "verify props --p 5",
    "verify props --p 7",
    "verify appendix --p 2",
    "verify appendix --p 3",
    "verify appendix --p 5",
    "verify appendix --p 7",
    "table g1 --p 11",
    "table b1 --p 13",
    "table u1 --p 13",
)


@pytest.mark.parametrize("op", FAST_OPS)
def test_cli_output_matches_recorded_hash(op, capsys):
    want = json.loads(EXPECTED.read_text())[op]
    code = run_cli(op.split())
    out = capsys.readouterr().out.encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        want["exit"], want["bytes"], want["sha256"])
