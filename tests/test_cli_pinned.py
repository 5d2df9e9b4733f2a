"""The fast CLI operations of the benchmark give their recorded output.

perfbench/expected.json holds the stdout sha256 and exit code of every
benchmark CLI operation; this runs the quick ones in-process, so a change
in any byte of their reports or tables fails the test suite.  PINNED
holds the same record for operations the benchmark does not run.
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
PINNED = {  # op: (exit code, stdout bytes, stdout sha256)
    "verify props --p 11": (
        2, 6679, "9a194dd85d21aa1466ad29bae33045e825472278b16ba769176f4681bee49019"),
    "verify props --p 13": (
        2, 8163, "bfd0e9152702902844b565afeb3cd530c1dfe96de2dd95dfbf05a343abd5212b"),
}


@pytest.mark.parametrize("op", FAST_OPS + tuple(PINNED))
def test_cli_output_matches_recorded_hash(op, capsys):
    if op in PINNED:
        want = PINNED[op]
    else:
        rec = json.loads(EXPECTED.read_text())[op]
        want = (rec["exit"], rec["bytes"], rec["sha256"])
    code = run_cli(op.split())
    out = capsys.readouterr().out.encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == want
