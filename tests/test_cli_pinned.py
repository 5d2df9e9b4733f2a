"""Every CLI operation of the benchmark gives its recorded output.

perfbench/expected.json holds the stdout sha256 and exit code of every
benchmark CLI operation; this runs all of them in-process, so a change in
any byte of their reports or tables fails the test suite.  PINNED
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
    "table g1 --p 13",
    "table b1 --p 13",
    "table u1 --p 13",
    "verify appendix --p 13 --no-fixture",
)
PINNED = {  # op: (exit code, stdout bytes, stdout sha256)
    "verify props --p 2": (
        0, 962, "2352541690e0dca0ef2a5bfa20310ecfc3787b93f66003d2b833ed9a92aabace"),
    "verify props --p 11": (
        2, 6679, "9a194dd85d21aa1466ad29bae33045e825472278b16ba769176f4681bee49019"),
    "verify props --p 13": (
        2, 8163, "bfd0e9152702902844b565afeb3cd530c1dfe96de2dd95dfbf05a343abd5212b"),
    "table g1 --p 2": (
        0, 1266, "c7068e831fb79fd5a29ed5ccb32b8545c69e6438082904d3e0f06cbef87aead2"),
    "table g1 --p 3": (
        0, 1214, "4f864c4d6570c1dbec607ce44d642eaebb650e54f9f26a004e0e27af4ebaa0c2"),
    "table g1 --p 5": (
        0, 2299, "198531d9107e562d3413c75cfbf459c6d078961142cce57ee482a6721882d2f3"),
    "table g1 --p 7": (
        0, 3411, "73dba43bd8b7e8082989fd8f51867db5baf5a9a41b7b0191a07f21956d8b1d0e"),
    "table g1 --p 13 --format json": (
        0, 38750, "b38b32952596f07fd2065b3c7a4991b7c4d902ead841dc906dc07f6fd986da2e"),
    "verify appendix --p 11 --no-fixture": (
        0, 9333, "f56c9fc4ee4f10ba7a02d21c3ed14311c78a46cee3d2f3bc54ba7a659a22d679"),
    # the p = 2 decompositions are the CLI's paths through module_hom_dim
    "decomp tsym --p 2 --n 1": (
        0, 9, "ef586bf7dea7b7b34335ba8add660f39641812ec2ab87b09d858220c05fb78e9"),
    "decomp tsym --p 2 --n 2": (
        0, 9, "86ad02db70443320ca429306588fa93bf7cd58959a955979af477d52527c5073"),
    "decomp sym --p 2 --n 1": (
        0, 9, "ef586bf7dea7b7b34335ba8add660f39641812ec2ab87b09d858220c05fb78e9"),
    "decomp tsym --p 5 --n 6": (
        0, 15, "d28be700e16963b2d254668ad635a81fbd68ccb1bc8b542b81d69a0a16258f4c"),
    "decomp tsym --p 13 --n 18": (
        0, 42, "1d5e1136cb8c15f161aaa4319364130d1f7566111f71ba80d51ab9f5d068f6b4"),
    "cohomology --target b1 --p 3 --n 3 --deg 1": (
        0, 24, "48344a4660919e3e014d97c9ef86dec28e741a6277932b7886e615029e7bede7"),
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
