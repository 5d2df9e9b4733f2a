"""A name that starts with _ stays in its module, for every module of the
package.

tests/test_fpmatrix_boundary.py keeps fpmatrix's and cohomology's private
names to themselves; this extends the rule to every sibling.  A helper that
another module needs has a public name, kept out of frobcoho.__all__ when it
is no part of the documented API (lie.check_relations, characters.digits,
wmodules.class_labels).  TruncatedSymAlgebra's monomial codes (_codes,
_at_code) are read in wmodules.py alone; another module finds a monomial
with TruncatedSymAlgebra.position.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobcoho"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {p.stem for p in MODULES} - {"__init__"}
CODES = {"_codes", "_at_code"}


def _sites(name: str, text: str) -> list[str]:
    """The code of module `name` (docstrings and comments aside) that binds a
    sibling's _-name by `from .sibling import`, reads one as sibling._name,
    or, outside wmodules.py, reads _codes or _at_code."""
    sites = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level:
            sites += [(node.lineno, f"imports {a.name}") for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and (
                (isinstance(node.value, ast.Name) and node.value.id in SIBLINGS
                 and node.attr.startswith("_"))
                or (name != "wmodules.py" and node.attr in CODES)):
            sites.append((node.lineno, f"reads {node.attr}"))
    return [f"{name}:{k}: {what}" for k, what in sorted(sites)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sibling_private_name_or_monomial_code_read(path):
    assert _sites(path.name, path.read_text()) == []


def test_guards_catch_private_names_and_spare_public_ones():
    assert _sites("wmodules.py", "from .characters import LaurentCharacter, _digits\n"
                                 "from .lie import _check_relations, sl2") == [
        "wmodules.py:1: imports _digits", "wmodules.py:2: imports _check_relations"]
    assert _sites("verify.py", "x_rep[total._at_code[[p * p + 1, 2 * p]]] = 4 % p, 1") == [
        "verify.py:1: reads _at_code"]
    assert _sites("cohomology.py", "s = alg._codes[i1] + alg._codes[i2]") == [
        "cohomology.py:1: reads _codes", "cohomology.py:1: reads _codes"]
    assert _sites("cli.py", "dec = wmodules._class_labels(n, g, p)") == [
        "cli.py:1: reads _class_labels"]
    for name, line in (("wmodules.py", "partner = self._at_code[self.dim - 1 - self._codes]"),
                       ("verify.py", "i = total.position((1, 0, 1))"),
                       ("cli.py", "ok = args.p in verify.FIXTURE_PRIMES"),
                       ("lie.py", "ad = self._ads[x]"),
                       ("wmodules.py", '"""Checked by lie._check_relations."""'),
                       ("verify.py", "# by total._at_code"),
                       ("verify.py", "from __future__ import annotations")):
        assert _sites(name, line) == [], line
