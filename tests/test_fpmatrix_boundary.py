"""Only fpmatrix.py knows how cell blocks are stored.

A GradedMap keeps its blocks as one zero-padded stack, and a Grading keys
its cells by weight * 2^32 + degree.  Every other module of the package
reads cells through the public names (Grading.weights, degrees,
cell_weights, cell_degrees; cell_nullities and the graded_* functions),
so the storage can change inside fpmatrix.py alone.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobcoho"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "fpmatrix.py")

# GradedMap.stack (not np.stack), the key unit _CELL, any private fpmatrix
# name reached through the module, and Grading's private fields; dict
# .keys() and .values() calls, list.index calls and TruncatedSymAlgebra.index
# (a dict from exponent tuples, assigned from a dict) do not match.
PRIVATE = re.compile(
    r"(?<!np)\.stack\b|\b_CELL\b|\bfpmatrix\._\w"
    r"|\.(?:pos|slot|sizes|find|of_keys)\b"
    r"|\.(?:keys|values)\b(?!\(\))"
    r"|\.index\b(?!\(|\[\(| = \{)"
)


def _private_imports(tree: ast.AST) -> list[str]:
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "fpmatrix" and node.level
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_fpmatrix_import(path):
    assert _private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cell_layout_or_key_read(path):
    hits = [f"{path.name}:{k}: {line.strip()}"
            for k, line in enumerate(path.read_text().splitlines(), 1) if PRIVATE.search(line)]
    assert hits == []


def test_guard_patterns_catch_the_layout_and_spare_dicts():
    assert _private_imports(ast.parse("from .fpmatrix import _CELL, GradedMap, _rref_stack")) == [
        "_CELL", "_rref_stack"]
    assert _private_imports(ast.parse("from .fpmatrix import check_prime")) == []
    for line in ("blocks = m.stack[k]", "keys % _CELL", "g.pos[cols]", "g.slot[rows]",
                 "g.sizes[:-1]", "g.find(0)", "Grading.of_keys(keys)", "g.keys[top]",
                 "g.values.size", "g.index.shape[1]", "g.index[k, 0]", "fpmatrix._matmul(a, b, p)"):
        assert PRIVATE.search(line), line
    for line in ("sum(self.coeffs.values())", "for k in d.keys():", "gens.index(z)",
                 "self.index = {e: k for k, e in enumerate(basis)}", "total.index[(1, 0, 1)]",
                 "g.cell_weights == 0", "g.degrees[at]", "np.stack(rows)"):
        assert not PRIVATE.search(line), line
