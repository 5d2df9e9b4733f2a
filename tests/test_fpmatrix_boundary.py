"""Only fpmatrix.py knows how cell blocks are stored, and only
cohomology.py reads the periodic complex.

A GradedMap keeps its blocks as one zero-padded stack, and a Grading keys
its cells by weight * 2^32 + degree.  Every other module of the package
reads cells through the public names (Grading.weights, degrees,
cell_weights, cell_degrees; cell_nullities and the graded_* functions),
so the storage can change inside fpmatrix.py alone.  Likewise every other
module reads cohomology through PeriodicCohomology's public methods, never
its cached complex (_data) or a private name of cohomology.py.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobcoho"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "fpmatrix.py")
ENGINE_READERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cohomology.py")

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
ENGINE_PRIVATE = re.compile(r"\._data\(")


def _private_imports(tree: ast.AST, owner: str = "fpmatrix") -> list[str]:
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == owner and node.level
            for alias in node.names if alias.name.startswith("_")]


def _hits(path: Path, pattern: re.Pattern) -> list[str]:
    return [f"{path.name}:{k}: {line.strip()}"
            for k, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_fpmatrix_import(path):
    assert _private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cell_layout_or_key_read(path):
    assert _hits(path, PRIVATE) == []


@pytest.mark.parametrize("path", ENGINE_READERS, ids=lambda p: p.name)
def test_no_private_cohomology_import_or_complex_read(path):
    assert _private_imports(ast.parse(path.read_text()), "cohomology") == []
    assert _hits(path, ENGINE_PRIVATE) == []


def test_guard_patterns_catch_the_layout_and_spare_dicts():
    assert _private_imports(ast.parse("from .fpmatrix import _CELL, GradedMap, _rref_stack")) == [
        "_CELL", "_rref_stack"]
    assert _private_imports(ast.parse("from .fpmatrix import check_prime")) == []
    assert _private_imports(ast.parse("from .cohomology import _g1_char, Sl2Pieces"),
                            "cohomology") == ["_g1_char"]
    assert _private_imports(ast.parse("from .fpmatrix import _matmul"), "cohomology") == []
    assert ENGINE_PRIVATE.search("K, *_, reps = pieces.engine._data(d)")
    assert not ENGINE_PRIVATE.search("self._data_cache = {}")
    for line in ("blocks = m.stack[k]", "keys % _CELL", "g.pos[cols]", "g.slot[rows]",
                 "g.sizes[:-1]", "g.find(0)", "Grading.of_keys(keys)", "g.keys[top]",
                 "g.values.size", "g.index.shape[1]", "g.index[k, 0]", "fpmatrix._matmul(a, b, p)"):
        assert PRIVATE.search(line), line
    for line in ("sum(self.coeffs.values())", "for k in d.keys():", "gens.index(z)",
                 "self.index = {e: k for k, e in enumerate(basis)}", "total.index[(1, 0, 1)]",
                 "g.cell_weights == 0", "g.degrees[at]", "np.stack(rows)"):
        assert not PRIVATE.search(line), line
