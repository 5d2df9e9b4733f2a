"""Only tests/oracles.py holds the tests' dense references.

sympy, the independent F_p oracle, is imported there alone.  The dense
reductions (the FpMatrix methods rref, rank, kernel_basis,
column_space_basis and solve, and generalized_eigenspace) are called
there, in the tests of those reductions themselves (test_fpmatrix.py and
test_fp_oracle.py), and in test_cup_products.py's degree-by-degree
diagonal solver.  Every other test reaches a dense reference through the
functions it imports by name from oracles, so each reference lives in
one place.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted(TESTS.glob("*.py"))
REDUCTIONS = {"rref", "rank", "kernel_basis", "column_space_basis", "solve"}
DENSE_CALLERS = {"oracles.py", "test_fpmatrix.py", "test_fp_oracle.py", "test_cup_products.py"}


def _sympy_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "sympy"]


def _dense_calls(tree: ast.AST) -> list[str]:
    """The lines that call a method named like an FpMatrix reduction, or
    call or import generalized_eigenspace."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "generalized_eigenspace" or (
                    isinstance(f, ast.Attribute) and name in REDUCTIONS):
                hits.append(f"{node.lineno}: {name}()")
        elif isinstance(node, ast.ImportFrom):
            hits += [f"{node.lineno}: import {a.name}" for a in node.names
                     if a.name == "generalized_eigenspace"]
    return hits


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "oracles.py"],
                         ids=lambda p: p.name)
def test_no_sympy_import_outside_the_oracles(path):
    assert _sympy_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in DENSE_CALLERS],
                         ids=lambda p: p.name)
def test_no_dense_reduction_outside_the_oracles(path):
    assert _dense_calls(ast.parse(path.read_text())) == []


def test_guard_patterns_catch_dense_references_and_spare_oracle_calls():
    for line in ("import sympy", "import sympy.polys as sp", "from sympy import GF",
                 "from sympy.polys.matrices import DomainMatrix"):
        assert _sympy_imports(ast.parse(line)), line
    for line in ("from oracles import sympy_matrix", "import numpy as np",
                 "from frobcoho import simple_char", "from . import sympyish"):
        assert not _sympy_imports(ast.parse(line)), line
    for line in ("FpMatrix(p, a).rank()", "m.kernel_basis().cols", "mat.solve(rhs)",
                 "m.rref()[1]", "b.column_space_basis()", "generalized_eigenspace(m, 0)",
                 "fpmatrix.generalized_eigenspace(m, 0)",
                 "from frobcoho.fpmatrix import FpMatrix, generalized_eigenspace"):
        assert _dense_calls(ast.parse(line)), line
    for line in ("rank(a, p)", "solve(a, b, p)", "graded_solve(f, v)", "eigenspace(a, 0, p)",
                 "duality_pairing_rank(g, 3)", "graded_eigenspaces(c)", "M.action('f')",
                 "_count_calls(monkeypatch, FpMatrix, 'solve', counts)",
                 "from oracles import cell_eigenspaces, rank, solve"):
        assert not _dense_calls(ast.parse(line)), line
