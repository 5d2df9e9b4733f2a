"""The whole-algebra passes over the graded pieces of the truncated
symmetric algebras (cohomology.Sl2Pieces, and the b, u and symmetric-power
modules of verify_propositions) against the per-piece route they replaced,
which is kept here as the oracle: one module, Casimir split and engine per
piece, socle fingerprints from weight-graded Hom systems, and duality
ranks against the piece dimensions."""

import sys

import numpy as np
import pytest

from frobcoho import cohomology, fpmatrix, verify, wmodules
from frobcoho.cohomology import (
    PeriodicCohomology,
    Sl2Pieces,
    g1_cohomology_char,
    hh_table,
    u_cohomology,
)
from frobcoho.fpmatrix import FpMatrix, GradedMap
from frobcoho.lie import borel, nilradical, sl2
from frobcoho.verify import (
    FixtureRow,
    _socle_fingerprints,
    synthesize_fixture,
    verify_appendix,
    verify_propositions,
)
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    _monomial_module,
    block_projection_principal,
    g1_invariants,
    module_hom_dim,
    simple_model,
    summand_labels,
    sym_power,
    truncated_sym,
    weight_line,
)
from oracles import all_block_principal_parts, module_degree_characters


def _visited(piece, p):
    """The (lam0, tau) whose Hom into piece the per-piece socle loop computed."""
    weights = set(piece.weights)
    span = max((abs(w) for w in piece.weights), default=0) // p + 1
    for lam0 in range(p):
        for tau in range(-span * p, span * p + 1, p):
            if all(lam0 + tau - 2 * i in weights for i in range(lam0 + 1)):
                yield lam0, tau


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_socle_primitive_vectors_match_hom_systems(p):
    g = sl2(p)
    socles = _socle_fingerprints(_monomial_module(g, range(3 * (p - 1) + 1), p - 1))
    assert set(socles) <= set(range(3 * (p - 1) + 1))
    for n in range(3 * (p - 1) + 1):
        piece, computed, oracle = truncated_sym(g, n), socles.get(n, {}), {}
        for lam0, tau in _visited(piece, p):
            model = simple_model(lam0, p)
            if tau:
                model = model.tensor(weight_line(g, tau))
            oracle[(lam0, tau)] = module_hom_dim(model, piece)
            assert computed.get((lam0, tau), 0) == oracle[(lam0, tau)], (n, lam0, tau)
        assert set(computed) <= set(oracle), n  # zeros omitted, nothing unvisited
        assert 0 not in computed.values()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_g1_table_matches_per_piece_engines(p):
    g, maxdeg = sl2(p), 8
    want = []
    for n in range(3 * (p - 1) + 1):
        engine = PeriodicCohomology(block_projection_principal(truncated_sym(g, n)))
        for d in range(maxdeg + 1):
            char, exact = g1_cohomology_char(engine, d)
            want.append((str(n), d, char, "exact" if exact else "euler-only"))
    assert hh_table("g1", p, maxdeg).entries == want


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_synthesized_rows_match_per_piece_split(p):
    g, want = sl2(p), []
    for n in range(3 * (p - 1) + 1):
        dec = summand_labels(truncated_sym(g, n))
        inside = p - 1 <= n <= 2 * (p - 1)
        pattern = (("K_DEG0" if inside else "KNULL") if n % 2 == 0
                   else ("ODD_IND" if inside else "ZERO"))
        labels = tuple((fam, w) for fam, w, mult in dec.entries for _ in range(mult))
        want.append(FixtureRow(n, labels, pattern))
    assert synthesize_fixture(p).rows == tuple(want)


def _count_calls(monkeypatch, owner, name, counts):
    """Count calls of owner.name, also where frobcoho modules imported it."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod in [m for key, m in sys.modules.items() if key.startswith("frobcoho.")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def test_whole_algebra_pass_builds_one_engine(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, cohomology.PeriodicCohomology, "__init__", counts)
    _count_calls(monkeypatch, wmodules.WeightModule, "validate", counts)
    _count_calls(monkeypatch, wmodules, "module_hom_dim", counts)
    hh_table("g1", 13, 8)
    assert counts == {"__init__": 1, "validate": 2}
    counts.clear()
    verify_appendix(7)
    assert counts.get("__init__") == 1
    assert "module_hom_dim" not in counts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_props_pass_matches_per_piece_route(p):
    g, pieces = sl2(p), Sl2Pieces(p)
    u_chars = [pieces.engine.u_characters(j) for j in (0, 1)]
    u1_chars = [pieces.engine.characters(d) for d in (1, 2, 3)]
    principal = module_degree_characters(pieces.engine.M, pieces.top)
    for n in range(pieces.top + 1):
        piece0 = block_projection_principal(truncated_sym(g, n))
        assert principal[n] == piece0.character(), n
        assert [c[n] for c in u_chars] == [u_cohomology(piece0, j) for j in (0, 1)], n
        engine = PeriodicCohomology(piece0)
        assert [c[n] for c in u1_chars] == [engine.character(d) for d in (1, 2, 3)], n
    invariants = sum(g1_invariants(truncated_sym(g, n)).dim for n in range(pieces.top + 1))
    assert g1_invariants(pieces.module).dim == invariants
    assert sum(c.dim() for c, _ in pieces.g1_chars(0)) == invariants
    sym = _monomial_module(g, range(2 * p - 1), None)
    assert module_degree_characters(sym, 2 * p - 2) == [
        sym_power(g, n).character() for n in range(2 * p - 1)]
    for alg, whole in ((g, pieces.algebra), (borel(p), None), (nilradical(p), None)):
        whole = whole or TruncatedSymAlgebra(alg)
        pieces_of = [truncated_sym(alg, i) for i in range(whole.top_degree + 1)]
        assert module_degree_characters(whole.module, whole.top_degree) == [
            piece.character() for piece in pieces_of]
        assert whole.duality_ranks() == [piece.dim for piece in pieces_of]


def test_engine_characters_read_no_dense_column(monkeypatch):
    # characters come from the cells of the class columns, not from vectors
    counts = {}
    _count_calls(monkeypatch, GradedMap, "column", counts)
    hh_table("b1", 7, 8)
    hh_table("g1", 7, 8)
    assert counts == {}


def test_props_pass_builds_each_algebra_once(monkeypatch):
    counts, built = {}, []
    for name in ("truncated_sym", "sym_power", "block_projection_principal",
                 "principal_block_projector", "casimir_operator"):
        _count_calls(monkeypatch, wmodules, name, counts)
    build = TruncatedSymAlgebra.__init__

    def counted(self, alg):
        built.append(alg.generators)
        build(self, alg)

    monkeypatch.setattr(TruncatedSymAlgebra, "__init__", counted)
    verify_propositions(7)
    assert counts == {"casimir_operator": 1}
    assert sorted(built) == sorted([("e", "h", "f"), ("h", "f"), ("f",)])


def test_props_pass_takes_no_dense_solve(monkeypatch):
    # the cup diagonal is a closed form, not a solved system
    counts = {}
    for name in ("solve", "kernel_basis"):
        _count_calls(monkeypatch, FpMatrix, name, counts)
    verify_propositions(7)
    assert counts == {}


def test_props_pass_reduces_no_cohomology_of_the_whole_algebra(monkeypatch):
    # every T_1 class lies in the principal block (50 of the 125 vectors at
    # p = 5), so the engine on the whole algebra only carries cup_product;
    # the one solve takes the p - 1 odd squares, the second x.z - z.x
    dims, shapes = [], []
    data, solve = PeriodicCohomology._data, verify.graded_solve

    def recorded_data(self, n):
        dims.append(self.M.dim)
        return data(self, n)

    def recorded_solve(mat, rhs):
        shapes.append(np.shape(rhs))
        return solve(mat, rhs)

    monkeypatch.setattr(PeriodicCohomology, "_data", recorded_data)
    monkeypatch.setattr(verify, "graded_solve", recorded_solve)
    verify_propositions(5)
    assert 50 in dims and 5 ** 3 not in dims
    assert shapes == [(125, 4), (125,)]


def test_casimir_classes_come_from_one_frobenius_power(monkeypatch):
    # the principal block is ker S and the other Casimir classes are counted
    # from S - lam, so no eigenspace basis is built; every pass builds the
    # Casimir once per algebra, the synthesized fixture reading pieces.S
    counts = {}
    _count_calls(monkeypatch, fpmatrix, "graded_eigenspaces", counts)
    _count_calls(monkeypatch, wmodules, "casimir_blocks", counts)
    _count_calls(monkeypatch, wmodules, "casimir_operator", counts)
    for run in (lambda: hh_table("g1", 13, 8), lambda: verify_propositions(7),
                lambda: verify_appendix(7), lambda: verify_appendix(13, allow_synth=True),
                lambda: summand_labels(truncated_sym(sl2(7), 6))):
        counts.clear()
        run()
        assert counts == {"casimir_operator": 1}


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_principal_parts_by_projector_match_the_all_block_solve(monkeypatch, p):
    # _cup_checks projects the odd squares by 1 - S^(p-1) and solves in ker S;
    # the route it replaced solved them against every Casimir block.  The
    # squares are zero cochains, so each is replaced by a random degree-2
    # cocycle f^(p-1) r (f^p = 0), with parts outside the principal block
    rng, squares, solved = np.random.default_rng(p), [], []
    cup, solve = verify.cup_product, verify.graded_solve

    def random_cocycle_cup(engine, alg, a_deg, a_vec, b_deg, b_vec):
        out = cup(engine, alg, a_deg, a_vec, b_deg, b_vec)
        if alg.dim == p ** 3 and a_deg == b_deg == 1 and a_vec is b_vec:
            out = alg.module.maps["f"] ** (p - 1) @ rng.integers(0, p, out.size)
            squares.append(out)
        return out

    def recorded_solve(mat, rhs):
        solved.append(solve(mat, rhs))
        return solved[-1]

    monkeypatch.setattr(verify, "cup_product", random_cocycle_cup)
    monkeypatch.setattr(verify, "graded_solve", recorded_solve)
    verify_propositions(p)
    V = np.array(squares).T
    assert V.shape == (p ** 3, p - 1)
    pieces = Sl2Pieces(p)
    want = all_block_principal_parts(pieces.module, V)
    assert want.any() and not np.array_equal(pieces.principal @ want, V)
    assert solved[0].dtype == want.dtype and np.array_equal(solved[0], want)
