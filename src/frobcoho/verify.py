"""Verification suites against the reference decomposition tables.

The package ships one fixture per p in {2, 3, 5, 7} (frobcoho/fixtures)
listing, for every graded piece of the truncated symmetric algebra of
sl2, the claimed direct-sum decomposition and the pattern of its
kernel-cohomology by degree.  verify_appendix recomputes everything
from scratch: characters of the graded pieces, the induced cohomology
characters per degree, and socle fingerprints through weight-graded Hom
spaces.  verify_propositions bundles the standalone claims: symmetric
power decompositions, duality pairing ranks, the principal block
structure, the Kostant weights, the Borel and unipotent Hochschild
dimensions, collapse bookkeeping and cup product samples.

Two flagged discrepancies are expected and allowlisted: the computed
degree-zero Hochschild dimension exceeds the advertised closed-form
count (3p-1)/2 vs (p-1)/2 for odd p, and the p = 5 row n = 7 pattern
exponent in the printed source of the tables disagrees with the
recomputed one (the fixture stores the recomputed form).  Reports carry
pass/fail/flagged per check; flagged entries outside the allowlist are
failures.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import (
    DecompList,
    LaurentCharacter,
    decompose_nabla,
    decompose_tilting_greedy,
    simple_char,
    tilting_char,
    weyl_chi,
)
from .cohomology import (
    PeriodicCohomology,
    _collapse_rows,
    collapse_check,
    cup_product,
    e2_page,
    g1_cohomology_char,
    ip_expected_dims,
    t1_invariants,
    u_cohomology,
)
from .fpmatrix import GradedMap, graded_image, graded_solve, is_prime
from .lie import borel, nilradical, sl2
from .wmodules import (
    TruncatedSymAlgebra,
    _class_labels,
    _principal_part,
    block_projection_principal,
    casimir_blocks,
    duality_pairing_rank,
    g1_invariants,
    module_hom_dim,
    principal_block_projector,
    simple_model,
    sym_power,
    trivial_module,
    truncated_sym,
    weight_line,
)

FIXTURE_PRIMES = (2, 3, 5, 7)
FIXTURE_ENV = "FROBCOHO_FIXTURES"
ALLOWLISTED_FLAGS = frozenset({"hh0-vs-theorem-count", "appendix-p5-n7-exponent"})

PATTERNS = ("ZERO", "KNULL", "K_DEG0", "ODD_IND", "P2_DELTA", "P2_NABLA", "P2_KNULL")


@dataclass(frozen=True)
class FixtureRow:
    n: int
    summands: tuple[tuple[str, int], ...]
    pattern: str


@dataclass(frozen=True)
class AppendixFixture:
    p: int
    rows: tuple[FixtureRow, ...]

    def row(self, n: int) -> FixtureRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)


def _parse_label(text: str) -> tuple[str, int]:
    text = text.strip()
    fam, rest = text.split("(", 1)
    return fam.strip(), int(rest.rstrip(")"))


def load_fixture(p: int, directory: str | None = None) -> AppendixFixture:
    """Load the reference table for p from the fixture directory (the
    FROBCOHO_FIXTURES environment variable overrides the shipped one)."""
    if directory is None:
        directory = os.environ.get(FIXTURE_ENV) or os.path.join(
            os.path.dirname(__file__), "fixtures")
    path = os.path.join(directory, f"p{p}.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no fixture for p={p} at {path}")
    rows = []
    seen_p = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("p "):
                seen_p = int(line.split()[1])
                continue
            n_text, labels_text, pattern = (part.strip() for part in line.split("|"))
            labels = tuple(_parse_label(tok) for tok in labels_text.split(","))
            if pattern not in PATTERNS:
                raise ValueError(f"unknown pattern id {pattern!r}")
            rows.append(FixtureRow(int(n_text), labels, pattern))
    if seen_p != p:
        raise ValueError(f"fixture file declares p={seen_p}, expected {p}")
    return AppendixFixture(p, tuple(rows))


def label_char(fam: str, m: int, p: int) -> LaurentCharacter:
    if fam == "T":
        return tilting_char(m, p)
    if fam == "L":
        return simple_char(m, p)
    if fam in ("Delta", "Nabla"):
        return weyl_chi(m)
    raise ValueError(f"unknown summand family {fam!r}")


def pattern_char(pattern: str, degree: int, p: int) -> LaurentCharacter:
    """Predicted induced character of the pattern at one degree."""
    if pattern == "ZERO":
        return LaurentCharacter.zero()
    if pattern == "KNULL":
        return weyl_chi(degree) if degree % 2 == 0 else LaurentCharacter.zero()
    if pattern == "K_DEG0":
        return weyl_chi(0) if degree == 0 else LaurentCharacter.zero()
    if pattern == "ODD_IND":
        if degree % 2 == 0:
            return LaurentCharacter.zero()
        return weyl_chi(degree + 1) + weyl_chi(degree - 1)
    if pattern == "P2_KNULL":
        return weyl_chi(degree)
    if pattern == "P2_DELTA":
        return weyl_chi(0) if degree == 0 else weyl_chi(degree - 1)
    if pattern == "P2_NABLA":
        return weyl_chi(1) if degree == 0 else weyl_chi(degree + 1)
    raise ValueError(f"unknown pattern id {pattern!r}")


def predicted_socle(summands, p: int) -> dict[tuple[int, int], int]:
    """Weight-graded socle constituents (restricted weight, twist) implied
    by the claimed summands: nonsimple tiltings restrict to projective
    covers with socle at the reflected weight, simples with one digit sit
    at twist 0, two-digit simples split into the two p-twists."""
    out: dict[tuple[int, int], int] = {}

    def add(key):
        out[key] = out.get(key, 0) + 1

    for fam, m in summands:
        if fam == "T":
            add((m, 0) if m <= p - 1 else (2 * p - 2 - m, 0))
        elif fam == "L":
            if m <= p - 1:
                add((m, 0))
            else:
                m0, m1 = m % p, m // p
                if m1 >= p:
                    raise ValueError("summand weight outside the supported range")
                add((m0, p * m1))
                add((m0, -p * m1))
        elif fam == "Delta":
            add((0, 0))
        elif fam == "Nabla":
            add((0, 2))
            add((0, -2))
        else:
            raise ValueError(f"unknown summand family {fam!r}")
    return out


def synthesize_fixture(p: int) -> AppendixFixture:
    """Reference rows recomputed from scratch for a prime without a
    shipped fixture: summand labels from the Casimir-class peel and the
    cohomology pattern from the parity/range rule of the block structure."""
    return AppendixFixture(p, tuple(_synthesized_row(p, n, blocks)
                                    for n, (_, blocks) in enumerate(_casimir_pieces(p))))


def _casimir_pieces(p: int):
    """Per degree n in turn, the graded piece truncated_sym(sl2(p), n) and
    its Casimir blocks."""
    if p == 2 or not is_prime(p):
        raise ValueError("synthesis needs an odd prime")
    g = sl2(p)
    for n in range(3 * (p - 1) + 1):
        piece = truncated_sym(g, n)
        yield piece, casimir_blocks(piece)


def _synthesized_row(p: int, n: int, blocks) -> FixtureRow:
    dec = _class_labels(blocks, p)
    inside = p - 1 <= n <= 2 * (p - 1)
    if n % 2 == 0:
        pattern = "K_DEG0" if inside else "KNULL"
    else:
        pattern = "ODD_IND" if inside else "ZERO"
    labels = tuple((fam, w) for fam, w, mult in dec.entries for _ in range(mult))
    return FixtureRow(n, labels, pattern)


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # pass | fail | flagged
    expected: str
    computed: str


@dataclass
class VerificationReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    runtime_ms: int = 0

    def add(self, name: str, ok: bool, expected, computed, flag_on_mismatch: bool = False):
        if ok:
            status = "pass"
        elif flag_on_mismatch and name in ALLOWLISTED_FLAGS:
            status = "flagged"
        else:
            status = "fail"
        self.checks.append(Check(name, status, str(expected), str(computed)))

    def add_flag(self, name: str, expected, computed):
        status = "flagged" if name in ALLOWLISTED_FLAGS else "fail"
        self.checks.append(Check(name, status, str(expected), str(computed)))

    def counts(self) -> tuple[int, int, int]:
        n_pass = sum(1 for c in self.checks if c.status == "pass")
        n_fail = sum(1 for c in self.checks if c.status == "fail")
        n_flag = sum(1 for c in self.checks if c.status == "flagged")
        return n_pass, n_fail, n_flag

    def exit_code(self) -> int:
        _, n_fail, n_flag = self.counts()
        if n_fail:
            return 1
        if n_flag:
            return 2
        return 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"name": c.name, "status": c.status,
                 "expected": c.expected, "computed": c.computed}
                for c in self.checks
            ],
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            lines.append(f"{c.status.upper():7s} {c.name}  expected={c.expected}  computed={c.computed}")
        n_pass, n_fail, n_flag = self.counts()
        lines.append(f"result: pass={n_pass} fail={n_fail} flagged={n_flag} exit={self.exit_code()}")
        return "\n".join(lines) + "\n"


# -- the appendix suite ------------------------------------------------------


def verify_appendix(p: int, maxdeg: int = 8, fixture_dir: str | None = None,
                    allow_synth: bool = False) -> VerificationReport:
    """Recompute every row of the reference table for p and compare.

    Per row: (1) the character of the graded piece equals the expansion
    of the claimed summands, (2) the induced cohomology character of the
    principal-block part matches the claimed pattern in every degree up
    to maxdeg, (3) the weight-graded socle fingerprint of the piece
    matches the one implied by the claimed summands (fixture primes
    only).  The fixture itself is audited first (row coverage and the
    p^3 dimension count).
    """
    t0 = time.perf_counter()
    synthetic = p not in FIXTURE_PRIMES
    if synthetic and not allow_synth:
        raise ValueError(f"no shipped fixture for p={p}; pass allow_synth=True")
    if synthetic:  # one Casimir split per piece serves its row and its checks
        rows, built = [], {}
        for n, (piece, blocks) in enumerate(_casimir_pieces(p)):
            rows.append(_synthesized_row(p, n, blocks))
            built[n] = (piece.character(), _principal_part(piece, blocks))
        fixture = AppendixFixture(p, tuple(rows))
    else:
        fixture = load_fixture(p, fixture_dir)
    report = VerificationReport(suite=f"appendix p={p} maxdeg={maxdeg}")

    top = 3 * (p - 1)
    covered = sorted(r.n for r in fixture.rows)
    report.add("fixture-row-coverage", covered == list(range(top + 1)),
               f"rows 0..{top}", f"rows {covered[0]}..{covered[-1]} ({len(covered)})")
    total = sum(label_char(fam, m, p).dim() for r in fixture.rows for fam, m in r.summands)
    report.add("fixture-dimension-audit", total == p ** 3, p ** 3, total)

    g = sl2(p)
    for row in fixture.rows:
        if synthetic:
            char, principal = built[row.n]
        else:
            piece = truncated_sym(g, row.n)
            char, principal = piece.character(), block_projection_principal(piece)
        claimed = LaurentCharacter.zero()
        for fam, m in row.summands:
            claimed = claimed + label_char(fam, m, p)
        report.add(f"row{row.n:02d}-summand-character", char == claimed,
                   claimed.serialize(), char.serialize())

        engine = PeriodicCohomology(principal)
        ok = True
        detail_exp, detail_got = [], []
        for d in range(maxdeg + 1):
            want = pattern_char(row.pattern, d, p)
            got, exact = g1_cohomology_char(engine, d)
            if got != want or not exact:
                ok = False
            detail_exp.append(str(want.dim()))
            detail_got.append(str(got.dim()) + ("" if exact else "?"))
        report.add(f"row{row.n:02d}-cohomology-pattern", ok,
                   f"{row.pattern} dims {','.join(detail_exp)}",
                   f"dims {','.join(detail_got)}")

        if not synthetic:
            predicted = predicted_socle(row.summands, p)
            weight_set = set(piece.weights)
            maxw = max((abs(w) for w in piece.weights), default=0)
            computed: dict[tuple[int, int], int] = {}
            span = maxw // p + 1
            for lam0 in range(p):
                for nu in range(-span, span + 1):
                    tau = p * nu
                    needed = [lam0 + tau - 2 * i for i in range(lam0 + 1)]
                    if any(w not in weight_set for w in needed):
                        continue
                    model = simple_model(lam0, p)
                    if tau:
                        model = model.tensor(weight_line(g, tau))
                    d = module_hom_dim(model, piece)
                    if d:
                        computed[(lam0, tau)] = d
            report.add(f"row{row.n:02d}-socle-fingerprint", computed == predicted,
                       _fmt_socle(predicted), _fmt_socle(computed))

    if p == 5 and not synthetic:
        # the printed source of the p=5 table writes the n=7 exponent as
        # S^deg where every parallel row has S^((deg-1)/2); the fixture and
        # the computation both use the latter, so the deviation is recorded
        # here rather than as a row failure.
        report.add_flag("appendix-p5-n7-exponent",
                        "printed exponent deg on row n=7",
                        "recomputed exponent (deg-1)/2 (fixture form)")

    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _fmt_socle(d: dict[tuple[int, int], int]) -> str:
    if not d:
        return "none"
    return ",".join(f"L({l})@{t}:{m}" for (l, t), m in sorted(d.items()))


def _fmt_dims(vals) -> str:
    return ",".join(str(v) for v in vals)


# -- the propositions suite ----------------------------------------------


def verify_propositions(p: int, maxdeg: int = 10) -> VerificationReport:
    """One named check per standalone claim at this prime."""
    t0 = time.perf_counter()
    report = VerificationReport(suite=f"props p={p}")
    g = sl2(p)
    b = borel(p)
    u = nilradical(p)

    # symmetric powers decompose into costandard characters stepping by 4
    for n in range(0, 2 * p - 1):
        expected = [("Nabla", 2 * n - 4 * q, 1) for q in range(n // 2 + 1)]
        dec = decompose_nabla(sym_power(g, n).character())
        report.add(f"sym-nabla-n{n:02d}", dec.entries == expected and not dec.virtual,
                   DecompList(expected).format(), dec.format())

    # for p >= 3 and n <= p-1 the symmetric powers are tilting; up to the
    # middle of the range every factor is a simple tilting module
    if p >= 3:
        for n in range(p):
            char = sym_power(g, n).character()
            try:
                dec = decompose_tilting_greedy(char, p)
                ok = all(m > 0 for _, _, m in dec.entries)
                if n <= (p - 1) // 2:
                    want = [("T", 2 * n - 4 * q, 1) for q in range(n // 2 + 1)]
                    ok = ok and dec.entries == want
                report.add(f"sym-tilting-n{n}", ok, "nonnegative tilting peel", dec.format())
            except ValueError as exc:
                report.add(f"sym-tilting-n{n}", False, "nonnegative tilting peel", str(exc))

    # the graded pieces of each truncated symmetric algebra, by degree
    pieces = {name: [truncated_sym(alg, i) for i in range((p - 1) * alg.dim + 1)]
              for name, alg in (("sl2", g), ("b", b), ("u", u))}

    # multiplication pairing into the top line is nondegenerate
    for name, alg in (("sl2", g), ("b", b), ("u", u)):
        ranks = [duality_pairing_rank(alg, i) for i in range(len(pieces[name]))]
        dims = [piece.dim for piece in pieces[name]]
        report.add(f"duality-full-rank-{name}", ranks == dims, _fmt_dims(dims), _fmt_dims(ranks))

    # principal block structure of the graded pieces (the identity for p = 2)
    pieces0 = [block_projection_principal(piece) for piece in pieces["sl2"]]
    engines0 = [PeriodicCohomology(piece0) for piece0 in pieces0]
    if p >= 3:
        ok = True
        got = []
        for n, piece0 in enumerate(pieces0):
            inside = p - 1 <= n <= 2 * (p - 1)
            if n % 2 == 0:
                want = tilting_char(2 * p - 2, p) if inside else weyl_chi(0)
            else:
                want = simple_char(2 * p - 2, p) if inside else LaurentCharacter.zero()
            char0 = piece0.character()
            got.append(str(char0.dim()))
            if char0 != want:
                ok = False
        report.add("principal-block-structure", ok,
                   "k / 0 / T(2p-2) / L(2p-2) by parity and range", _fmt_dims(got))

    # Kostant weights for the one-dimensional nilradical
    ok = all(u_cohomology(L, 0) == LaurentCharacter.line(-lam)
             and u_cohomology(L, 1) == LaurentCharacter.line(lam + 2)
             and u_cohomology(L, 2).is_zero()
             for lam, L in ((lam, simple_model(lam, p)) for lam in range(p)))
    report.add("kostant-weights", ok, "H0 at -m, H1 at m+2, 0 above", "as expected" if ok else "mismatch")

    # Borel Hochschild dimensions and ring samples
    taft = TruncatedSymAlgebra(b)
    taft_engine = PeriodicCohomology(taft.module)
    taft_dims = [t1_invariants(taft_engine.character(d), p).dim() for d in range(maxdeg + 1)]
    want = [1 if p >= 3 else 4] * (maxdeg + 1)
    report.add("taft-b1-dims", taft_dims == want, _fmt_dims(want), _fmt_dims(taft_dims))

    if p >= 3:
        deg1 = taft_engine.t1_representatives(1)
        char1 = t1_invariants(taft_engine.character(1), p)
        report.add("taft-deg1-weight", char1 == LaurentCharacter.line(0),
                   "0:1", char1.serialize())
        x1, _ = deg1[0]
        sq = cup_product(taft_engine, taft, 1, x1, 1, x1)
        report.add("taft-deg1-square-zero", taft_engine.is_coboundary(2, sq),
                   "zero class", "zero class" if taft_engine.is_coboundary(2, sq) else "nonzero")
    # powers of the degree-2 class (degree 1 for p = 2) stay nonzero
    step, unit, ok = (2 if p >= 3 else 1), taft.unit_vector(), True
    power = unit
    for k in range(1, 6):
        power = cup_product(taft_engine, taft, step * (k - 1), power, step, unit)
        ok = bool(taft_engine.class_coordinates(step * k, power).any()) and ok
    report.add(f"taft-deg{step}-powers", ok, "nonzero through power 5",
               "nonzero" if ok else "vanished early")

    # unipotent kernel: trivial adjoint action, p per degree
    uu = TruncatedSymAlgebra(u)
    u_engine = PeriodicCohomology(uu.module)
    u_dims = [u_engine.character(d).dim() for d in range(9)]
    report.add("hh-u1-dims", u_dims == [p] * 9, _fmt_dims([p] * 9), _fmt_dims(u_dims))

    if p >= 3:
        triv = trivial_module(g)
        rows = collapse_check(triv, 8)
        report.add("collapse-trivial-coefficients",
                   all(r.defect == 0 for r in rows),
                   "defect 0 everywhere", _fmt_dims(r.defect for r in rows))

        # one Casimir split of the whole algebra: the projector, and the
        # principal block as a submodule on the projector's image
        total = TruncatedSymAlgebra(g)
        proj = principal_block_projector(total.module)
        sub_cols = graded_image(proj)
        total0 = total.module.submodule(sub_cols, prefix="pb")
        engine0 = PeriodicCohomology(total0)
        rows0 = _collapse_rows(engine0, 8)
        wanted = ip_expected_dims(p, 8)
        report.add("collapse-defect-vs-ideal",
                   [r.defect for r in rows0] == wanted,
                   _fmt_dims(wanted), _fmt_dims(r.defect for r in rows0))

        e2tot = [e2_page(taft.module, d // 2, d % 2).dim() for d in range(maxdeg + 1)]
        report.add("taft-e2-collapse", e2tot == taft_dims, _fmt_dims(taft_dims), _fmt_dims(e2tot))

        _cup_checks(report, p, total, proj, (sub_cols, engine0), engines0)

    # identifications of the Borel graded pieces as twisted simples
    ok = all(piece.character() == simple_char(min(n, 2 * p - 2 - n), p) * LaurentCharacter.line(-n)
             for n, piece in enumerate(pieces["b"]))
    report.add("borel-row-identifications", ok,
               "L(n) (x) -n below p, reflected above", "as expected" if ok else "mismatch")

    # degree-zero bookkeeping: exact invariants against the induction route
    inv_total = sum(g1_invariants(piece).dim for piece in pieces["sl2"])
    induced = sum(g1_cohomology_char(engine, 0)[0].dim() for engine in engines0)
    report.add("degree0-oracle", inv_total == induced, inv_total, induced)

    if p >= 3:
        advertised = (p - 1) // 2
        report.add("hh0-vs-theorem-count", inv_total == advertised,
                   advertised, inv_total, flag_on_mismatch=True)
    else:
        report.add("hh0-vs-theorem-count", inv_total == 5, 5, inv_total,
                   flag_on_mismatch=True)

    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _cup_checks(report: VerificationReport, p: int, total: TruncatedSymAlgebra,
                proj: GradedMap, principal, engines0) -> None:
    """Ring samples on the principal-block coefficients (p >= 3).

    proj is the principal-block projector of total.module and principal
    its image as (column set, PeriodicCohomology of the submodule);
    engines0 are the engines on the principal-block projections of the
    graded pieces, by degree."""
    engine = PeriodicCohomology(total.module)

    # the invariant quadratic element 4ef + h^2 and its powers
    idx_ef = total.index[(1, 0, 1)]
    idx_h2 = total.index[(0, 2, 0)]
    x_rep = np.zeros(total.dim, dtype=np.int64)
    x_rep[idx_ef] = 4 % p
    x_rep[idx_h2] = 1
    ok = engine.is_cocycle(0, x_rep)
    powers_ok = True
    power = total.unit_vector()
    for k in range(1, p):
        power = total.mult(power, x_rep)
        if not power.any():
            powers_ok = False
    vanish = total.mult(power, x_rep)
    report.add("cup-x-powers", ok and powers_ok and not vanish.any(),
               f"x^k nonzero for k<{p}, x^{p}=0",
               "as expected" if (ok and powers_ok and not vanish.any()) else "mismatch")

    # one-dimensional kernel-invariant line per even internal degree
    h0 = engine.t1_representatives(0)
    by_degree: dict[int, int] = {}
    for vec, _ in h0:
        pvec = proj @ vec
        if not pvec.any():
            continue
        degs = {total.degrees[i] for i in np.nonzero(pvec)[0]}
        d = degs.pop()
        by_degree[d] = by_degree.get(d, 0) + 1
    expect = {2 * i: 1 for i in range(0, 3 * (p - 1) // 2 + 1)}
    report.add("invariant-line-per-even-degree", by_degree == expect,
               _fmt_socle({(k, 0): v for k, v in sorted(expect.items())}),
               _fmt_socle({(k, 0): v for k, v in sorted(by_degree.items())}))

    # u-cohomology basis pattern per internal degree (weights 0 and 2p)
    ok = True
    for n, piece0 in enumerate(e.M for e in engines0):
        h0c = t1_invariants(u_cohomology(piece0, 0), p)
        h1c = t1_invariants(u_cohomology(piece0, 1), p)
        inside = p - 1 <= n <= 2 * (p - 1)
        if n % 2 == 0:
            want0 = LaurentCharacter.line(0)
            want1 = LaurentCharacter.line(2 * p) if inside else LaurentCharacter.zero()
        else:
            want0 = LaurentCharacter.zero()
            want1 = (LaurentCharacter.line(2 * p) + LaurentCharacter.line(0)
                     if inside else LaurentCharacter.zero())
        if h0c != want0 or h1c != want1:
            ok = False
    report.add("u-basis-pattern", ok,
               "x line even rows; y at 2p on upper even rows; z,z' at 2p,0 on upper odd rows",
               "as expected" if ok else "mismatch")

    # the f^(p-1)-type classes live on the E2 page only: the row carrying
    # them restricts projectively, so nothing survives in positive degree
    row_engine = engines0[p - 1]
    e2_odd = t1_invariants(u_cohomology(row_engine.M, 1), p)
    died = all(t1_invariants(row_engine.character(d), p).is_zero() for d in (1, 2, 3))
    report.add("y-family-dies-at-e3",
               e2_odd == LaurentCharacter.line(2 * p) and died,
               "one E2 class at weight 2p, no surviving positive degree",
               f"e2={e2_odd.serialize()} survivors={'none' if died else 'some'}")

    # squares of the surviving odd classes vanish; the mixed product of a
    # weight-(2p-2) class with its weight-(-2) partner is generally NOT
    # zero (it drops filtration onto the invariant line of the top), so
    # only squares are asserted here.
    odd_reps = []
    for vec, w in engine.t1_representatives(1):
        degs = sorted({total.degrees[i] for i in np.nonzero(vec)[0]})
        nm = "z" if w == 2 * p - 2 else "z'"
        odd_reps.append((f"{nm}@{degs[0]}", vec))
    sub_cols, sub_engine = principal
    ok = len(odd_reps) == p - 1
    detail = []
    for na, va in odd_reps:
        cocycle = cup_product(engine, total, 1, va, 1, va)
        projected = proj @ cocycle
        coords = graded_solve(sub_cols, projected)
        zero = sub_engine.is_coboundary(2, coords)
        detail.append(f"{na}^2={'0' if zero else 'X'}")
        ok = ok and zero
    report.add("cup-odd-squares-zero", ok, f"{p - 1} odd classes, squares zero",
               " ".join(detail))

    # sample commutation of an even class with an odd one
    z_vec = odd_reps[0][1]
    left = cup_product(engine, total, 0, x_rep, 1, z_vec)
    right = cup_product(engine, total, 1, z_vec, 0, x_rep)
    same = engine.is_coboundary(1, (left - right) % p)
    report.add("cup-even-odd-commute", same, "x.z = z.x", "equal" if same else "different")
