"""Verification suites against the reference decomposition tables.

The package ships one fixture per p in {2, 3, 5, 7} (frobcoho/fixtures)
listing, for every graded piece of the truncated symmetric algebra of
sl2, the claimed direct-sum decomposition and the pattern of its
kernel-cohomology by degree.  verify_appendix recomputes everything
from scratch in one pass over the whole algebra, a piece being a degree:
characters of the graded pieces, the induced cohomology characters per
degree, and socle fingerprints from primitive vectors (closed-form Hom
spaces).  verify_propositions bundles the standalone claims (symmetric
power decompositions, duality pairing ranks, the principal block
structure, the Kostant weights, the Borel and unipotent Hochschild
dimensions, collapse bookkeeping and cup product samples) in one pass
per algebra, each piece a degree, and ranks the duality pairing from
each algebra's own product.

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
from collections import Counter
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
    Sl2Pieces,
    check_maxdeg,
    collapse_check,
    cup_product,
    degree_characters,
    ip_expected_dims,
    t1_invariants,
)
from .fpmatrix import cell_nullities, check_prime, graded_solve, is_prime
from .lie import borel, nilradical, sl2
from .wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    _class_labels,
    casimir_nullities,
    simple_model,
    trivial_module,
)

FIXTURE_PRIMES = (2, 3, 5, 7)
FIXTURE_ENV = "FROBCOHO_FIXTURES"
ALLOWLISTED_FLAGS = frozenset({"hh0-vs-theorem-count", "appendix-p5-n7-exponent"})

# appendix pattern id -> its induced character in cohomological degree d
PATTERNS = {
    "ZERO": lambda d: LaurentCharacter.zero(),
    "KNULL": lambda d: LaurentCharacter.zero() if d % 2 else weyl_chi(d),
    "K_DEG0": lambda d: LaurentCharacter.zero() if d else weyl_chi(0),
    "ODD_IND": lambda d: weyl_chi(d + 1) + weyl_chi(d - 1) if d % 2 else LaurentCharacter.zero(),
    "P2_DELTA": lambda d: weyl_chi(d - 1 if d else 0),
    "P2_NABLA": lambda d: weyl_chi(d + 1),
    "P2_KNULL": weyl_chi,
}


class FixtureError(ValueError):
    """A fixture file that does not parse; the message names the file, and
    the line where one is at fault."""


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
    fam, rest = text.strip().split("(", 1)
    fam = fam.strip()
    if fam not in ("T", "L", "Delta", "Nabla"):
        raise ValueError(f"unknown summand family {fam!r}")
    return fam, int(rest.rstrip(")"))


def load_fixture(p: int) -> AppendixFixture:
    """Load the reference table for p from the fixture directory (the
    FROBCOHO_FIXTURES environment variable overrides the shipped one).
    A missing file raises FileNotFoundError, a malformed one FixtureError."""
    check_prime(p)
    directory = os.environ.get(FIXTURE_ENV) or os.path.join(os.path.dirname(__file__), "fixtures")
    path = os.path.join(directory, f"p{p}.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no fixture for p={p} at {path}")
    rows = []
    seen_p = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FixtureError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("p "):
                seen_p = int(line.split()[1])
                continue
            n_text, labels_text, pattern = (part.strip() for part in line.split("|"))
            row = FixtureRow(int(n_text), tuple(map(_parse_label, labels_text.split(","))),
                             pattern)
        except ValueError:
            raise FixtureError(f"{path}:{lineno}: malformed line {line!r}, expected "
                               "'p P' or 'n | F(m), ... | pattern'") from None
        if pattern not in PATTERNS:
            raise FixtureError(f"{path}:{lineno}: unknown pattern id {pattern!r}")
        rows.append(row)
    if seen_p != p:
        raise FixtureError(f"{path}: fixture file declares p={seen_p}, expected {p}")
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
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern id {pattern!r}")
    return PATTERNS[pattern](degree)


def predicted_socle(summands, p: int) -> dict[tuple[int, int], int]:
    """Weight-graded socle constituents (restricted weight, twist) implied
    by the claimed summands: nonsimple tiltings restrict to projective
    covers with socle at the reflected weight, simples with one digit sit
    at twist 0, two-digit simples split into the two p-twists."""
    out: Counter = Counter()
    for fam, m in summands:
        if fam == "T":
            out[(m, 0) if m <= p - 1 else (2 * p - 2 - m, 0)] += 1
        elif fam == "L" and m <= p - 1:
            out[(m, 0)] += 1
        elif fam == "L":
            m0, m1 = m % p, m // p
            if m1 >= p:
                raise ValueError("summand weight outside the supported range")
            out.update([(m0, p * m1), (m0, -p * m1)])
        elif fam in ("Delta", "Nabla"):
            out.update([(0, 0)] if fam == "Delta" else [(0, 2), (0, -2)])
        else:
            raise ValueError(f"unknown summand family {fam!r}")
    return dict(out)


def synthesize_fixture(p: int) -> AppendixFixture:
    """Reference rows recomputed from scratch for a prime without a
    shipped fixture: summand labels from the Casimir-class peel and the
    cohomology pattern from the parity/range rule of the block structure."""
    if p == 2 or not is_prime(p):
        raise ValueError("synthesis needs an odd prime")
    return _synthesized(Sl2Pieces(p))


def _synthesized(pieces: Sl2Pieces) -> AppendixFixture:
    """synthesize_fixture from the Casimir classes of pieces.S, counted once (casimir_nullities)."""
    p, g, rows = pieces.p, pieces.module.grading, []
    nullities = casimir_nullities(pieces.S)
    for n in range(pieces.top + 1):
        dec = _class_labels(nullities, g, p, g.cell_degrees == n)
        inside = p - 1 <= n <= 2 * (p - 1)
        pattern = ("K_DEG0" if inside else "KNULL") if n % 2 == 0 else ("ODD_IND" if inside else "ZERO")
        labels = tuple((fam, w) for fam, w, mult in dec.entries for _ in range(mult))
        rows.append(FixtureRow(n, labels, pattern))
    return AppendixFixture(p, tuple(rows))


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
        flagged = flag_on_mismatch and name in ALLOWLISTED_FLAGS
        status = "pass" if ok else ("flagged" if flagged else "fail")
        self.checks.append(Check(name, status, str(expected), str(computed)))

    def add_flag(self, name: str, expected, computed):
        self.add(name, False, expected, computed, flag_on_mismatch=True)

    def counts(self) -> tuple[int, int, int]:
        statuses = [c.status for c in self.checks]
        return statuses.count("pass"), statuses.count("fail"), statuses.count("flagged")

    def exit_code(self) -> int:
        _, n_fail, n_flag = self.counts()
        return 1 if n_fail else (2 if n_flag else 0)

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


def verify_appendix(p: int, maxdeg: int = 8, allow_synth: bool = False) -> VerificationReport:
    """Recompute every row of the reference table for p and compare.

    Per row: (1) the character of the graded piece equals the expansion
    of the claimed summands, (2) the induced cohomology character of the
    principal-block part matches the claimed pattern in every degree up
    to maxdeg, (3) the weight-graded socle fingerprint of the piece
    matches the one implied by the claimed summands (fixture primes
    only), from primitive vectors.  The fixture itself is audited first
    (row coverage and the p^3 dimension count).  All rows are read off
    one Sl2Pieces, whose S also counts the Casimir classes of missing rows.
    """
    t0 = time.perf_counter()
    check_maxdeg(maxdeg)
    synthetic = p not in FIXTURE_PRIMES
    if synthetic and not allow_synth:
        raise ValueError(f"no shipped fixture for p={p}; pass allow_synth=True")
    pieces = Sl2Pieces(p)
    fixture = _synthesized(pieces) if synthetic else load_fixture(p)
    report = VerificationReport(suite=f"appendix p={p} maxdeg={maxdeg}")

    top = pieces.top
    covered = sorted(r.n for r in fixture.rows)
    report.add("fixture-row-coverage", covered == list(range(top + 1)),
               f"rows 0..{top}", f"rows {covered[0]}..{covered[-1]} ({len(covered)})")
    total = sum(label_char(fam, m, p).dim() for r in fixture.rows for fam, m in r.summands)
    report.add("fixture-dimension-audit", total == p ** 3, p ** 3, total)

    g1 = [pieces.g1_chars(d) for d in range(maxdeg + 1)]
    socles = {} if synthetic else _socle_fingerprints(pieces.module)
    for row in fixture.rows:
        char = pieces.character(row.n)
        claimed = sum((label_char(fam, m, p) for fam, m in row.summands), LaurentCharacter.zero())
        report.add(f"row{row.n:02d}-summand-character", char == claimed,
                   claimed.serialize(), char.serialize())

        wants = [pattern_char(row.pattern, d, p) for d in range(maxdeg + 1)]
        gots = [g1[d][row.n] for d in range(maxdeg + 1)]
        got = _fmt_dims(f"{c.dim()}{'' if exact else '?'}" for c, exact in gots)
        report.add(f"row{row.n:02d}-cohomology-pattern", gots == [(w, True) for w in wants],
                   f"{row.pattern} dims {_fmt_dims(w.dim() for w in wants)}", f"dims {got}")

        if not synthetic:
            predicted = predicted_socle(row.summands, p)
            computed = socles.get(row.n, {})
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


def _socle_fingerprints(M: WeightModule) -> dict[int, dict[tuple[int, int], int]]:
    """Per degree n, the nonzero dim Hom(L(lam0) (x) tau, piece n) of M
    graded by weight and degree, by (lam0, tau) with lam0 = w mod p and
    tau = w - lam0 for w a weight of the piece, when every lam0 + tau - 2i,
    i <= lam0, is one.  L(lam0) is the baby Verma module Z(lam0) modulo
    f^(lam0+1) v (Jantzen, Representations of Algebraic Groups, II.9), so
    the Hom is {m in cell (w, n): e m = 0, f^(lam0+1) m = 0}, f^p = 0
    covering lam0 = p-1: per cell, the nullity of [E; F^(lam0+1)], one
    reduction per lam0 over the cells of that lam0."""
    p, g, e, F = M.p, M.grading, M.maps["e"], M.maps["f"]
    w, n, lam0 = g.cell_weights.tolist(), g.cell_degrees.tolist(), g.cell_weights % p
    nullity, power, present = np.zeros(len(w), dtype=np.int64), F, set(zip(w, n))
    for k in range(p):  # power = F^(k+1)
        nullity[lam0 == k], power = cell_nullities([e, power], lam0 == k), F @ power
    out: dict[int, dict[tuple[int, int], int]] = {}
    for c in np.flatnonzero(nullity).tolist():
        k = int(lam0[c])
        if all((w[c] - 2 * i, n[c]) in present for i in range(k + 1)):
            out.setdefault(n[c], {})[(k, w[c] - k)] = int(nullity[c])
    return out


def _fmt_socle(d: dict[tuple[int, int], int]) -> str:
    if not d:
        return "none"
    return ",".join(f"L({l})@{t}:{m}" for (l, t), m in sorted(d.items()))


def _fmt_dims(vals) -> str:
    return ",".join(str(v) for v in vals)


# -- the propositions suite ----------------------------------------------


def verify_propositions(p: int) -> VerificationReport:
    """One named check per standalone claim at this prime, in one pass per
    algebra: the truncated symmetric algebras of sl2 (an Sl2Pieces), b and
    u are each built once as one module graded by weight and degree, and
    every per-piece check reads its piece off by degree; the symmetric
    powers of sl2 are read from their monomials' weights alone.  The duality
    ranks come from each algebra's own product (TruncatedSymAlgebra.duality_ranks)."""
    t0, maxdeg = time.perf_counter(), 10
    report = VerificationReport(suite=f"props p={p}")
    g, b, u = sl2(p), borel(p), nilradical(p)
    _sym_checks(report, g)
    pieces = Sl2Pieces(p)
    total, taft, uu = pieces.algebra, TruncatedSymAlgebra(b), TruncatedSymAlgebra(u)

    # multiplication pairing into the top line is nondegenerate
    for name, alg in (("sl2", total), ("b", taft), ("u", uu)):
        degrees = alg.module.grading.degrees
        dims = _fmt_dims(np.bincount(degrees, minlength=alg.top_degree + 1).tolist())
        try:
            ranks = _fmt_dims(alg.duality_ranks())
        except ValueError as exc:  # the product pairs unmatched weights
            ranks = str(exc)
        report.add(f"duality-full-rank-{name}", ranks == dims, dims, ranks)

    # principal block structure of the graded pieces (the identity for p = 2)
    if p >= 3:
        upper = range(p - 1, 2 * p - 1)
        want = [(tilting_char(2 * p - 2, p) if n in upper else weyl_chi(0)) if n % 2 == 0
                else (simple_char(2 * p - 2, p) if n in upper else LaurentCharacter.zero())
                for n in range(pieces.top + 1)]
        g0 = pieces.engine.M.grading
        got = degree_characters(g0.weights, g0.degrees, pieces.top)
        report.add("principal-block-structure", got == want,
                   "k / 0 / T(2p-2) / L(2p-2) by parity and range", _fmt_dims(c.dim() for c in got))

    # Kostant weights for the one-dimensional nilradical
    line, zero = LaurentCharacter.line, LaurentCharacter.zero()
    ok = all([engine.u_characters(j) for j in range(3)] == [[line(-lam)], [line(lam + 2)], [zero]]
             for lam in range(p) for engine in [PeriodicCohomology(simple_model(lam, p))])
    report.add("kostant-weights", ok, "H0 at -m, H1 at m+2, 0 above", "as expected" if ok else "mismatch")

    # Borel Hochschild dimensions and ring samples
    taft_engine = PeriodicCohomology(taft.module)
    taft_dims = [len(taft_engine.t1_representatives(d)) for d in range(maxdeg + 1)]
    want = [1 if p >= 3 else 4] * (maxdeg + 1)
    report.add("taft-b1-dims", taft_dims == want, _fmt_dims(want), _fmt_dims(taft_dims))

    if p >= 3:
        char1 = t1_invariants(taft_engine.character(1), p)
        report.add("taft-deg1-weight", char1 == LaurentCharacter.line(0),
                   "0:1", char1.serialize())
        x1 = taft_engine.t1_representatives(1)[0][0]
        zero = taft_engine.is_coboundary(2, cup_product(taft_engine, taft, 1, x1, 1, x1))
        report.add("taft-deg1-square-zero", zero, "zero class", "zero class" if zero else "nonzero")
    # powers of the degree-2 class (degree 1 for p = 2) stay nonzero
    step, unit, ok = (2 if p >= 3 else 1), taft.unit_vector(), True
    power = unit
    for k in range(1, 6):
        power = cup_product(taft_engine, taft, step * (k - 1), power, step, unit)
        ok = bool(taft_engine.class_coordinates(step * k, power).any()) and ok
    report.add(f"taft-deg{step}-powers", ok, "nonzero through power 5",
               "nonzero" if ok else "vanished early")

    # unipotent kernel: trivial adjoint action, p per degree
    u_engine = PeriodicCohomology(uu.module)
    u_dims = [len(u_engine.representatives(d)) for d in range(9)]
    report.add("hh-u1-dims", u_dims == [p] * 9, _fmt_dims([p] * 9), _fmt_dims(u_dims))

    if p >= 3:
        rows = collapse_check(trivial_module(g), 8)
        report.add("collapse-trivial-coefficients",
                   all(r.defect == 0 for r in rows),
                   "defect 0 everywhere", _fmt_dims(r.defect for r in rows))

        rows0 = pieces.engine.collapse_rows(8)  # on the principal block of the whole algebra
        wanted = ip_expected_dims(p, 8)
        report.add("collapse-defect-vs-ideal",
                   [r.defect for r in rows0] == wanted,
                   _fmt_dims(wanted), _fmt_dims(r.defect for r in rows0))

        e2tot = [r.e2_total for r in taft_engine.collapse_rows(maxdeg)]
        report.add("taft-e2-collapse", e2tot == taft_dims, _fmt_dims(taft_dims), _fmt_dims(e2tot))

        _cup_checks(report, pieces)

    # identifications of the Borel graded pieces as twisted simples
    gb = taft.module.grading
    ok = degree_characters(gb.weights, gb.degrees, taft.top_degree) == [
        simple_char(min(n, 2 * p - 2 - n), p) * LaurentCharacter.line(-n)
        for n in range(taft.top_degree + 1)]
    report.add("borel-row-identifications", ok,
               "L(n) (x) -n below p, reflected above", "as expected" if ok else "mismatch")

    # degree-zero bookkeeping: exact invariants, cell by cell, against the induction route
    inv_total = int(cell_nullities([total.module.maps[x] for x in g.generators]).sum())
    induced = sum(c.dim() for c, _ in pieces.g1_chars(0))
    report.add("degree0-oracle", inv_total == induced, inv_total, induced)

    advertised = (p - 1) // 2 if p >= 3 else 5
    report.add("hh0-vs-theorem-count", inv_total == advertised, advertised, inv_total,
               flag_on_mismatch=True)

    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _sym_checks(report: VerificationReport, g) -> None:
    """The symmetric powers of sl2 up to degree 2p-2, read from their monomials' weights."""
    p = g.p
    chars = [LaurentCharacter.from_weights(2 * a - 2 * c for a in range(n + 1) for c in range(n + 1 - a))
             for n in range(2 * p - 1)]  # e^a h^(n-a-c) f^c has weight 2a - 2c
    # symmetric powers decompose into costandard characters stepping by 4
    for n in range(0, 2 * p - 1):
        expected = [("Nabla", 2 * n - 4 * q, 1) for q in range(n // 2 + 1)]
        dec = decompose_nabla(chars[n])
        report.add(f"sym-nabla-n{n:02d}", dec.entries == expected and not dec.virtual,
                   DecompList(expected).format(), dec.format())

    # for p >= 3 and n <= p-1 the symmetric powers are tilting; up to the
    # middle of the range every factor is a simple tilting module
    if p >= 3:
        for n in range(p):
            try:
                dec = decompose_tilting_greedy(chars[n], p)
                ok = all(m > 0 for _, _, m in dec.entries)
                if n <= (p - 1) // 2:
                    want = [("T", 2 * n - 4 * q, 1) for q in range(n // 2 + 1)]
                    ok = ok and dec.entries == want
                report.add(f"sym-tilting-n{n}", ok, "nonnegative tilting peel", dec.format())
            except ValueError as exc:
                report.add(f"sym-tilting-n{n}", False, "nonnegative tilting peel", str(exc))


def _cup_checks(report: VerificationReport, pieces: Sl2Pieces) -> None:
    """Ring samples on the principal-block coefficients (p >= 3).

    Every T_1 class is read from pieces.engine and lifted by ker S: L(lam)
    has B_1-cohomology only if p divides -lam (ker f) or lam + 2 (coker f), so
    for lam in {0, p - 2}, the principal block.  A product's principal part is
    its image under 1 - S^(p-1) (S^p = S: the Casimir splits), solved in ker S."""
    p, total, principal, S = pieces.p, pieces.algebra, pieces.principal, pieces.S
    engine = PeriodicCohomology(total.module)  # cup_product's argument only
    degrees = pieces.engine.M.grading.degrees

    # the invariant quadratic element 4ef + h^2 and its powers
    x_rep = np.zeros(total.dim, dtype=np.int64)
    x_rep[total._at_code[[p * p + 1, 2 * p]]] = 4 % p, 1  # ef and h^2, by their base-p codes
    powers = [total.unit_vector()]
    for _ in range(p):
        powers.append(total.mult(powers[-1], x_rep))
    ok = engine.is_cocycle(0, x_rep) and all(v.any() for v in powers[1:p]) and not powers[p].any()
    report.add("cup-x-powers", ok, f"x^k nonzero for k<{p}, x^{p}=0",
               "as expected" if ok else "mismatch")

    # squares of the surviving odd classes; their principal parts come from
    # the projector and one solve in the principal block
    odd_reps = []
    for vec, w in pieces.engine.t1_representatives(1):
        nm = "z" if w == 2 * p - 2 else "z'"
        odd_reps.append((f"{nm}@{degrees[np.flatnonzero(vec)[0]]}", principal @ vec))
    squares = np.array([cup_product(engine, total, 1, va, 1, va) for _, va in odd_reps]).T
    coords = graded_solve(principal, (squares - S ** (p - 1) @ squares) % p)

    # one-dimensional kernel-invariant line per even internal degree
    by_degree = Counter(int(degrees[np.flatnonzero(vec)[0]])
                        for vec, _ in pieces.engine.t1_representatives(0))
    expect = {2 * i: 1 for i in range(0, 3 * (p - 1) // 2 + 1)}
    report.add("invariant-line-per-even-degree", by_degree == expect,
               _fmt_socle({(k, 0): v for k, v in sorted(expect.items())}),
               _fmt_socle({(k, 0): v for k, v in sorted(by_degree.items())}))

    # u-cohomology basis pattern per internal degree (weights 0 and 2p)
    line, zero, upper = LaurentCharacter.line, LaurentCharacter.zero(), range(p - 1, 2 * p - 1)
    rows = range(pieces.top + 1)
    want = [[line(0) if n % 2 == 0 else zero for n in rows],
            [(line(2 * p) if n % 2 == 0 else line(2 * p) + line(0)) if n in upper else zero
             for n in rows]]
    got = [[t1_invariants(char, p) for char in pieces.engine.u_characters(j)] for j in (0, 1)]
    report.add("u-basis-pattern", got == want,
               "x line even rows; y at 2p on upper even rows; z,z' at 2p,0 on upper odd rows",
               "as expected" if got == want else "mismatch")

    # the f^(p-1)-type classes live on the E2 page only: the row carrying
    # them restricts projectively, so nothing survives in positive degree
    e2_odd = t1_invariants(pieces.engine.u_characters(1)[p - 1], p)
    died = all(t1_invariants(pieces.engine.characters(d)[p - 1], p).is_zero() for d in (1, 2, 3))
    report.add("y-family-dies-at-e3",
               e2_odd == LaurentCharacter.line(2 * p) and died,
               "one E2 class at weight 2p, no surviving positive degree",
               f"e2={e2_odd.serialize()} survivors={'none' if died else 'some'}")

    # squares of the surviving odd classes vanish; the mixed product of a
    # weight-(2p-2) class with its weight-(-2) partner is generally NOT
    # zero (it drops filtration onto the invariant line of the top), so
    # only squares are asserted here.
    vanish = [pieces.engine.is_coboundary(2, col) for col in coords.T]
    ok = len(odd_reps) == p - 1 and all(vanish)
    detail = [f"{na}^2={'0' if v else 'X'}" for (na, _), v in zip(odd_reps, vanish)]
    report.add("cup-odd-squares-zero", ok, f"{p - 1} odd classes, squares zero",
               " ".join(detail))

    # sample commutation of an even class with an odd one: x.z and z.x are one
    # vector (mult commutes and both diagonal components are 1 (x) 1), principal
    # as x acts by a module map; this guards cup_product's sign and diagonal only
    left = cup_product(engine, total, 0, x_rep, 1, odd_reps[0][1])
    right = cup_product(engine, total, 1, odd_reps[0][1], 0, x_rep)
    same = pieces.engine.is_coboundary(1, graded_solve(principal, (left - right) % p))
    report.add("cup-even-odd-commute", same, "x.z = z.x", "equal" if same else "different")
