"""The full Hochschild table of the first kernel of SL2.

Every graded piece of the truncated symmetric algebra of sl2 is
decomposed (Casimir classes + greedy character peels), projected onto
the principal block, pushed through the Borel route and induced back
up.  The induced characters per degree reproduce the shipped reference
tables; the degree-zero total is checked against the honest invariant
computation, which exceeds the advertised closed form (p-1)/2.

Run:  python3 demos/03_sl2_hochschild_tables.py
"""

from frobcoho import (
    PeriodicCohomology,
    block_projection_principal,
    g1_cohomology_char,
    g1_invariants,
    hh_table,
    sl2,
    summand_labels,
    truncated_sym,
)

p = 5
g = sl2(p)
print(f"== graded pieces and their induced cohomology, p = {p} ==")
print(f"{'n':>2}  {'summands':28s} {'dims of H^0..H^6 (G1 route)'}")
for n in range(3 * (p - 1) + 1):
    piece = truncated_sym(g, n)
    labels = summand_labels(piece).format()
    engine = PeriodicCohomology(block_projection_principal(piece))
    dims = [g1_cohomology_char(engine, d)[0].dim() for d in range(7)]
    print(f"{n:>2}  {labels:28s} {dims}")

print("\n== per-degree totals across all graded pieces ==")
table = hh_table("g1", p, 8)
for d in range(9):
    print(f"  degree {d}: total dim {table.degree_total(d)}")

print("\n== degree-zero cross-check against exact invariants ==")
for q in (2, 3, 5, 7):
    inv = sum(g1_invariants(truncated_sym(sl2(q), n)).dim
              for n in range(3 * (q - 1) + 1))
    total0 = hh_table("g1", q, 0).degree_total(0)
    advertised = (q - 1) // 2 if q > 2 else 5
    print(f"  p={q}: invariants {inv}, table {total0}, closed form {advertised}"
          f"{'  <- documented discrepancy' if inv != advertised else ''}")
