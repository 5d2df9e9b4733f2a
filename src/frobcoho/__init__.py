"""Exact verification engine for the Hochschild cohomology of the first
Frobenius kernels of SL2 and its Borel/unipotent subgroups.

Everything is computed over F_p with exact linear algebra: modules are
built with explicit action matrices and integer torus weights, the
kernel cohomology comes from twisted periodic complexes, and the
results are checked against the reference tables shipped under
frobcoho/fixtures.
"""

from .characters import (
    DecompList,
    LaurentCharacter,
    decompose_nabla,
    decompose_simples,
    decompose_tilting_greedy,
    euler_induction,
    simple_char,
    tilting_char,
    weyl_chi,
)
from .cohomology import (
    CohomologyTable,
    CollapseRow,
    CupDiagonal,
    PeriodicCohomology,
    collapse_check,
    cup_product,
    e2_page,
    g1_cohomology_char,
    hh_table,
    ip_expected_dims,
    t1_invariants,
    u1_cohomology,
    u_cohomology,
)
from .fpmatrix import FpMatrix
from .lie import (
    GENERATOR_WEIGHTS,
    RestrictedLieAlgebra,
    borel,
    casimir_operator,
    nilradical,
    sl2,
)
from .verify import (
    AppendixFixture,
    VerificationReport,
    load_fixture,
    verify_appendix,
    verify_propositions,
)
from .wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    block_projection_principal,
    casimir_blocks,
    duality_pairing_rank,
    g1_invariants,
    module_hom_dim,
    simple_model,
    simple_module,
    summand_labels,
    sym_power,
    tilting_t2p2_model,
    trivial_module,
    truncated_sym,
    weight_line,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
