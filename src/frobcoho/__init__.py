"""Exact verification engine for the Hochschild cohomology of the first
Frobenius kernels of SL2 and its Borel/unipotent subgroups.

Everything is computed over F_p with exact linear algebra: modules are
built with explicit action matrices and integer torus weights, the
kernel cohomology comes from twisted periodic complexes, and the
results are checked against the reference tables shipped under
frobcoho/fixtures.

The namespace is lazy.  `import frobcoho` executes none of the six
submodules: each is registered in sys.modules and bound here as a module
that executes on its first attribute access (importlib.util.LazyLoader).
A public name such as `frobcoho.sl2` is looked up in its submodule on
first use and then kept here, so `from frobcoho import weyl_chi` executes
characters.py alone and loads no numpy.
"""

import importlib.util
import sys

# submodule -> the public names it defines
_EXPORTS = {
    "characters": (
        "DecompList", "LaurentCharacter", "decompose_nabla", "decompose_simples",
        "decompose_tilting_greedy", "euler_induction", "simple_char", "tilting_char",
        "weyl_chi",
    ),
    "cohomology": (
        "CohomologyTable", "CollapseRow", "CupDiagonal", "PeriodicCohomology",
        "collapse_check", "cup_product", "e2_page", "g1_cohomology_char", "hh_table",
        "ip_expected_dims", "t1_invariants", "u1_cohomology", "u_cohomology",
    ),
    "fpmatrix": ("FpMatrix",),
    "lie": (
        "GENERATOR_WEIGHTS", "RestrictedLieAlgebra", "borel", "casimir_operator",
        "nilradical", "sl2",
    ),
    "verify": (
        "AppendixFixture", "VerificationReport", "load_fixture", "verify_appendix",
        "verify_propositions",
    ),
    "wmodules": (
        "TruncatedSymAlgebra", "WeightModule", "block_projection_principal",
        "casimir_blocks", "duality_pairing_rank", "g1_invariants", "module_hom_dim",
        "simple_model", "simple_module", "summand_labels", "sym_power",
        "tilting_t2p2_model", "trivial_module", "truncated_sym", "weight_line",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """Register frobcoho.<name> in sys.modules without executing it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNER[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
