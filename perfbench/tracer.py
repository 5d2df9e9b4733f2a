"""Per-layer spans and counters for frobcoho, installed from outside the package.

`install()` replaces the public functions and methods of the frobcoho
modules (fpmatrix, lie, wmodules, characters, cohomology, verify) with
wrappers that record one span per call.  Nothing under src/ changes: the
wrappers are swapped into every frobcoho module namespace that holds the
original object, so calls through `from .x import f` bindings are seen too.

Each span belongs to a layer (the module name) and a group (the metric
prefix, such as `fpmatrix.rref`).  A group counts only its outermost calls,
so `kernel_basis` calling `rref` counts once.  A layer's self time is the
sum over its spans of the span's duration minus the time its child spans
cover.  Counter probes run outside the timed region and are charged to no
layer.
"""

from __future__ import annotations

import hashlib
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("fpmatrix", "lie", "wmodules", "characters", "cohomology", "verify", "cli")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.density_weight = 0.0
        self._depth: dict[str, int] = defaultdict(int)
        self._frames: list[list[float]] = []
        self._pow_seen: set[bytes] = set()
        self._modules_seen = weakref.WeakSet()

    def wrap(self, layer: str, group: str, func, probe=None):
        calls, secs, self_s, depth, frames = (
            self.calls, self.secs, self.self_s, self._depth, self._frames)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = depth[group] == 0
            t_probe = clock()
            if outer and probe is not None:
                probe(self, args)
            depth[group] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                depth[group] -= 1
                self_s[layer] += (t1 - t0) - frame[0]
                if frames:
                    frames[-1][0] += t1 - t_probe
                if outer:
                    calls[group] += 1
                    secs[group] += t1 - t0

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", group)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def snapshot(self) -> dict:
        """Raw sums of this process; run.py turns them into metrics."""
        return {
            "calls": dict(self.calls),
            "secs": dict(self.secs),
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": dict(self.counts),
            "density_weight": self.density_weight,
        }


# -- counter probes (args[0] is self for methods) -----------------------------


def _see_dim(tr: Tracer, *dims: int) -> None:
    top = max(dims, default=0)
    if top > tr.counts["max_dim"]:
        tr.counts["max_dim"] = top


def _probe_matmul(tr: Tracer, args) -> None:
    left, right = args[0], args[1]
    m, k = left.shape
    n = right.cols if hasattr(right, "cols") else 1
    flops = 2 * m * k * n
    tr.counts["matmul.flops"] += flops
    if left.a.size:
        tr.density_weight += flops * (np.count_nonzero(left.a) / left.a.size)
    _see_dim(tr, m, k, n)


def _probe_pow(tr: Tracer, args) -> None:
    mat, n = args[0], args[1]
    digest = hashlib.blake2b(mat.a.tobytes(), digest_size=16)
    digest.update(repr((mat.p, mat.shape, n)).encode())
    key = digest.digest()
    if key in tr._pow_seen:
        tr.counts["pow.repeats"] += 1
    else:
        tr._pow_seen.add(key)
    _see_dim(tr, *mat.shape)


def _probe_rref(tr: Tracer, args) -> None:
    mat = args[0]
    tr.counts["rref.cells"] += mat.rows * mat.cols
    _see_dim(tr, *mat.shape)


def _probe_solve(tr: Tracer, args) -> None:
    mat, rhs = args[0], args[1]
    tr.counts["solve.cells"] += mat.rows * (mat.cols + rhs.cols)
    _see_dim(tr, mat.rows, mat.cols + rhs.cols)


def _probe_engine(tr: Tracer, args) -> None:
    module = args[1]
    if module not in tr._modules_seen:
        tr._modules_seen.add(module)
        tr.counts["engine.modules"] += 1


# (module, owner attribute or None, function name, metric group, probe)
TARGETS = (
    ("fpmatrix", "FpMatrix", "__matmul__", "fpmatrix.matmul", _probe_matmul),
    ("fpmatrix", "FpMatrix", "__pow__", "fpmatrix.pow", _probe_pow),
    ("fpmatrix", "FpMatrix", "rref", "fpmatrix.rref", _probe_rref),
    ("fpmatrix", "FpMatrix", "rank", "fpmatrix.rref", _probe_rref),
    ("fpmatrix", "FpMatrix", "kernel_basis", "fpmatrix.rref", _probe_rref),
    ("fpmatrix", "FpMatrix", "column_space_basis", "fpmatrix.rref", _probe_rref),
    ("fpmatrix", "FpMatrix", "solve", "fpmatrix.solve", _probe_solve),
    ("fpmatrix", None, "generalized_eigenspace", "fpmatrix.eigenspace", None),
    ("fpmatrix", None, "graded_kernel", "fpmatrix.graded_kernel", None),
    ("lie", None, "casimir_operator", "lie.casimir_operator", None),
    ("wmodules", "TruncatedSymAlgebra", "__init__", "wmodules.TruncatedSymAlgebra", None),
    ("wmodules", "TruncatedSymAlgebra", "mult", "wmodules.mult", None),
    ("wmodules", "WeightModule", "validate", "wmodules.validate", None),
    ("wmodules", "WeightModule", "submodule", "wmodules.submodule", None),
    ("wmodules", "WeightModule", "tensor", "wmodules.tensor", None),
    ("wmodules", None, "truncated_sym", "wmodules.truncated_sym", None),
    ("wmodules", None, "sym_power", "wmodules.sym_power", None),
    ("wmodules", None, "casimir_blocks", "wmodules.casimir_blocks", None),
    ("wmodules", None, "block_projection_principal", "wmodules.block_projection_principal", None),
    ("wmodules", None, "principal_block_projector", "wmodules.principal_block_projector", None),
    ("wmodules", None, "module_hom_dim", "wmodules.module_hom_dim", None),
    ("wmodules", None, "duality_pairing_rank", "wmodules.duality_pairing_rank", None),
    ("wmodules", None, "g1_invariants", "wmodules.g1_invariants", None),
    ("wmodules", None, "summand_labels", "wmodules.summand_labels", None),
    ("characters", None, "euler_induction", "characters.euler_induction", None),
    ("characters", None, "weyl_chi", "characters.weyl_chi", None),
    ("characters", None, "simple_char", "characters.simple_char", None),
    ("characters", None, "tilting_char", "characters.tilting_char", None),
    ("characters", None, "decompose_nabla", "characters.decompose_nabla", None),
    ("characters", None, "decompose_simples", "characters.decompose_simples", None),
    ("characters", None, "decompose_tilting_greedy", "characters.decompose_tilting_greedy", None),
    ("cohomology", "PeriodicCohomology", "__init__", "cohomology.engine", _probe_engine),
    ("cohomology", "PeriodicCohomology", "representatives", "cohomology.representatives", None),
    ("cohomology", "PeriodicCohomology", "class_coordinates", "cohomology.class_coordinates", None),
    ("cohomology", "CupDiagonal", "component", "cohomology.diagonal", None),
    ("cohomology", None, "cup_product", "cohomology.cup_product", None),
    ("cohomology", None, "g1_cohomology_char", "cohomology.g1_cohomology_char", None),
    ("cohomology", None, "collapse_check", "cohomology.collapse_check", None),
    ("cohomology", None, "u1_cohomology", "cohomology.u1_cohomology", None),
    ("cohomology", None, "u_cohomology", "cohomology.u_cohomology", None),
    ("cohomology", None, "e2_page", "cohomology.e2_page", None),
    ("cohomology", None, "hh_table", "cohomology.hh_table", None),
    ("verify", None, "load_fixture", "verify.load_fixture", None),
    ("verify", None, "synthesize_fixture", "verify.synthesize_fixture", None),
    ("verify", None, "verify_appendix", "verify.verify_appendix", None),
    ("verify", None, "verify_propositions", "verify.verify_propositions", None),
)


def install() -> Tracer:
    """Wrap every target in the loaded frobcoho package; return the tracer."""
    import frobcoho  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "frobcoho" or name.startswith("frobcoho.")]
    for modname, owner_name, attr, group, probe in TARGETS:
        module = sys.modules[f"frobcoho.{modname}"]
        layer = modname
        if owner_name is not None:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(layer, group, owner.__dict__[attr], probe))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, group, original, probe)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    return tracer
