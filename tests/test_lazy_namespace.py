"""`import frobcoho` executes no submodule; a name or a command loads only
what it reaches.

Each check runs in a fresh interpreter, since the test session itself has
every module loaded.  A lazily registered submodule stays an instance of
importlib's lazy module type until its first attribute access executes it,
when its class becomes types.ModuleType: that is how "executed" is read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# frobcoho.__all__ at the eager namespace it replaces, taken before the change
PUBLIC = [
    "AppendixFixture", "CohomologyTable", "CollapseRow", "CupDiagonal", "DecompList",
    "FpMatrix", "GENERATOR_WEIGHTS", "LaurentCharacter", "PeriodicCohomology",
    "RestrictedLieAlgebra", "TruncatedSymAlgebra", "VerificationReport", "WeightModule",
    "block_projection_principal", "borel", "casimir_blocks", "casimir_operator",
    "characters", "cohomology", "collapse_check", "cup_product", "decompose_nabla",
    "decompose_simples", "decompose_tilting_greedy", "duality_pairing_rank", "e2_page",
    "euler_induction", "fpmatrix", "g1_cohomology_char", "g1_invariants", "hh_table",
    "ip_expected_dims", "lie", "load_fixture", "module_hom_dim", "nilradical",
    "simple_char", "simple_model", "simple_module", "sl2", "summand_labels", "sym_power",
    "t1_invariants", "tilting_char", "tilting_t2p2_model", "trivial_module",
    "truncated_sym", "u1_cohomology", "u_cohomology", "verify", "verify_appendix",
    "verify_propositions", "weight_line", "weyl_chi", "wmodules",
]
SUBMODULES = ["characters", "cohomology", "fpmatrix", "lie", "verify", "wmodules"]

# prints which of the six submodules have executed and whether numpy is loaded
REPORT = (
    "import json, sys, types\n"
    f"print(json.dumps({{'executed': [m for m in {SUBMODULES!r} if type(\n"
    "    sys.modules[f'frobcoho.{m}']) is types.ModuleType], 'numpy': 'numpy' in sys.modules}))\n"
)


def _fresh(script: str) -> dict:
    """Run script, then REPORT, in a new interpreter; REPORT's JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FROBCOHO_FIXTURES", None)
    run = subprocess.run([sys.executable, "-c", script + "\n" + REPORT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_import_executes_no_submodule_and_loads_no_numpy():
    script = ("import sys, frobcoho\n"
              f"assert all(f'frobcoho.{{m}}' in sys.modules for m in {SUBMODULES!r})\n"
              f"assert all(getattr(frobcoho, m) is sys.modules[f'frobcoho.{{m}}'] "
              f"for m in {SUBMODULES!r})\n")
    assert _fresh(script) == {"executed": [], "numpy": False}


def test_public_names_are_the_eager_ones():
    import frobcoho

    assert sorted(frobcoho.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(frobcoho))


def test_every_public_name_is_its_submodules_object():
    script = (
        "import sys, types, frobcoho\n"
        "for name in frobcoho.__all__:\n"
        "    obj = getattr(frobcoho, name)\n"
        "    if isinstance(obj, types.ModuleType):\n"
        "        assert obj is sys.modules[f'frobcoho.{name}'], name\n"
        "        continue\n"
        "    owner = 'frobcoho.lie' if name == 'GENERATOR_WEIGHTS' else obj.__module__\n"
        "    assert vars(sys.modules[owner])[name] is obj, name\n"
        "    assert getattr(frobcoho, name) is obj, name\n"
    )
    assert _fresh(script)["executed"] == SUBMODULES


def test_star_import_binds_every_public_name():
    script = ("from frobcoho import *\n"
              f"missing = [n for n in {PUBLIC!r} if n not in globals()]\n"
              "assert not missing, missing\n")
    assert _fresh(script)["executed"] == SUBMODULES


def test_unknown_name_raises_attribute_error():
    import frobcoho

    try:
        frobcoho.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("frobcoho.no_such_name resolved")


def test_table_command_never_executes_verify():
    script = ("from frobcoho.cli import run_cli\n"
              "assert run_cli(['table', 'g1', '--p', '13']) == 0\n")
    report = _fresh(script)
    assert "verify" not in report["executed"]
    assert "cohomology" in report["executed"]


def test_prime_usage_error_loads_no_numpy():
    script = ("from frobcoho.cli import run_cli\n"
              "assert run_cli(['table', 'g1', '--p', '4']) == 3\n")
    assert _fresh(script) == {"executed": ["characters"], "numpy": False}


def test_argparse_error_executes_no_submodule():
    script = ("from frobcoho.cli import run_cli\n"
              "try:\n"
              "    run_cli(['table', 'x1', '--p', '3'])\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 3\n"
              "else:\n"
              "    raise AssertionError('no usage error')\n")
    assert _fresh(script) == {"executed": [], "numpy": False}


def test_character_calculus_loads_no_numpy():
    script = ("from frobcoho import weyl_chi, decompose_simples, euler_induction\n"
              "assert decompose_simples(weyl_chi(4), 3).format() == 'L(4)+L(0)'\n"
              "assert euler_induction(weyl_chi(0)) == (weyl_chi(0), True)\n")
    assert _fresh(script) == {"executed": ["characters"], "numpy": False}
