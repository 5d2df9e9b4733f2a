"""The frobcoho benchmark: end-to-end timings of the CLI and the API, and
per-layer spans and counters from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      every workload in turn
    python3 perfbench/run.py --record-expected

Run it from the root of a checkout; it builds nothing and imports the
package from src/.  The load is a closed loop with one client: operations
run one at a time, each in a fresh interpreter, as users pay for them.

Workloads (see METRICS.md for why each was chosen):

    cli_props    verify props at p = 3, 5, 7
    cli_tables   table g1|b1|u1 and verify appendix, p <= 13
    api_p11      one interpreter per pass calling the public API at p = 11

The seed fixes the order of the operations within each pass and which
H^1 class api_p11 squares; every choice has a known answer.  The run
repeats passes until another one would pass --seconds (at least one), so
a pass of api_p11 (about 45 s) may run over a shorter budget.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  A
traced run alternates untraced and traced passes: the untraced ones give
trace.overhead_ratio, the traced ones the spans.  Counts (calls, cells,
flops, builds, max_dim) must repeat exactly across the traced passes and
across traced runs of the same sources in this checkout; a difference
fails the run.

Every CLI operation's stdout must hash to, and its exit code equal, the
values in expected.json, recorded at the seed with --record-expected.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The full record, with the environment and the
sample count behind each median, goes to perfbench/out/.  The exit code
is 0 when every operation was correct, 1 otherwise, 2 on a usage error
or when the sources are missing.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
CHILD = HERE / "child.py"

CLI_OPS = {
    "cli_props": [
        "verify props --p 3",
        "verify props --p 5",
        "verify props --p 7",
    ],
    "cli_tables": [
        "table g1 --p 11",
        "table g1 --p 13",
        "table b1 --p 13",
        "table u1 --p 13",
        "verify appendix --p 13 --no-fixture",
        "verify appendix --p 2",
        "verify appendix --p 3",
        "verify appendix --p 5",
        "verify appendix --p 7",
    ],
}
WORKLOADS = (*CLI_OPS, "api_p11")
API_CLASSES = 10
SETUP_PER_PASS = 5
MIN_SETUP_SAMPLES = 20
HARD_LIMIT_S = 170.0  # every run ends well inside 180 s
SELF_LAYERS = ("fpmatrix", "wmodules", "characters", "cohomology", "verify")

# per-layer metric -> unit; the values come from layer_metrics()
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "fpmatrix.matmul.calls": "count", "fpmatrix.matmul.s": "s",
    "fpmatrix.matmul.flops": "flop", "fpmatrix.matmul.density": "ratio",
    "fpmatrix.pow.calls": "count", "fpmatrix.pow.s": "s",
    "fpmatrix.pow.repeat_ratio": "ratio",
    "fpmatrix.rref.calls": "count", "fpmatrix.rref.s": "s", "fpmatrix.rref.cells": "count",
    "fpmatrix.solve.calls": "count", "fpmatrix.solve.s": "s", "fpmatrix.solve.cells": "count",
    "fpmatrix.eigenspace.calls": "count", "fpmatrix.eigenspace.s": "s",
    "fpmatrix.graded_kernel.calls": "count", "fpmatrix.graded_kernel.s": "s",
    "fpmatrix.max_dim": "count",
    "lie.casimir_operator.calls": "count", "lie.casimir_operator.s": "s",
    "wmodules.TruncatedSymAlgebra.s": "s",
    "wmodules.truncated_sym.calls": "count", "wmodules.truncated_sym.s": "s",
    "wmodules.validate.calls": "count", "wmodules.validate.s": "s",
    "wmodules.casimir_blocks.calls": "count", "wmodules.casimir_blocks.s": "s",
    "wmodules.submodule.calls": "count", "wmodules.submodule.s": "s",
    "wmodules.principal_block_projector.s": "s",
    "wmodules.module_hom_dim.calls": "count", "wmodules.module_hom_dim.s": "s",
    "wmodules.mult.calls": "count", "wmodules.mult.s": "s",
    "characters.euler_induction.calls": "count",
    "cohomology.engine.builds": "count", "cohomology.engine.builds_per_module": "ratio",
    "cohomology.representatives.calls": "count", "cohomology.representatives.s": "s",
    "cohomology.class_coordinates.calls": "count", "cohomology.class_coordinates.s": "s",
    "cohomology.cup_product.calls": "count", "cohomology.cup_product.s": "s",
    "cohomology.diagonal.s": "s",
    "cohomology.g1_cohomology_char.calls": "count", "cohomology.g1_cohomology_char.s": "s",
    "cohomology.collapse_check.s": "s",
    "verify.load_fixture.s": "s", "verify.synthesize_fixture.s": "s",
    "cli.run_cli.s": "s", "cli.stdout_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# -- processes ---------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FROBCOHO_FIXTURES"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], deadline: float, tag: str) -> dict:
    """Run argv to completion; wall time, exit code, ru_maxrss, stdout.

    The child is reaped with os.wait4 to read its own peak RSS; a timer
    kills it at the deadline (a time.perf_counter() value)."""
    out_path, err_path = OUT / "tmp" / f"{tag}.out", OUT / "tmp" / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "t_spawn_ns": t_spawn, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes()}


def setup_sample(deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until `import frobcoho`
    returns, read on the shared monotonic clock."""
    code = "import time, frobcoho; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    run = spawn([sys.executable, "-c", code], deadline, "setup")
    if run["code"] != 0:
        raise SetupError("import frobcoho failed:\n" + run["stderr"].decode(errors="replace"))
    return (int(run["stdout"]) - run["t_spawn_ns"]) / 1e9


# -- passes ------------------------------------------------------------------


def cli_pass(ops: list[str], expected: dict, traced: bool, deadline: float) -> dict:
    walls, rss, failures, traces = [], [], [], []
    stdout_bytes = failed = 0
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        failures_before = len(failures)
        trace_path = OUT / "tmp" / f"trace{k}.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(CHILD), "cli", str(trace_path), *op.split()]
        else:
            argv = [sys.executable, "-m", "frobcoho.cli", *op.split()]
        run = spawn(argv, deadline, f"op{k}")
        walls.append(run["wall"])
        rss.append(run["rss_mb"])
        stdout_bytes += len(run["stdout"])
        want = expected[op]
        digest = hashlib.sha256(run["stdout"]).hexdigest()
        if run["code"] != want["exit"] or digest != want["sha256"]:
            failures.append(f"{op}: exit {run['code']} sha256 {digest[:12]}, expected "
                            f"exit {want['exit']} sha256 {want['sha256'][:12]}; stderr "
                            + run["stderr"].decode(errors="replace")[-300:])
        if traced:
            if trace_path.exists():
                traces.append(json.loads(trace_path.read_text()))
            else:
                failures.append(f"{op}: traced child wrote no trace")
        failed += len(failures) > failures_before
    wall = time.perf_counter() - t0
    return {"wall": wall, "slowest": max(walls), "rss_mb": max(rss), "attempted": len(ops),
            "failed": failed, "failures": failures, "op_walls": walls,
            "trace": merge_traces(traces, stdout_bytes) if traced else None}


def api_pass(class_index: int, traced: bool, deadline: float) -> dict:
    argv = [sys.executable, str(CHILD), "api", str(class_index)] + (["--trace"] if traced else [])
    run = spawn(argv, deadline, "api")
    failures = []
    steps = []
    try:
        result = json.loads(run["stdout"].decode().strip().splitlines()[-1])
        steps = result["steps"]
    except (ValueError, IndexError, KeyError):
        result = None
    if run["code"] != 0 or result is None:
        failures.append(f"api child exit {run['code']}; stderr "
                        + run["stderr"].decode(errors="replace")[-300:])
        attempted, failed = 5, 5
    else:
        attempted = len(steps)
        failures += [f"{s['name']}: {s['error'] or 'wrong answer'}" for s in steps if not s["ok"]]
        failed = len(failures)
    trace = None
    if traced and result is not None and result.get("trace"):
        trace = merge_traces([result["trace"]], 0)
    elif traced:
        failures.append("traced api child wrote no trace")
    return {"wall": run["wall"], "slowest": max((s["s"] for s in steps), default=run["wall"]),
            "rss_mb": run["rss_mb"], "attempted": attempted, "failed": failed,
            "failures": failures, "op_walls": [s["s"] for s in steps], "trace": trace}


# -- trace aggregation ---------------------------------------------------------


def merge_traces(traces: list[dict], stdout_bytes: int) -> dict:
    """Sum the span sums of the processes of one pass (max for max_dim)."""
    merged = {"calls": {}, "secs": {}, "self_s": {}, "counts": {},
              "density_weight": 0.0}
    for tr in traces:
        for key in ("calls", "secs", "self_s", "counts"):
            for name, value in tr[key].items():
                if key == "counts" and name == "max_dim":
                    merged[key][name] = max(merged[key].get(name, 0), value)
                else:
                    merged[key][name] = merged[key].get(name, 0) + value
        merged["density_weight"] += tr["density_weight"]
    merged["counts"]["stdout_bytes"] = stdout_bytes
    return merged


def exact_counts(tr: dict) -> dict:
    """The part of a pass's trace that must repeat exactly."""
    return {"calls": dict(sorted(tr["calls"].items())),
            "counts": dict(sorted(tr["counts"].items()))}


def layer_metrics(tr: dict) -> dict:
    """Per-layer values of one traced pass."""
    calls, secs, counts = tr["calls"], tr["secs"], tr["counts"]
    out = {f"{layer}.self_s": tr["self_s"].get(layer, 0.0) for layer in SELF_LAYERS}
    for name in PER_LAYER_UNITS:
        group, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(group, 0)
        elif field == "s":
            out[name] = secs.get(group, 0.0)
    flops = counts.get("matmul.flops", 0)
    pow_calls = calls.get("fpmatrix.pow", 0)
    builds = calls.get("cohomology.engine", 0)
    modules = counts.get("engine.modules", 0)
    out.update({
        "fpmatrix.matmul.flops": flops,
        "fpmatrix.matmul.density": tr["density_weight"] / flops if flops else 0.0,
        "fpmatrix.pow.repeat_ratio": counts.get("pow.repeats", 0) / pow_calls if pow_calls else 0.0,
        "fpmatrix.rref.cells": counts.get("rref.cells", 0),
        "fpmatrix.solve.cells": counts.get("solve.cells", 0),
        "fpmatrix.max_dim": counts.get("max_dim", 0),
        "cohomology.engine.builds": builds,
        "cohomology.engine.builds_per_module": builds / modules if modules else 0.0,
        "cli.stdout_bytes": counts.get("stdout_bytes", 0),
    })
    return out


# -- environment ---------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through its C entry point."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": source_hash(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def source_hash() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts
                   and not p.name.endswith(".pyc"))
    files += sorted(HERE.glob("*.py")) + [EXPECTED]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- the run -------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def check_counts(workload: str, key: str, traced_passes: list[dict]) -> list[str]:
    """Counts must match across this run's traced passes and earlier traced
    runs of the same sources; the first run stores them."""
    first = exact_counts(traced_passes[0]["trace"])
    errors = [f"traced pass {i} counts differ from pass 0"
              for i, ps in enumerate(traced_passes[1:], start=1)
              if exact_counts(ps["trace"]) != first]
    store = OUT / "counts" / f"{workload}-{key}-{source_hash()[:16]}.json"
    if store.exists():
        before = json.loads(store.read_text())
        if before != first:
            diff = sorted(f"{kind}.{name}" for kind in first
                          for name in set(first[kind]) | set(before.get(kind, {}))
                          if first[kind].get(name) != before.get(kind, {}).get(name))
            errors.append(f"counts differ from an earlier traced run ({store.name}): "
                          + ", ".join(diff[:20]))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, indent=1, sort_keys=True))
    return errors


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    expected = json.loads(EXPECTED.read_text())
    deadline = time.perf_counter() + HARD_LIMIT_S
    rng = random.Random(seed)
    class_index = rng.randrange(API_CLASSES)
    setups: list[float] = []
    plain: list[dict] = []
    traced_passes: list[dict] = []

    def one_pass(trace_it: bool, order: list[str]) -> dict:
        if workload == "api_p11":
            return api_pass(class_index, trace_it, deadline)
        return cli_pass(order, expected, trace_it, deadline)

    t_measure = time.perf_counter()
    while True:
        setups += [setup_sample(deadline) for _ in range(SETUP_PER_PASS)]
        order = rng.sample(CLI_OPS.get(workload, []), len(CLI_OPS.get(workload, [])))
        plain.append(one_pass(False, order))
        if traced:
            traced_passes.append(one_pass(True, order))
        now = time.perf_counter()
        per_round = (now - t_measure) / len(plain)
        # stop before a round would overrun the budget, or come within 10 s
        # of the hard limit (the setup top-up below still has to fit)
        if now + per_round > min(t_measure + seconds, deadline - 10):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(deadline))

    passes = plain + traced_passes
    attempted = sum(ps["attempted"] for ps in passes)
    failed = sum(ps["failed"] for ps in passes)
    failures = [f for ps in passes for f in ps["failures"]]
    inputs_key = f"class{class_index}" if workload == "api_p11" else "all"
    if traced and all(ps["trace"] for ps in traced_passes):
        failures += check_counts(workload, inputs_key, traced_passes)

    if traced:
        layer_runs = [layer_metrics(ps["trace"]) for ps in traced_passes if ps["trace"]]
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_ratio":
                value = (median([ps["wall"] for ps in traced_passes])
                         / median([ps["wall"] for ps in plain]))
            elif not layer_runs:
                value = 0.0
            elif unit == "s":
                value = median([m[name] for m in layer_runs])
            else:  # counts and their ratios, identical across passes (checked)
                value = layer_runs[0][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": median([ps["wall"] for ps in plain]), "unit": "s"},
            "slowest_op_s": {"value": median([ps["slowest"] for ps in plain]), "unit": "s"},
            "peak_rss_mb": {"value": median([ps["rss_mb"] for ps in plain]), "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(seed),
        "class_index": class_index if workload == "api_p11" else None,
        "samples": {"setup_s": len(setups), "passes": len(plain),
                    "traced_passes": len(traced_passes)},
        "fail_ratio": failed / attempted,
        "failures": failures,
        "passes": [{k: v for k, v in ps.items() if k not in ("trace", "failures")}
                   for ps in plain],
        "traced_passes": [{"wall": ps["wall"], "trace": ps["trace"]} for ps in traced_passes],
        "setup_samples": setups,
        "result": result,
    }
    return result, record


def record_expected() -> int:
    """Write expected.json: stdout sha256 and exit code of every CLI
    operation, each run twice to make sure the output is stable."""
    deadline = time.perf_counter() + 3600.0
    table = {}
    for workload, ops in CLI_OPS.items():
        for op in ops:
            runs = [spawn([sys.executable, "-m", "frobcoho.cli", *op.split()], deadline, "rec")
                    for _ in range(2)]
            digests = {hashlib.sha256(r["stdout"]).hexdigest() for r in runs}
            codes = {r["code"] for r in runs}
            if len(digests) != 1 or len(codes) != 1:
                print(f"error: {op} is not reproducible", file=sys.stderr)
                return 1
            table[op] = {"exit": codes.pop(), "sha256": digests.pop(),
                         "bytes": len(runs[0]["stdout"]), "workload": workload}
            print(f"{op}: exit {table[op]['exit']}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def run_one(workload: str, seed: int, seconds: int, trace: int) -> int:
    try:
        result, record = run(workload, seed, seconds, bool(trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    if not trace:
        m = result["metrics"]
        print(f"{workload}: " + "  ".join(
            f"{name}={m[name]['value']:.4g} {m[name]['unit']}"
            for name in ("setup_s", "wall_s", "slowest_op_s", "peak_rss_mb"))
            + f"  fail_ratio={record['fail_ratio']:.4g} ({result['failed']}/{result['attempted']})"
            + f"  passes={record['samples']['passes']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which stops the child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it every workload runs in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="record the CLI outputs of this checkout as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "frobcoho" / "__init__.py").is_file():
        print(f"error: no frobcoho sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if args.record_expected:
        return record_expected()
    codes = [run_one(w, args.seed, args.seconds, args.trace)
             for w in ([args.workload] if args.workload else WORKLOADS)]
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
