"""One benchmark operation in a fresh interpreter.

    python3 child.py cli TRACE_JSON ARG...   one traced `frobcoho ARG...` call;
                                             the CLI's stdout and exit code pass
                                             through, the span sums go to TRACE_JSON
    python3 child.py api CLASS_INDEX [--trace]
                                             one api_p11 pass; the last stdout
                                             line is a JSON object with the step
                                             timings, their checks and, when
                                             traced, the span sums

run.py starts these with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import json
import sys
import time

P = 11
MAXDEG = 8
H1_CLASSES = 10


def traced_cli(trace_path: str, argv: list[str]) -> int:
    from tracer import install

    tracer = install()
    import frobcoho.cli

    run_cli = tracer.wrap("cli", "cli.run_cli", frobcoho.cli.run_cli)
    try:
        code = run_cli(argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


def api_pass(class_index: int, traced: bool) -> dict:
    """The api_p11 steps in order, each timed and checked against its
    known answer.  A step that raises or gives a wrong answer fails, and
    the steps after a failed one are not run (they count as failed)."""
    tracer = None
    if traced:
        from tracer import install
        tracer = install()
    from frobcoho import (
        PeriodicCohomology,
        TruncatedSymAlgebra,
        block_projection_principal,
        collapse_check,
        cup_product,
        ip_expected_dims,
        sl2,
    )

    state: dict = {}

    def build():
        state["alg"] = TruncatedSymAlgebra(sl2(P))
        return state["alg"].dim == P ** 3

    def collapse():
        rows = collapse_check(block_projection_principal(state["alg"].module), MAXDEG)
        return [r.defect for r in rows] == ip_expected_dims(P, MAXDEG)

    def classes():
        state["engine"] = PeriodicCohomology(state["alg"].module)
        state["reps"] = state["engine"].t1_representatives(1)
        return len(state["reps"]) == H1_CLASSES

    def square():
        vec = state["reps"][class_index % H1_CLASSES][0]
        state["sq"] = cup_product(state["engine"], state["alg"], 1, vec, 1, vec)
        return state["engine"].is_cocycle(2, state["sq"])

    def vanishes():
        # odd squares vanish for odd p
        return state["engine"].is_coboundary(2, state["sq"])

    steps = []
    failed = False
    for name, fn in (("TruncatedSymAlgebra", build), ("collapse_check", collapse),
                     ("t1_representatives", classes), ("cup_product", square),
                     ("is_coboundary", vanishes)):
        if failed:
            steps.append({"name": name, "s": 0.0, "ok": False, "error": "not run"})
            continue
        t0 = time.perf_counter()
        error = None
        try:
            ok = bool(fn())
        except Exception as exc:  # a raising step is a failed operation
            ok, error = False, f"{type(exc).__name__}: {exc}"
        steps.append({"name": name, "s": time.perf_counter() - t0, "ok": ok,
                      "error": error})
        failed = not ok
    return {"class_index": class_index % H1_CLASSES, "steps": steps,
            "trace": tracer.snapshot() if tracer else None}


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "cli":
        return traced_cli(argv[1], argv[2:])
    if len(argv) in (2, 3) and argv[0] == "api":
        result = api_pass(int(argv[1]), traced=argv[2:] == ["--trace"])
        print(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
