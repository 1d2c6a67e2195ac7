"""Fast self-test of the span tracer on 2D problems with three levels.

Run from the repository root:

    python3 perfbench/selftest.py

It solves two small configurations that between them reach every layer
(FGMRES with the mass-CG Schur solve, IDR(s) with the mass V-cycle), each
once untraced and once traced, and checks that the traced run reproduces
the untraced residual history, that the spans agree with the solver's own
counters, that every layer module recorded spans, that leaving the tracer
restores every original binding, and that the per-layer metric names match
``BENCHMARK.json``.  Exits 0 when every check passes, 1 when one fails and
2 when ``src/gmgstokes`` is missing.
"""

from __future__ import annotations

import json
import os

import run

CONFIGS = (
    {"dim": 2, "levels": 2, "solver": "fgmres", "schur": "cg"},
    {"dim": 2, "levels": 2, "solver": "idr", "schur": "vcycle", "precond_shape": "diagonal"},
)
DOFS = {"2": 187}


def check() -> list[str]:
    import tracer
    from gmgstokes import multigrid, operators, precond

    problems = []
    for params in CONFIGS:
        workload = {"kind": "run", "config": params, "base_seeds": [1], "dofs": DOFS}
        # the harness's own path: layout drawn, then untraced and traced runs
        result = run.trace(run.Checked(workload, 1))
        label = f"{params['solver']}/{params['schur']}"
        problems += [f"{label}: {f}" for f in result["failures"]]
        values = {k: m["value"] for k, m in result["metrics"].items()}
        names = [row[0] for row in result["spans"]["spans"]]
        missing = set(tracer.LAYERS) - {name.split(".", 1)[0] for name in names}
        if missing:
            problems.append(f"{label}: no spans from {sorted(missing)}")
        if values["operators.apply_A.L2.calls"] == 0 or values["multigrid.coarse_cg.calls"] == 0:
            problems.append(f"{label}: fine-level apply_A or coarse CG not traced")
        if list(values) != tracer.per_layer_names():
            problems.append(f"{label}: metric names differ from per_layer_names()")

    for owner in (operators, multigrid, precond):
        for name in ("apply_A", "apply_Mp", "chebyshev_smooth", "estimate_lambda_max"):
            fn = getattr(owner, name, None)
            if fn is not None and hasattr(fn, "__wrapped__"):
                problems.append(f"{owner.__name__}.{name} still wrapped after the trace")
    if hasattr(multigrid.Multigrid.vcycle, "__wrapped__"):
        problems.append("Multigrid.vcycle still wrapped after the trace")

    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        if declared != tracer.per_layer_names():
            problems.append("BENCHMARK.json per_layer names differ from per_layer_names()")
    return problems


def main() -> int:
    if not run.use_checkout_source():
        return 2
    problems = check()
    for p in problems:
        print(f"FAIL {p}")
    print("tracer self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
