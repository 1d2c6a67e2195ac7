#!/usr/bin/env python3
"""Print the bit-level fingerprint of a fixed set of solver runs.

One JSON line per run: its label, outer solver and Schur choice,
iteration count, flag, residual history and true final residual (as
``float.hex``, so every bit shows), the operator calls per level, the
solver's peak vector count and the memory report.  The runs cover every
outer solver and Schur choice: eight small 2D/3D configurations (among
them the 3D levels=3 layouts of seeds 6 and 7, which take 59 FGMRES
iterations), the inputs of the ``sinker3d-fgmres`` and
``sinker2d-idr-mgmass`` benchmark workloads at seed 1, and the 32 rows of
the ``sweep3d-small`` sweep at master seed 5.

A change meant to leave the arithmetic alone should leave the output
alone.  ``tests/test_fingerprint.py`` compares it with the committed
``tests/data/record_fingerprint.jsonl``; after a change that moves it on
purpose, rewrite that file with

    python3 scripts/record_fingerprint.py > tests/data/record_fingerprint.jsonl

and review its ``git diff``.  The BLAS pools are pinned to one thread
before numpy loads, since a threaded reduction may sum in another order.
It takes about 6 s with one BLAS thread.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gmgstokes.bench import THREAD_VARS, RunConfig, run_benchmark, sweep  # loads no numpy

RUNS = {
    "3d-l2-fgmres-cg": RunConfig(dim=3, levels=2),
    "3d-l3-fgmres-cg-seed2": RunConfig(dim=3, levels=3, seed=2),
    "3d-l3-fgmres-cg-seed6": RunConfig(dim=3, levels=3, seed=6),
    "3d-l3-fgmres-cg-seed7": RunConfig(dim=3, levels=3, seed=7),
    "3d-l3-gmres-vcycle-seed6": RunConfig(dim=3, levels=3, seed=6, solver="gmres", schur="vcycle"),
    "2d-l5-idr-vcycle-seed3": RunConfig(dim=2, levels=5, seed=3, solver="idr", schur="vcycle"),
    "2d-l4-fgmres-cg-diagonal": RunConfig(dim=2, levels=4, precond_shape="diagonal"),
    "2d-l4-gmres-diag": RunConfig(dim=2, levels=4, solver="gmres", schur="diag"),
    "sinker3d-fgmres-seed1": RunConfig(dim=3, levels=4, seed=1),
    "sinker2d-idr-mgmass-seed1": RunConfig(
        dim=2, levels=6, seed=1, solver="idr", idr_s=2, schur="vcycle"
    ),
}
SWEEP_BASE = RunConfig(dim=3, sinkers=4, restart=50, reduction=1e-6)
SWEEP_AXES = {
    "levels": [1, 2],
    "dynamic_ratio": [100.0, 10000.0],
    "precond_shape": ["triangular", "diagonal"],
    "schur": ["cg", "vcycle"],
    "solver": ["fgmres", "idr"],
}
SWEEP_MASTER_SEED = 5


def fingerprint(label, rec) -> str:
    return json.dumps(
        {
            "run": label,
            "solver": rec.config["solver"],
            "schur": rec.config["schur"],
            "iterations": rec.iterations,
            "flag": rec.flag,
            "error": rec.error,
            "residual_history": [float(r).hex() for r in rec.residual_history],
            "true_final_residual": float(rec.true_final_residual).hex(),
            "operator_calls": rec.operator_calls,
            "peak_vector_count": rec.peak_vector_count,
            "memory": rec.memory,
        }
    )


def main() -> None:
    for var in THREAD_VARS:  # numpy loads with the first run
        os.environ[var] = "1"
    for label, cfg in RUNS.items():
        print(fingerprint(label, run_benchmark(cfg)), flush=True)
    rows = sweep(SWEEP_BASE, SWEEP_AXES, master_seed=SWEEP_MASTER_SEED)
    for index, rec in enumerate(rows):
        print(fingerprint(f"sweep3d-small-{SWEEP_MASTER_SEED}-row{index}", rec), flush=True)


if __name__ == "__main__":
    main()
