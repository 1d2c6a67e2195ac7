#!/usr/bin/env python3
"""Desk-scale reproduction of the headline solver behaviors.

Three experiment tables:

  shapes    block-triangular vs block-diagonal preconditioning
            (the triangular shape needs roughly half the iterations)
  contrast  iterations versus sinker count and viscosity contrast
            (difficulty grows with both dials)
  storage   working-vector footprint of fgmres / gmres / idr(2)
            (1 per iteration plus a pressure part per iteration /
            1 per iteration / constant 5+3s)

By default everything runs in 2D at moderate size (a few minutes); pass
--full for the 3D variants used by the acceptance suite (tens of
minutes).  The BLAS pools are pinned to one thread before numpy loads,
so the seconds printed per run are single-threaded.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gmgstokes.bench import THREAD_VARS, RunConfig, run_benchmark  # loads no numpy


def run(msg, **kw):
    t0 = time.time()
    rec = run_benchmark(RunConfig(**kw))
    state = "ok" if rec.converged else f"NOT CONVERGED ({rec.flag})"
    print(f"  {msg:<42s} iters {rec.iterations:4d}  [{state}, {time.time() - t0:5.1f}s]")
    return rec


def table_shapes(full):
    print("== preconditioner shape: triangular vs diagonal ==")
    dim, levels = (3, [3, 4]) if full else (2, [4, 5])
    for lv in levels:
        recs = {}
        for shape in ("triangular", "diagonal"):
            recs[shape] = run(
                f"dim={dim} refine={lv} {shape}",
                dim=dim, levels=lv, sinkers=4, dynamic_ratio=1e4, seed=1,
                precond_shape=shape, max_iters=1000, restart=100,
            )
        ratio = recs["diagonal"].iterations / recs["triangular"].iterations
        print(f"  -> diagonal/triangular iteration ratio: {ratio:.2f}")


def table_contrast(full):
    print("== difficulty vs sinker count and viscosity contrast ==")
    dim, lv = (3, 4) if full else (2, 5)
    header = f"  {'':>10s}" + "".join(f"{dr:>10.0e}" for dr in (1e2, 1e4, 1e6))
    print(header)
    for n in (4, 8):
        row = [f"  {n:>2d} sinkers"]
        for dr in (1e2, 1e4, 1e6):
            rec = run_benchmark(
                RunConfig(dim=dim, levels=lv, sinkers=n, dynamic_ratio=dr, seed=1,
                          restart=300, max_iters=2000)
            )
            row.append(f"{rec.iterations:>10d}" if rec.converged else f"{'(fail)':>10s}")
        print("".join(row))


def table_storage(full):
    print("== solver working-vector storage ==")
    dim, lv = (3, 3) if full else (2, 4)
    base = dict(dim=dim, levels=lv, sinkers=4, dynamic_ratio=1e4, seed=1,
                schur="vcycle", max_iters=1000)
    print(
        f"  {'solver':<10s}{'iters':>8s}{'P applications':>16s}{'vectors':>10s}"
        f"{'p parts':>10s}{'MB':>10s}"
    )
    for solver in ("fgmres", "gmres", "idr"):
        rec = run_benchmark(RunConfig(solver=solver, **base))
        mb = rec.memory["solver_vector_bytes"] / 1e6
        parts = rec.memory.get("solver_pressure_vector_count", 0)
        print(
            f"  {solver:<10s}{rec.iterations:>8d}{rec.precond_applications:>16d}"
            f"{rec.peak_vector_count:>10d}{parts:>10d}{mb:>10.2f}"
        )
    n_app = rec.memory["application_vector_count"]
    print(f"  (+{n_app} application-owned vectors: solution, rhs, residual check)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--full", action="store_true", help="3D variants (slow)")
    ap.add_argument(
        "--tables", default="shapes,contrast,storage",
        help="comma list from {shapes, contrast, storage}",
    )
    args = ap.parse_args()
    for var in THREAD_VARS:  # numpy loads with the first run
        os.environ[var] = "1"
    wanted = {t.strip() for t in args.tables.split(",")}
    if "shapes" in wanted:
        table_shapes(args.full)
    if "contrast" in wanted:
        table_contrast(args.full)
    if "storage" in wanted:
        table_storage(args.full)


if __name__ == "__main__":
    main()
