#!/usr/bin/env python3
"""Iterations, flag, solve seconds, peak vectors and solver MB on the hard
3D layouts.

The benchmark's 3D workload pins sinker layout 1, whose count does not
vary; a random layout moves it between 15 and 123.  This script solves
3D levels=3 and levels=4 for the seeds 1, 2, 6 and 7, so that a change
to the V-cycle or the Schur choice shows what it does to hard problems
as well.  Every other setting is the ``RunConfig`` default unless given
as a ``gmgstokes-bench run`` flag, for example

    python3 scripts/hard_layouts.py --solver gmres --schur diag --restart 500

It takes about 25 s at the defaults.  The BLAS pools are pinned to one
thread before numpy loads.
"""

import argparse
import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gmgstokes.bench import SETTING_TYPES, THREAD_VARS, RunConfig, run_benchmark  # loads no numpy

LEVELS = (3, 4)
SEEDS = (1, 2, 6, 7)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    fixed = ("dim", "levels", "seed", "threads")
    for name, kind in SETTING_TYPES.items():
        if name not in fixed:
            parser.add_argument("--" + name.replace("_", "-"), type=kind)
    given = {k: v for k, v in vars(parser.parse_args(argv)).items() if v is not None}
    for var in THREAD_VARS:  # numpy loads with the first run
        os.environ[var] = "1"
    print(f"{'levels':>6} {'seed':>4} {'iters':>5} {'solve_s':>8} {'peak':>4} {'MB':>6}  flag")
    for levels in LEVELS:
        for seed in SEEDS:
            cfg = dataclasses.replace(RunConfig(dim=3, levels=levels, seed=seed), **given)
            rec = run_benchmark(cfg)
            flag = rec.flag or ("" if rec.converged else "unconverged")
            print(
                f"{levels:>6} {seed:>4} {rec.iterations:>5} "
                f"{rec.timings['solve_seconds']:>8.2f} {rec.peak_vector_count:>4} "
                f"{rec.memory['solver_vector_bytes'] / 1e6:>6.1f}  {flag}",
                flush=True,
            )


if __name__ == "__main__":
    main()
