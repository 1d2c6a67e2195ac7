"""Solver benchmark for gmgstokes.

Run from the repository root:

    python3 perfbench/run.py --workload sinker3d-fgmres --seed 1 --seconds 35 --trace 0

Each run first sets up the workload and runs two solver iterations
untimed, so imports, first-call paths and the allocator's growth to the
workload's array sizes are paid outside the measurement.  With
``--trace 0`` the workload is then repeated, untraced, until ``--seconds``
would be exceeded (at least twice), and the end-to-end metrics are the
medians over the timed repeats; ``setup_s`` also takes the set-ups of five
solves cut short after one iteration.  With ``--trace 1`` it runs once untraced
and once under the span tracer, and the per-layer metrics come from the
traced run.  Every run is checked for correctness: each run record
must converge with no flag, reach the configured reduction in its true
residual and solve the documented number of DoF, and every repeat of one
seed must give the same iteration counts and residual histories.

The program's human-readable summary goes to standard output; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (environment, per-repeat figures and, when
traced, every span) is written to ``.bench_out/`` in the repository root.
The exit code is 0 when every check passes, 1 when a check fails and 2
when the benchmark cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "solve_s_per_iter": "s",
    "outer_iterations": "count",
    "peak_rss_mb": "MB",
}
MIN_REPEATS = 2
# set-up takes a few percent of a repeat, so extra set-ups from solves cut
# short after one iteration make its median steady at little cost
SETUP_SAMPLES = 5
OUT_DIR = ".bench_out"


def use_checkout_source() -> bool:
    """Pin the BLAS pools to one thread and import ``gmgstokes`` from the
    ``src/`` of the current directory; False (with a message) when that
    package is missing or another copy is imported instead."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gmgstokes", "bench.py")):
        print("error: src/gmgstokes not found; run from the repository root", file=sys.stderr)
        return False
    # the pools size themselves when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import gmgstokes

    if os.path.dirname(os.path.abspath(gmgstokes.__file__)) != os.path.join(src, "gmgstokes"):
        print(f"error: imported gmgstokes from {gmgstokes.__file__}", file=sys.stderr)
        return False
    return True


def environment() -> dict:
    """The settings actually in effect in this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = ""
    if os.path.exists(".git"):  # an exported checkout has no history to ask
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Checked:
    """Runs repeats of one workload and seed, gating every run record and
    comparing every repeat's iteration counts and residual histories with
    the first repeat's."""

    def __init__(self, workload: dict, seed: int):
        import workloads

        self.workload, self.seed = workload, seed
        self.params = workloads.run_params(workload, seed)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self._first = None

    def run(self, label: str) -> tuple[float, list]:
        import workloads

        wall, records = workloads.run_once(self.workload, self.params, self.seed)
        self.attempted += len(records)
        for rec in records:
            reasons = workloads.gate(self.workload, rec)
            self.failed += bool(reasons)
            self.failures += [f"{label}: {why}" for why in reasons]
        fp = workloads.fingerprint(records)
        if self._first is None:
            self._first = fp
        elif fp != self._first:
            self.failures.append(f"{label}: iterations or residuals differ from the first repeat")
        return wall, records

    def result(self, metrics: dict, **extra) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": metrics,
            **extra,
        }


def measure(checked: Checked, seconds: float) -> dict:
    """Set-up samples from solves cut short, then untraced timed repeats
    until the next one would overrun ``seconds``."""
    import workloads

    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_SAMPLES):
        wall, records = workloads.run_once(
            checked.workload, checked.params, checked.seed, max_iters=1
        )
        setups.append(workloads.summarize(wall, records).setup_s)
    repeats = []
    while True:
        repeats.append(workloads.summarize(*checked.run(f"repeat {len(repeats)}")))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + typical > seconds:
            break
    med = statistics.median
    values = {
        "time_to_solution_s": med(r.wall_s for r in repeats),
        "setup_s": med(setups + [r.setup_s for r in repeats]),
        "solve_s": med(r.solve_s for r in repeats),
        "solve_s_per_iter": med(r.solve_s / max(r.iterations, 1) for r in repeats),
        "outer_iterations": repeats[0].iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return checked.result(metrics, repeats=[vars(r) for r in repeats])


def trace(checked: Checked) -> dict:
    """One untraced and one traced repeat; per-layer metrics and checks."""
    import tracer

    untraced_wall, _ = checked.run("untraced")
    tr = tracer.Tracer()
    with tr:
        traced_wall, records = checked.run("traced")
    values, cross = tracer.analyse(tr, records, traced_wall, untraced_wall)
    checked.failures += cross
    if values["trace.coverage"] < 0.95:
        checked.failures.append(f"trace coverage {values['trace.coverage']:.4f} < 0.95")
    metrics = {k: {"value": v, "unit": tracer.metric_unit(k)} for k, v in values.items()}
    walls = {"untraced_s": untraced_wall, "traced_s": traced_wall}
    return checked.result(metrics, walls=walls, spans=tr.dump())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_source():
        return 2

    import workloads

    spec = workloads.load_spec()
    if args.workload not in spec["workloads"]:
        names = ", ".join(spec["workloads"])
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed

    env = environment()
    checked = Checked(workload, seed)
    try:
        # an untimed solve cut short after two iterations pays for imports,
        # first-call paths and the allocator's growth to the workload's sizes
        workloads.run_once(workload, checked.params, seed, max_iters=2)
        result = trace(checked) if args.trace else measure(checked, args.seconds)
    except Exception as exc:  # a raising run fails the benchmark, reported below
        checked.failed += 1
        checked.attempted += 1
        checked.failures.append(f"raised {type(exc).__name__}: {exc}")
        result = checked.result({}, traceback=traceback.format_exc())

    attempted, failed = result["attempted"], result["failed"]
    correct = not result["failures"]
    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "failed_fraction": failed / attempted,
        **result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  failed_fraction = {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for why in result["failures"]:
        print(f"FAIL {why}")
    print(f"report written to {out_path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
