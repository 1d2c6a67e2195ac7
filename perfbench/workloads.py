"""The benchmark workloads: inputs made from the seed, one timed repeat
through the public ``gmgstokes.bench`` API, and the correctness gate.

Workload parameters live in ``workloads.json`` beside this file, with the
DoF count and depth of each workload and which end-to-end metrics each
layer metric is expected to move; why each workload exists is its ``why``
line in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mirror_images(dim: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(axis permutation, reflected axes) pairs that map the unit box onto
    itself and keep the last (gravity) axis: permutations of the other
    axes times reflections of any subset of them.  The identity is first."""
    across = range(dim - 1)
    out = []
    for perm in itertools.permutations(across):
        for flips in itertools.product((0, 1), repeat=dim - 1):
            out.append((perm + (dim - 1,), tuple(a for a in across if flips[a])))
    return out


def run_params(workload: dict, seed: int) -> dict:
    """``RunConfig`` arguments for one seed.  For a single run, seeds 1, 2,
    ... walk the workload's ``base_seeds`` (the layouts ``sinker_config``
    draws with them), then walk them again under the next mirror image, so
    the inputs repeat only with period ``len(base_seeds) * len(images)``.
    Computed before any timing or tracing, so drawing the layout is not
    part of the measured program."""
    from gmgstokes.bench import RunConfig
    from gmgstokes.viscosity import sinker_config

    params = dict(workload["config"])
    if workload["kind"] != "run":
        return params
    bases = workload["base_seeds"]
    cfg = RunConfig(**params)
    images = mirror_images(cfg.dim)
    index = (seed - 1) % (len(bases) * len(images))
    params["seed"] = bases[index % len(bases)]
    perm, flipped = images[index // len(bases)]
    base = sinker_config(
        cfg.dim, cfg.sinkers, cfg.dynamic_ratio, seed=params["seed"], omega=cfg.omega
    )
    centers = base.centers[:, list(perm)].copy()
    for axis in flipped:
        centers[:, axis] = 1.0 - centers[:, axis]
    params["centers"] = centers.tolist()
    return params


def run_once(
    workload: dict, params: dict, seed: int, max_iters: int | None = None
) -> tuple[float, list]:
    """One repeat of the workload with the ``RunConfig`` arguments
    ``params``; ``seed`` is the sweep's master seed.  Returns its wall time
    and its run records.  ``max_iters`` cuts every solve short, for a
    warm-up.  ``bench`` is looked up at call time so a tracer can wrap it."""
    from gmgstokes import bench

    cfg = bench.RunConfig(**params)
    if max_iters is not None:
        cfg.max_iters = max_iters
    t0 = time.perf_counter()
    if workload["kind"] == "run":
        records = [bench.run_benchmark(cfg)]
    else:
        records = bench.sweep(cfg, workload["axes"], master_seed=seed)
    return time.perf_counter() - t0, records


def gate(workload: dict, rec) -> list[str]:
    """Reasons a run record counts as failed; empty when it is correct."""
    cfg = rec.config
    if rec.error:
        return [f"raised {rec.error}"]
    reasons = []
    if not rec.converged:
        reasons.append("not converged")
    if rec.flag:
        reasons.append(f"flag {rec.flag!r}")
    if not rec.reduction_achieved <= cfg["reduction"]:
        reasons.append(f"reduction {rec.reduction_achieved:.3e} > {cfg['reduction']:.1e}")
    expected = workload["dofs"].get(str(cfg["levels"]))
    if rec.n_dofs != expected:
        reasons.append(f"{rec.n_dofs} DoF, expected {expected}")
    if len(rec.residual_history) != rec.iterations:
        reasons.append("residual history length differs from the iteration count")
    return reasons


def fingerprint(records: list) -> list:
    """What must repeat exactly for the same seed: per run, the outer
    iteration count and the whole residual history."""
    return [(r.iterations, list(r.residual_history)) for r in records]


@dataclasses.dataclass
class Repeat:
    wall_s: float
    setup_s: float
    solve_s: float
    iterations: int


def summarize(wall_s: float, records: list) -> Repeat:
    setup = sum(
        r.timings.get("setup_seconds", 0.0) + r.timings.get("assemble_seconds", 0.0)
        for r in records
    )
    solve = sum(r.timings.get("solve_seconds", 0.0) for r in records)
    return Repeat(wall_s, setup, solve, sum(r.iterations for r in records))
