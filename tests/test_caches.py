"""The tables that depend only on (dim, degree, rule, cells per axis) are
built once per process and shared; the per-run index arrays are not."""

import json
import os
import subprocess
import sys

import numpy as np

from conftest import make_system
from gmgstokes import multigrid
from gmgstokes.bench import RunConfig, run_benchmark
from gmgstokes.fem import make_gauss_rule, tabulate
from gmgstokes.mesh import build_hierarchy, lattice
from gmgstokes.operators import _element_matrices

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# every record field but the wall-clock and process ones
PER_PROCESS = ("timings", "environment")
FRESH_RUN = """
import json
from gmgstokes.bench import RunConfig, run_benchmark
print(json.dumps(run_benchmark(RunConfig(dim=3, levels=2)).to_dict()))
"""


def _comparable(record: dict) -> dict:
    return {k: v for k, v in json.loads(json.dumps(record)).items() if k not in PER_PROCESS}


def test_record_after_other_runs_equals_a_fresh_process():
    # runs of other (dim, levels) fill the caches first, as a sweep does
    for dim, levels in ((2, 3), (3, 1), (2, 1)):
        run_benchmark(RunConfig(dim=dim, levels=levels))
    here = _comparable(run_benchmark(RunConfig(dim=3, levels=2)).to_dict())
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fresh = _comparable(json.loads(proc.stdout))
    assert here == fresh


def test_second_call_returns_the_cached_read_only_tables():
    rule = make_gauss_rule(3, 3)
    assert make_gauss_rule(3, 3) is rule
    assert lattice(5, 3) is lattice(5, 3)
    tables = tabulate(2, 3, rule)
    assert tabulate(2, 3, rule) is tables
    elements = _element_matrices(3, rule)
    assert _element_matrices(3, rule) is elements
    # two hierarchies of different depth share the embeddings of their
    # common levels, keyed by degree and coarse cells per axis
    for degree in (1, 2):
        short = multigrid.build_transfer_plan(build_hierarchy(3, 3), degree).matrices
        deep = multigrid.build_transfer_plan(build_hierarchy(3, 4), degree).matrices
        assert all(a is b for a, b in zip(short[1:], deep[1:]))
        for mat in deep[1:]:
            assert not mat.flags.writeable
    for table in (
        rule.points, rule.weights, tables.values, tables.grads,
        elements.A, elements.B, elements.Mp, lattice(5, 3),
    ):
        assert not table.flags.writeable
    # the smoothers read the bounds that the element matrices carry
    system = make_system(3, 3)
    assert all(ctx.elements is elements for ctx in system.contexts)
    for which, lam in (("A", elements.lam_A), ("Mp", elements.lam_Mp)):
        assert multigrid.smoother(system.active, which).lam_max == lam


def test_level_index_arrays_stay_writeable():
    # numpy's take and bincount copy a read-only index array on every call:
    # on 3D L4 that made take 0.39 -> 0.71 ms and bincount 0.78 -> 0.96 ms,
    # each with 2.65 MB more allocated, so the dof maps are built per run
    for dim in (2, 3):
        for ctx in make_system(dim, 3).contexts:
            for index in (ctx.u_map, ctx.p_map, ctx.u_constrained, ctx.u_flat, ctx.p_flat):
                assert index.flags.writeable
            # the flat maps are views, so the memory report counts them once
            assert np.shares_memory(ctx.u_flat, ctx.u_map)
            assert np.shares_memory(ctx.p_flat, ctx.p_map)
