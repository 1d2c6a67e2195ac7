import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_tracer_selftest_passes():
    # the benchmark's tracer reads the hierarchy layout (level 0's component
    # count, the coarse CG under the level-0 V-cycle call), so the package
    # must keep passing its self-test
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tracer self-test passed" in proc.stdout


# one traced 2D levels=2 run of the outer solver and Schur choice given
# on the command line, through the harness's own path
TRACED_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
import run
assert run.use_checkout_source()
config = {"dim": 2, "levels": 2, "solver": sys.argv[1], "schur": sys.argv[2]}
workload = {"kind": "run", "config": config, "base_seeds": [1], "dofs": {"2": 187}}
result = run.trace(run.Checked(workload, 1))
values = {k: m["value"] for k, m in result["metrics"].items()}
print(json.dumps({"failures": result["failures"], "values": values}))
"""


@pytest.mark.parametrize("solver, schur", [("fgmres", "cg"), ("gmres", "vcycle"), ("idr", "diag")])
def test_traced_setup_functions_are_timed(solver, schur):
    # the tracer finds the set-up functions by name and times every call,
    # so each one that a run reaches reports a nonzero time; and its
    # cross-checks of the outer matvecs, preconditioner applications,
    # top-level V-cycles and Schur CG iterations against the run record
    # hold for every outer solver, each of which receives the preconditioner
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, solver, schur],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failures"] == []
    for name in (
        "fem.distribute_dofs.s",
        "viscosity.average_active_viscosity.s",
        "viscosity.restrict_viscosity.s",
        "operators.StokesSystem.init.s",
        "operators.assemble_rhs.s",
    ):
        assert out["values"][name] > 0.0, name
