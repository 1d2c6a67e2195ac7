import os
import subprocess
import sys

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
