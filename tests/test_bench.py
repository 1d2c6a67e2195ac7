import json
import os
import subprocess
import sys

import jsonschema
import pytest

from gmgstokes.bench import (
    CSV_COLUMNS,
    THREAD_VARS,
    RunConfig,
    apply_config_entries,
    derive_seed,
    main,
    parse_config_file,
    records_to_csv,
    run_benchmark,
    sweep,
    write_record,
)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
SCHEMA_PATH = os.path.join(SRC_DIR, "gmgstokes", "run_record_schema.json")


def small_cfg(**kw):
    base = dict(dim=2, levels=2, sinkers=1, dynamic_ratio=100.0, seed=3, max_iters=200)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_run_record_validates_against_schema(schema):
    rec = run_benchmark(small_cfg())
    assert rec.converged
    jsonschema.validate(rec.to_dict(), schema)


def test_zero_sinkers_trivial_solve():
    rec = run_benchmark(small_cfg(sinkers=0, dynamic_ratio=1.0))
    assert rec.converged
    assert rec.iterations == 0
    assert rec.initial_residual == 0.0


def test_true_residual_matches_claimed_within_factor_two():
    rec = run_benchmark(small_cfg(levels=3))
    assert rec.converged
    assert rec.true_final_residual <= 2.0 * rec.config["reduction"] * rec.initial_residual
    assert "residual_check_failed" not in rec.flag


def test_solver_vector_bytes_formula():
    rec = run_benchmark(small_cfg())
    mem = rec.memory
    assert mem["solver_vector_bytes"] == rec.peak_vector_count * rec.n_dofs * 8
    assert mem["application_vector_count"] == 4
    assert mem["application_vector_bytes"] == 4 * rec.n_dofs * 8
    for key in ("mesh_bytes", "dofmap_bytes", "constraint_bytes", "multigrid_aux_bytes"):
        assert mem[key] > 0


def test_gmres_vs_idr_vector_accounting():
    # same problem: gmres keeps the restart-bounded basis, idr(2) keeps 11
    base = dict(levels=3, sinkers=2, dynamic_ratio=1e4, schur="vcycle", seed=5)
    rec_g = run_benchmark(small_cfg(solver="gmres", **base))
    rec_i = run_benchmark(small_cfg(solver="idr", **base))
    assert rec_g.converged and rec_i.converged
    assert rec_i.peak_vector_count == 11
    assert rec_g.peak_vector_count == min(rec_g.iterations, rec_g.config["restart"]) + 1
    assert abs(rec_i.precond_applications - 3 * rec_i.iterations) <= 1


def test_gmres_with_cg_schur_rejected():
    with pytest.raises(ValueError):
        run_benchmark(small_cfg(solver="gmres", schur="cg"))


def test_sweep_deterministic_and_complete(tmp_path):
    axes = {"dynamic_ratio": [10.0, 100.0], "precond_shape": ["triangular", "diagonal"]}
    recs1 = sweep(small_cfg(), axes, master_seed=7)
    recs2 = sweep(small_cfg(), axes, master_seed=7)
    assert len(recs1) == 4
    csv1 = records_to_csv(recs1)
    csv2 = records_to_csv(recs2)
    assert csv1 == csv2
    assert csv1.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv1.splitlines()) == 5
    # per-row seeds derive from the master seed
    assert recs1[0].config["seed"] == derive_seed(7, 0)
    assert recs1[3].config["seed"] == derive_seed(7, 3)
    # a different master seed changes the rows
    recs3 = sweep(small_cfg(), axes, master_seed=8)
    assert records_to_csv(recs3) != csv1


def test_sweep_records_failures_and_continues():
    axes = {"schur": ["cg", "vcycle"]}
    recs = sweep(small_cfg(solver="gmres"), axes, master_seed=1)
    assert len(recs) == 2
    assert recs[0].error != ""  # gmres + cg_mass is rejected
    assert recs[1].converged


def test_iterations_nondecreasing_in_dr_within_sweep():
    axes = {"dynamic_ratio": [1e2, 1e4]}
    recs = sweep(small_cfg(levels=4, sinkers=8, max_iters=500), axes, master_seed=2)
    assert all(r.converged for r in recs)
    assert recs[0].iterations <= recs[1].iterations


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "# comment\nn_sinkers = 3\ndynamic_ratio = 1e3\nseed = 9\n"
        "delta = 150\nomega = 0.2\nbeta = 5\n"
        "solver = idr\nschur = vcycle\ncenters = 0.25,0.25; 0.5,0.5 ; 0.75,0.75\n"
    )
    cfg = apply_config_entries(RunConfig(dim=2, levels=2), parse_config_file(str(path)))
    assert cfg.sinkers == 3
    assert cfg.dynamic_ratio == 1000.0
    assert cfg.seed == 9
    assert (cfg.delta, cfg.omega, cfg.beta) == (150.0, 0.2, 5.0)
    assert cfg.solver == "idr"
    assert cfg.centers == [[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]]


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("unknown_key = 1\n")
    with pytest.raises(ValueError):
        apply_config_entries(RunConfig(), parse_config_file(str(path)))


def test_cli_run_json(tmp_path, schema):
    out = tmp_path / "record.json"
    code = main(
        [
            "run", "--dim", "2", "--levels", "2", "--sinkers", "1",
            "--dynamic-ratio", "100", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema)
    assert data["converged"] is True


def test_cli_run_csv(tmp_path):
    out = tmp_path / "record.csv"
    code = main(
        [
            "run", "--dim", "2", "--levels", "2", "--sinkers", "1",
            "--dynamic-ratio", "100", "--seed", "3", "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--dim", "2", "--levels", "2", "--sinkers", "1",
            "--sweep-dynamic-ratio", "10,100", "--master-seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_nonconverged_exit_code():
    code = main(
        [
            "run", "--dim", "2", "--levels", "3", "--sinkers", "4",
            "--dynamic-ratio", "1e6", "--max-iters", "3", "--out", os.devnull,
        ]
    )
    assert code == 2


def test_cli_config_error_exit_code():
    code = main(["run", "--solver", "gmres", "--schur", "cg", "--out", os.devnull])
    assert code == 1


def test_write_record_csv_appends_header_once(tmp_path):
    rec = run_benchmark(small_cfg())
    path = tmp_path / "out.csv"
    write_record(rec, str(path), "csv")
    write_record(rec, str(path), "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def _subprocess_env(**extra):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_bench_import_does_not_load_numpy():
    # the CLI sizes the BLAS pools, which only works before numpy loads
    code = "import sys, gmgstokes.bench; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("flag", [["--threads", "3"], ["--threads=3"]])
def test_cli_threads_flag_overrides_preset_environment(tmp_path, schema, flag):
    out = tmp_path / "record.json"
    preset = {var: "7" for var in THREAD_VARS}
    proc = subprocess.run(
        [
            sys.executable, "-m", "gmgstokes", "run", "--dim", "2", "--levels", "1",
            "--sinkers", "1", *flag, "--out", str(out),
        ],
        env=_subprocess_env(**preset), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema)
    assert data["config"]["threads"] == 3
    assert data["environment"]["threads"] == {var: "3" for var in THREAD_VARS}
    assert "environment" not in CSV_COLUMNS
