import csv
import dataclasses
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from gmgstokes import __version__
from gmgstokes.bench import (
    CSV_COLUMNS,
    CHOICES,
    THREAD_VARS,
    RunConfig,
    RunRecord,
    derive_seed,
    main,
    read_config_file,
    records_to_csv,
    run_benchmark,
    sweep,
)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
SCHEMA_PATH = os.path.join(SRC_DIR, "gmgstokes", "run_record_schema.json")
# the CSV layout is part of the output contract, so it is pinned literally
CSV_HEADER = (
    "dim,levels,sinkers,dynamic_ratio,delta,omega,beta,seed,solver,idr_s,"
    "precond_shape,schur,restart,reduction,max_iters,threads,n_u,n_p,n_dofs,"
    "iterations,converged,flag,precond_applications,matvec_count,peak_vector_count,"
    "inner_schur_iterations,initial_residual,final_residual,true_final_residual,"
    "reduction_achieved,mesh_bytes,dofmap_bytes,constraint_bytes,solver_vector_bytes,"
    "application_vector_bytes,multigrid_aux_bytes,vcycle_count,"
    "model_flops_per_vcycle,model_flops_per_dof,error,package_version"
)


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


def test_schema_describes_every_record_and_config_field(schema):
    # validation alone cannot tell, since the schema admits keys it does
    # not name; so every field needs a property, and the enums are CHOICES
    config = schema["properties"]["config"]["properties"]
    assert {f.name for f in dataclasses.fields(RunConfig)} <= set(config)
    assert {f.name for f in dataclasses.fields(RunRecord)} <= set(schema["properties"])
    for name, allowed in CHOICES.items():
        assert config[name]["enum"] == list(allowed), name


@pytest.mark.parametrize(
    "schur, smoothers",
    [("cg", {"velocity", "schur_mass_cg"}), ("vcycle", {"velocity", "mass"}), ("diag", {"velocity"})],
)
def test_run_record_reports_chebyshev_intervals(schema, schur, smoothers):
    rec = run_benchmark(small_cfg(schur=schur))
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    cheb = data["chebyshev"]
    assert set(cheb) == smoothers | {"degree"}
    assert cheb["degree"] == 5
    entries = [cheb["schur_mass_cg"]] if "schur_mass_cg" in cheb else []
    for hierarchy in ("velocity", "mass"):
        if hierarchy in cheb:
            # level 0 is solved exactly and has no smoother
            assert len(cheb[hierarchy]) == rec.config["levels"]
            entries += cheb[hierarchy]
    for e in entries:
        assert e["interval"] == [e["lam_max"] / 15, e["lam_max"]]
    assert "chebyshev" not in CSV_COLUMNS


@pytest.mark.parametrize("schur", ["cg", "vcycle"])
def test_run_record_reports_operator_calls_per_level(schema, schur):
    rec = run_benchmark(small_cfg(schur=schur))
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    calls = data["operator_calls"]
    assert len(calls) == rec.config["levels"] + 1
    degree = data["chebyshev"]["degree"]
    # each V-cycle applies its operator degree times on every level above
    # the coarsest; the active level also carries one A per outer matvec
    for level, c in enumerate(calls[1:], 1):
        outer = rec.matvec_count if level == len(calls) - 1 else 0
        assert c["apply_A"] == rec.vcycle_count * degree + outer, (level, c)
        if schur == "vcycle":
            assert c["apply_Mp"] == rec.precond_applications * degree, (level, c)
    assert "operator_calls" not in CSV_COLUMNS


def test_run_record_reports_no_inner_schur_failures_on_a_normal_run(schema):
    rec = run_benchmark(small_cfg())
    assert rec.converged and rec.inner_schur_iterations > 0
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    assert data["inner_schur_failures"] == 0
    assert "inner_schur_failures" not in CSV_COLUMNS


@pytest.mark.parametrize("schur", ["cg", "vcycle", "diag"])
def test_run_record_reports_inner_schur_iterations_per_application(schema, schur):
    solver = "fgmres" if schur == "cg" else "gmres"
    rec = run_benchmark(small_cfg(schur=schur, solver=solver))
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    per = data["inner_schur_iterations_per_application"]
    if schur == "cg":
        # one Schur application per preconditioner application; the first
        # sees the load's zero pressure part and runs no CG
        assert 0 < per["min"] <= per["mean"] <= per["max"] <= 3
        mean = data["inner_schur_iterations"] / (data["precond_applications"] - 1)
        assert per["mean"] == pytest.approx(mean, rel=1e-15)
    else:
        assert per == {"min": 0, "mean": 0.0, "max": 0}
    assert "inner_schur_iterations_per_application" not in CSV_COLUMNS


def test_run_record_reports_the_blas_library(schema):
    rec = run_benchmark(small_cfg())
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert data["environment"]["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert "environment" not in CSV_COLUMNS


def test_run_record_reports_forced_inner_schur_failures(schema, monkeypatch):
    from gmgstokes import precond

    monkeypatch.setattr(precond, "SCHUR_CG_MAX_ITERS", 1)
    rec = run_benchmark(small_cfg())
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    # every Schur application stopped at one CG iteration; the ones that
    # missed the inner tolerance are counted
    assert 0 < data["inner_schur_failures"] <= data["inner_schur_iterations"]


def test_run_record_reports_worst_coarse_cg_count(schema, monkeypatch):
    from gmgstokes import krylov

    seen = []
    cg = krylov.cg

    def counting_cg(*args, **kwargs):
        x, stats = cg(*args, **kwargs)
        seen.append(stats.iterations)
        return x, stats

    monkeypatch.setattr(krylov, "cg", counting_cg)
    rec = run_benchmark(small_cfg(solver="idr", schur="vcycle"))
    data = json.loads(json.dumps(rec.to_dict()))
    jsonschema.validate(data, schema)
    worst = data["coarse_cg_iters_max"]
    assert set(worst) == {"velocity", "mass"}
    # with the mass V-cycle as Schur solve, every CG is a coarse solve
    assert max(worst.values()) == max(seen) > 0
    # the coarse CG is preconditioned by the exact level-0 inverse
    assert worst == {"velocity": 1, "mass": 1}
    assert "coarse_cg_iters_max" not in CSV_COLUMNS


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
    # FGMRES with the block preconditioner: the Arnoldi basis in full-length
    # vectors and the preconditioned basis in pressure parts
    rec = run_benchmark(small_cfg())
    mem = rec.memory
    rows = min(rec.iterations, rec.config["restart"])
    assert rec.peak_vector_count == mem["solver_vector_count"] == rows + 1
    assert mem["solver_pressure_vector_count"] == rows
    assert mem["solver_vector_bytes"] == (rows + 1) * rec.n_dofs * 8 + rows * rec.n_p * 8
    assert mem["application_vector_count"] == 3
    assert mem["application_vector_bytes"] == 3 * rec.n_dofs * 8
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
    assert csv1.splitlines()[0] == CSV_HEADER
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
    assert recs[0].error.startswith("ValueError: schur='cg'")  # gmres + cg is rejected
    assert recs[1].converged


def test_iterations_nondecreasing_in_dr_within_sweep():
    axes = {"dynamic_ratio": [1e2, 1e4]}
    recs = sweep(small_cfg(levels=4, sinkers=8, max_iters=500), axes, master_seed=2)
    assert all(r.converged for r in recs)
    assert recs[0].iterations <= recs[1].iterations


# every scalar setting, each away from its default, with its parsed type
NON_DEFAULT_SETTINGS = {
    "dim": 2,
    "levels": 2,
    "sinkers": 3,
    "dynamic_ratio": 1000.0,
    "delta": 150.0,
    "omega": 0.2,
    "beta": 5.0,
    "seed": 9,
    "solver": "idr",
    "idr_s": 4,
    "precond_shape": "diagonal",
    "schur": "vcycle",
    "restart": 30,
    "reduction": 1e-8,
    "max_iters": 77,
    "threads": 2,
}


def _assert_settings(config):
    settable = {f.name for f in dataclasses.fields(RunConfig)} - {"centers"}
    assert set(NON_DEFAULT_SETTINGS) == settable
    for name, value in NON_DEFAULT_SETTINGS.items():
        got = config[name]
        assert got == value and type(got) is type(value), name


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "# comment\ndim = 2\nlevels = 2\nn_sinkers = 3\ndynamic_ratio = 1e3\n"
        "delta = 150\nomega = 0.2\nbeta = 5\nseed = 9  # trailing comment\n"
        "solver = idr\nidr_s = 4\nprecond_shape = diagonal\nschur = vcycle\n"
        "restart = 30\nreduction = 1e-8\nmax_iters = 77\nthreads = 2\n"
        "centers = 0.25,0.25; 0.5,0.5 ; 0.75,0.75\n"
    )
    cfg = read_config_file(RunConfig(), str(path))
    _assert_settings(dataclasses.asdict(cfg))
    assert cfg.centers == [[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]]


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("unknown_key = 1\n")
    with pytest.raises(ValueError):
        read_config_file(RunConfig(), str(path))


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


def test_cli_flags_cover_every_setting(tmp_path, monkeypatch):
    for var in THREAD_VARS:  # --threads writes them; restore them afterwards
        monkeypatch.setenv(var, "1")
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in NON_DEFAULT_SETTINGS.items()]
    out = tmp_path / "record.json"
    assert main(["run", *flags, "--out", str(out)]) == 0
    _assert_settings(json.loads(out.read_text())["config"])


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
    assert lines[0] == CSV_HEADER
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


def test_cli_sweep_threads_with_swept_schur(tmp_path, monkeypatch):
    # the base setting pairs gmres with the default schur="cg", but every
    # row replaces the Schur choice, so --threads must not reject the base
    for var in THREAD_VARS:  # --threads writes them; restore them afterwards
        monkeypatch.setenv(var, "1")
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--dim", "2", "--levels", "1", "--sinkers", "1", "--solver", "gmres",
            "--threads", "1", "--sweep-schur", "vcycle,diag", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 3


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


@pytest.mark.parametrize(
    "flag",
    [
        ["--solver", "bogus"],
        ["--dim", "4"],
        ["--dim", "x"],
        ["--no-such-flag"],
        ["--format", "xml"],
        ["--max-iters", "0", "--dim", "2", "--levels", "1"],  # rejected before set-up
    ],
)
def test_cli_invalid_value_exit_code(flag):
    # 2 is kept for flagged or unconverged runs, so argparse's own usage
    # errors (--dim x, an unknown flag, --format xml) must not exit 2
    assert main(["run", *flag, "--out", os.devnull]) == 1


@pytest.mark.parametrize(
    "flag",
    [
        ["--max-iters", "0"],
        ["--restart", "0"],
        ["--idr-s", "0"],
        ["--reduction", "0"],
        ["--reduction", "1"],
        ["--reduction", "2"],
    ],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_bad_solve_setting_exits_before_setup(command, flag, monkeypatch):
    # krylov.SolveControl rejects these too, but only after the whole
    # set-up; a sweep would record every row as failed and exit 2
    from gmgstokes import mesh

    built = []
    monkeypatch.setattr(mesh, "build_hierarchy", lambda *args: built.append(args))
    args = [command, "--dim", "2", "--levels", "1", "--sinkers", "1", *flag]
    assert main([*args, "--out", os.devnull]) == 1
    assert built == []


def test_sweep_csv_quotes_error_text(tmp_path):
    # a failed row's error text holds commas, so each row must still parse
    # to the header's fields and give the text back
    path = tmp_path / "out.csv"
    args = ["sweep", "--dim", "2", "--levels", "1", "--sinkers", "1", "--sweep-schur", "cg,bogus"]
    assert main([*args, "--out", str(path)]) == 2
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 3
    with pytest.raises(ValueError) as exc:
        RunConfig(schur="bogus").validate()
    failed = dict(zip(CSV_COLUMNS, rows[2]))
    assert failed["error"] == f"ValueError: {exc.value}" and "," in failed["error"]
    assert failed["package_version"] == __version__


def test_cli_help_exit_code(capsys):
    assert main(["run", "--help"]) == 0
    assert "--dynamic-ratio" in capsys.readouterr().out


def test_cli_csv_run_appends_and_sweep_replaces(tmp_path):
    path = tmp_path / "out.csv"
    run = ["run", "--dim", "2", "--levels", "1", "--sinkers", "1", "--format", "csv"]
    assert main([*run, "--out", str(path)]) == 0
    assert main([*run, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3 and lines[1] == lines[2]
    sweep_args = ["sweep", "--dim", "2", "--levels", "1", "--sinkers", "1"]
    assert main([*sweep_args, "--sweep-dynamic-ratio", "10", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_cli_sweep_rejects_format(tmp_path):
    # --format selects a run's output; a sweep always writes CSV
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--dim", "2", "--levels", "1", "--format", "json", "--out", str(out)]
    assert main(args) == 1
    assert not out.exists()


def test_true_residual_checks_the_returned_solution(monkeypatch):
    # the record's true residual is that of the very vector the solver
    # returned, with nothing shifted or copied in between
    from gmgstokes import krylov

    seen = {}
    solve = krylov.fgmres

    def spy(op, precond, b, control):
        x, stats = solve(op, precond, b, control)
        seen.update(op=op, b=b, x=x)
        return x, stats

    monkeypatch.setattr(krylov, "fgmres", spy)
    rec = run_benchmark(small_cfg(levels=3, sinkers=2))
    assert rec.converged
    want = float(np.linalg.norm(seen["b"] - seen["op"](seen["x"])))
    assert rec.true_final_residual == want


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


def test_cli_threads_config_entry_overrides_preset_environment(tmp_path, schema):
    # a threads entry in --config sizes the pools as the flag does
    out = tmp_path / "record.json"
    conf = tmp_path / "run.conf"
    conf.write_text("threads = 3\n")
    preset = {var: "7" for var in THREAD_VARS}
    proc = subprocess.run(
        [
            sys.executable, "-m", "gmgstokes", "run", "--dim", "2", "--levels", "1",
            "--sinkers", "1", "--config", str(conf), "--out", str(out),
        ],
        env=_subprocess_env(**preset), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema)
    assert data["config"]["threads"] == 3
    assert data["environment"]["threads"] == {var: "3" for var in THREAD_VARS}


def _cap_coarse_solves(monkeypatch):
    """Make every hierarchy's coarse CG report that it did not converge.
    A cap on its iterations cannot do it: one iteration converges, since
    it is preconditioned by the exact inverse, and a cap below one is
    rejected."""
    from gmgstokes import multigrid

    solve = multigrid.CoarseLevel.solve

    def unconverged(self, b, control):
        x, stats = solve(self, b, control)
        stats.converged = False
        return x, stats

    monkeypatch.setattr(multigrid.CoarseLevel, "solve", unconverged)


def test_unconverged_coarse_solve_flags_the_run(monkeypatch):
    cfg = dict(solver="idr", schur="vcycle")
    assert "coarse_solve_unconverged" not in run_benchmark(small_cfg(**cfg)).flag
    _cap_coarse_solves(monkeypatch)
    rec = run_benchmark(small_cfg(**cfg))
    assert "coarse_solve_unconverged" in rec.flag.split(";")


def test_cli_flagged_run_exit_code(tmp_path, monkeypatch):
    _cap_coarse_solves(monkeypatch)
    out = tmp_path / "record.json"
    code = main(
        [
            "run", "--dim", "2", "--levels", "2", "--sinkers", "1",
            "--dynamic-ratio", "100", "--seed", "3", "--solver", "idr",
            "--schur", "vcycle", "--out", str(out),
        ]
    )
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert "coarse_solve_unconverged" in data["flag"].split(";")
    assert code == 2


def test_false_convergence_flags_residual_check_failed(tmp_path, monkeypatch):
    # FGMRES claims convergence but hands back 1.5 times its solution, so
    # the true residual is half the right-hand side: the record and the
    # exit code must show it
    from gmgstokes import krylov

    solve = krylov.fgmres

    def skewed(*args, **kwargs):
        x, stats = solve(*args, **kwargs)
        return 1.5 * x, stats

    monkeypatch.setattr(krylov, "fgmres", skewed)
    rec = run_benchmark(small_cfg())
    assert rec.converged
    assert rec.reduction_achieved == pytest.approx(0.5, rel=1e-9)
    assert "residual_check_failed" in rec.flag.split(";")
    out = tmp_path / "record.json"
    code = main(
        [
            "run", "--dim", "2", "--levels", "2", "--sinkers", "1",
            "--dynamic-ratio", "100", "--seed", "3", "--out", str(out),
        ]
    )
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert "residual_check_failed" in data["flag"].split(";")
    assert code == 2
