"""Benchmark driver: sinker problem sweeps with machine-readable output.

Builds the hierarchy, viscosity field, matrix-free operators and block
preconditioner for one configuration, solves to the requested residual
reduction, and emits a run record as JSON and/or a CSV row.  A sweep runs
the cross product of axis values with per-row seeds derived from a master
seed, so repeated sweeps are bit-identical.

Heavy imports happen inside functions, and the package re-exports load
lazily, so the command line can size the BLAS thread pools before numpy
loads (the ``--threads`` flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field

PACKAGE_VERSION = "0.1.0"

SCHUR_MAP = {"cg": "cg_mass", "vcycle": "vcycle_mass", "diag": "diag_mass"}
# application-owned full-length vectors held by the driver during a solve:
# solution, right-hand side, true-residual check, pressure-normalization scratch
APPLICATION_VECTORS = 4
# environment variables that size the BLAS/OpenMP pools when numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CSV_COLUMNS = [
    "dim",
    "levels",
    "sinkers",
    "dynamic_ratio",
    "delta",
    "omega",
    "beta",
    "seed",
    "solver",
    "idr_s",
    "precond_shape",
    "schur",
    "restart",
    "reduction",
    "max_iters",
    "threads",
    "n_u",
    "n_p",
    "n_dofs",
    "iterations",
    "converged",
    "flag",
    "precond_applications",
    "matvec_count",
    "peak_vector_count",
    "inner_schur_iterations",
    "initial_residual",
    "final_residual",
    "true_final_residual",
    "reduction_achieved",
    "mesh_bytes",
    "dofmap_bytes",
    "constraint_bytes",
    "solver_vector_bytes",
    "application_vector_bytes",
    "multigrid_aux_bytes",
    "vcycle_count",
    "model_flops_per_vcycle",
    "model_flops_per_dof",
    "error",
    "package_version",
]


@dataclass
class RunConfig:
    dim: int = 3
    levels: int = 4  # refinements of the active mesh (hierarchy depth levels+1)
    sinkers: int = 4
    dynamic_ratio: float = 1e4
    delta: float = 200.0
    omega: float = 0.1
    beta: float = 10.0
    seed: int = 1
    centers: list | None = None
    solver: str = "fgmres"
    idr_s: int = 2
    precond_shape: str = "triangular"
    schur: str = "cg"
    restart: int = 50
    reduction: float = 1e-6
    max_iters: int = 1000
    threads: int = 1

    def validate(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.solver not in ("gmres", "fgmres", "idr"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.schur not in SCHUR_MAP:
            raise ValueError(f"unknown schur option {self.schur!r}")
        if self.precond_shape not in ("triangular", "diagonal"):
            raise ValueError(f"unknown precond shape {self.precond_shape!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class RunRecord:
    config: dict
    n_u: int = 0
    n_p: int = 0
    n_dofs: int = 0
    iterations: int = 0
    converged: bool = False
    flag: str = ""
    precond_applications: int = 0
    matvec_count: int = 0
    peak_vector_count: int = 0
    inner_schur_iterations: int = 0
    initial_residual: float = 0.0
    final_residual: float = 0.0
    true_final_residual: float = 0.0
    reduction_achieved: float = 0.0
    residual_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)
    vcycle_count: int = 0
    model_flops_per_vcycle: float = 0.0
    model_flops_per_dof: float = 0.0
    error: str = ""
    environment: dict = field(default_factory=dict)  # JSON only, not a CSV column

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def csv_row(self) -> list:
        cfg = self.config
        vals = {
            **{k: cfg.get(k, "") for k in cfg},
            "n_u": self.n_u,
            "n_p": self.n_p,
            "n_dofs": self.n_dofs,
            "iterations": self.iterations,
            "converged": self.converged,
            "flag": self.flag,
            "precond_applications": self.precond_applications,
            "matvec_count": self.matvec_count,
            "peak_vector_count": self.peak_vector_count,
            "inner_schur_iterations": self.inner_schur_iterations,
            "initial_residual": self.initial_residual,
            "final_residual": self.final_residual,
            "true_final_residual": self.true_final_residual,
            "reduction_achieved": self.reduction_achieved,
            "mesh_bytes": self.memory.get("mesh_bytes", 0),
            "dofmap_bytes": self.memory.get("dofmap_bytes", 0),
            "constraint_bytes": self.memory.get("constraint_bytes", 0),
            "solver_vector_bytes": self.memory.get("solver_vector_bytes", 0),
            "application_vector_bytes": self.memory.get("application_vector_bytes", 0),
            "multigrid_aux_bytes": self.memory.get("multigrid_aux_bytes", 0),
            "vcycle_count": self.vcycle_count,
            "model_flops_per_vcycle": self.model_flops_per_vcycle,
            "model_flops_per_dof": self.model_flops_per_dof,
            "error": self.error,
            "package_version": PACKAGE_VERSION,
        }
        return [vals.get(c, "") for c in CSV_COLUMNS]


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(str(v) for v in rec.csv_row()))
    return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment.  Keys mirror the CLI
    flags plus the viscosity keys n_sinkers, dynamic_ratio, delta, omega,
    beta, seed, and an optional centers list 'x,y[,z];x,y[,z];...'."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


_CONFIG_INT = {"dim", "levels", "sinkers", "n_sinkers", "seed", "idr_s", "restart", "max_iters", "threads"}
_CONFIG_FLOAT = {"dynamic_ratio", "delta", "omega", "beta", "reduction"}


def apply_config_entries(cfg: RunConfig, entries: dict) -> RunConfig:
    for key, val in entries.items():
        name = "sinkers" if key == "n_sinkers" else key
        if name == "centers":
            cfg.centers = [
                [float(c) for c in point.split(",")] for point in val.split(";") if point.strip()
            ]
            continue
        if not hasattr(cfg, name):
            raise ValueError(f"unknown config key {key!r}")
        if name in _CONFIG_INT:
            setattr(cfg, name, int(val))
        elif name in _CONFIG_FLOAT:
            setattr(cfg, name, float(val))
        else:
            setattr(cfg, name, str(val))
    return cfg


def derive_seed(master_seed: int, index: int) -> int:
    """Documented splitmix-style per-row seed derivation."""
    state = (master_seed * 6364136223846793005 + (index + 1) * 1442695040888963407) % 2**63
    state ^= state >> 31
    return state % 2**31


# ---------------------------------------------------------------------------


def _flops_per_apply_A(ctx) -> float:
    """Arithmetic model of one viscous-block application on a level: the
    cell-batched GEMM with the (d*3^d)^2 element matrix, the per-cell
    viscosity scale and the scatter adds."""
    nc, n = ctx.u_map.shape
    return 2.0 * nc * n * n + 2.0 * nc * n


def memory_report(problem: dict) -> dict:
    """Instrumented byte counts per category; solver vector bytes follow
    peak_vector_count x vector length x 8."""
    system = problem["system"]
    n = system.n_dofs
    mesh_bytes = sum(ctx.lattices.nbytes for ctx in system.contexts)
    # scalar maps, plus what the operators hold: each level's combined
    # velocity map and gather scratch, and the shared element matrices
    dof_bytes = sum(ld.q2_map.nbytes + ld.q1_map.nbytes for ld in system.dofmap.levels)
    dof_bytes += sum(
        ctx.u_map.nbytes + sum(w.nbytes for w in ctx.work) for ctx in system.contexts
    )
    dof_bytes += sum({id(c.elements): c.elements.nbytes for c in system.contexts}.values())
    cons_bytes = sum(ld.dirichlet_scalar.nbytes for ld in system.dofmap.levels)
    cons_bytes += sum(ctx.u_constrained.nbytes for ctx in system.contexts)
    mg_bytes = 0
    for mg in (problem.get("velocity_mg"), problem.get("mass_mg")):
        if mg is None:
            continue
        plan = mg.plan
        mg_bytes += plan.child_mats.nbytes
        mg_bytes += sum(t.nbytes for t in plan.child_cells if t is not None)
        mg_bytes += sum(m.nbytes for m in plan.mult)
        mg_bytes += sum(lv.diag.nbytes for lv in mg.levels)
    for vals in system.visc.values:
        if vals is not None:
            mg_bytes += vals.nbytes
    peak = problem["stats"].peak_vector_count if "stats" in problem else 0
    return {
        "mesh_bytes": int(mesh_bytes),
        "dofmap_bytes": int(dof_bytes),
        "constraint_bytes": int(cons_bytes),
        "solver_vector_count": int(peak),
        "solver_vector_bytes": int(peak * n * 8),
        "application_vector_count": APPLICATION_VECTORS,
        "application_vector_bytes": int(APPLICATION_VECTORS * n * 8),
        "multigrid_aux_bytes": int(mg_bytes),
    }


def run_benchmark(cfg: RunConfig, out_path: str | None = None, fmt: str = "json") -> RunRecord:
    """Build, solve, and record one sinker benchmark configuration."""
    import numpy as np

    from . import krylov
    from .fem import BlockVector, distribute_dofs, make_gauss_rule
    from .mesh import build_hierarchy
    from .multigrid import (
        ChebyshevParams,
        build_mass_multigrid,
        build_transfer_plan,
        build_velocity_multigrid,
    )
    from .operators import StokesSystem, assemble_rhs
    from .precond import PrecondConfig, StokesPreconditioner, normalize_pressure
    from .viscosity import average_active_viscosity, restrict_viscosity, sinker_config

    cfg.validate()
    record = RunRecord(config=_config_echo(cfg))

    t0 = time.perf_counter()
    mesh = build_hierarchy(cfg.dim, cfg.levels + 1)
    dofmap = distribute_dofs(mesh)
    q2_plan = build_transfer_plan(mesh, dofmap, 2)
    q1_plan = build_transfer_plan(mesh, dofmap, 1) if cfg.schur == "vcycle" else None
    t_setup = time.perf_counter() - t0

    t1 = time.perf_counter()
    sk = sinker_config(
        cfg.dim,
        cfg.sinkers,
        cfg.dynamic_ratio,
        seed=cfg.seed,
        centers=cfg.centers,
        delta=cfg.delta,
        omega=cfg.omega,
        beta=cfg.beta,
    )
    record.config["centers"] = sk.centers.tolist()
    rule = make_gauss_rule(3, cfg.dim)
    visc = restrict_viscosity(average_active_viscosity(mesh, sk, rule), mesh)
    system = StokesSystem(mesh, dofmap, visc, rule)
    params = ChebyshevParams()
    pcfg = PrecondConfig(shape=cfg.precond_shape, s_inv=SCHUR_MAP[cfg.schur])
    solver_name = "idr_s" if cfg.solver == "idr" else cfg.solver
    pcfg.validate_solver(solver_name)
    velocity_mg = build_velocity_multigrid(system, params, q2_plan)
    mass_mg = build_mass_multigrid(system, params, q1_plan) if q1_plan else None
    precond = StokesPreconditioner(pcfg, system, params, velocity_mg, mass_mg)
    b = assemble_rhs(system.active, sk)
    b = normalize_pressure(b, system.pressure_weights())
    t_assemble = time.perf_counter() - t1

    record.n_u, record.n_p, record.n_dofs = system.n_u, system.n_p, system.n_dofs

    t2 = time.perf_counter()
    bf = b.flat()
    counters_before = {id(c): dict(c.counters) for c in system.contexts}
    ledger = krylov.VectorLedger()
    control = krylov.SolveControl(
        reduction_target=cfg.reduction, max_iters=cfg.max_iters, restart_length=cfg.restart
    )
    if cfg.solver == "gmres":
        x, stats = krylov.gmres(system.apply_flat, precond.apply_flat, bf, control, ledger)
    elif cfg.solver == "fgmres":
        x, stats = krylov.fgmres(system.apply_flat, precond.apply_flat, bf, control, ledger)
    else:
        x, stats = krylov.idr_s(
            system.apply_flat, precond.apply_flat, bf, cfg.idr_s, control, ledger
        )
    t_solve = time.perf_counter() - t2

    # flop model for the viscous-block work inside the V-cycles, taken
    # before any further operator applications
    vcycles = velocity_mg.n_vcycles
    mg_flops = 0.0
    for ctx in system.contexts:
        before = counters_before[id(ctx)].get("apply_A", 0)
        applies = ctx.counters.get("apply_A", 0) - before
        if ctx is system.active:
            applies -= stats.matvec_count  # outer operator applications
        mg_flops += applies * _flops_per_apply_A(ctx)
    record.vcycle_count = vcycles
    if vcycles:
        record.model_flops_per_vcycle = mg_flops / vcycles
        record.model_flops_per_dof = record.model_flops_per_vcycle / system.n_u

    sol = normalize_pressure(BlockVector.from_flat(x, system.n_u), system.pressure_weights())
    r_check = bf - system.apply_flat(sol.flat())
    b_norm = float(np.linalg.norm(bf))
    true_res = float(np.linalg.norm(r_check))

    record.iterations = stats.iterations
    record.converged = stats.converged
    record.flag = stats.flag
    record.precond_applications = stats.precond_applications
    record.matvec_count = stats.matvec_count
    record.peak_vector_count = stats.peak_vector_count
    record.inner_schur_iterations = precond.inner_iterations
    record.initial_residual = b_norm
    record.final_residual = float(stats.residual_history[-1]) if stats.residual_history else 0.0
    record.true_final_residual = true_res
    record.reduction_achieved = true_res / b_norm if b_norm > 0 else 0.0
    record.residual_history = [float(r) for r in stats.residual_history]
    if b_norm > 0 and record.converged:
        claimed = cfg.reduction
        if record.reduction_achieved > 2.0 * claimed:
            record.flag = (record.flag + ";residual_check_failed").lstrip(";")

    record.timings = {
        "setup_seconds": t_setup,
        "assemble_seconds": t_assemble,
        "solve_seconds": t_solve,
        "total_seconds": t_setup + t_assemble + t_solve,
        "threads": cfg.threads,
    }
    record.memory = memory_report(
        {"system": system, "velocity_mg": velocity_mg, "mass_mg": mass_mg, "stats": stats}
    )
    record.environment = {"threads": {var: os.environ.get(var) for var in THREAD_VARS}}

    if out_path:
        write_record(record, out_path, fmt)
    return record


def _config_echo(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["package_version"] = PACKAGE_VERSION
    return d


def write_record(record: RunRecord, path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record.to_dict(), fh, indent=2)
            fh.write("\n")
    else:
        new = not os.path.exists(path) or os.path.getsize(path) == 0
        with open(path, "a", encoding="utf-8") as fh:
            if new:
                fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.write(",".join(str(v) for v in record.csv_row()) + "\n")


SWEEP_AXES = ("levels", "sinkers", "dynamic_ratio", "precond_shape", "schur", "solver")


def sweep(base: RunConfig, axes: dict, master_seed: int = 1) -> list[RunRecord]:
    """Cross product of axis values in a fixed documented order; per-row
    seeds derive from the master seed, and individual failures are
    recorded without stopping the sweep."""
    for key in axes:
        if key not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {key!r}; choose from {SWEEP_AXES}")
    names = [a for a in SWEEP_AXES if a in axes]
    records = []
    combos = itertools.product(*[axes[n] for n in names])
    for index, combo in enumerate(combos):
        cfg = dataclasses.replace(base)
        for name, value in zip(names, combo):
            setattr(cfg, name, value)
        cfg.seed = derive_seed(master_seed, index)
        try:
            records.append(run_benchmark(cfg))
        except Exception as exc:  # record the failure, keep sweeping
            rec = RunRecord(config=_config_echo(cfg))
            rec.error = f"{type(exc).__name__}: {exc}"
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Command line


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p.add_argument("--levels", type=int, default=4, help="refinements of the active mesh")
    p.add_argument("--sinkers", type=int, default=4)
    p.add_argument("--dynamic-ratio", type=float, default=1e4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--solver", choices=("gmres", "fgmres", "idr"), default="fgmres")
    p.add_argument("--idr-s", type=int, default=2)
    p.add_argument("--precond-shape", choices=("triangular", "diagonal"), default="triangular")
    p.add_argument("--schur", choices=("cg", "vcycle", "diag"), default="cg")
    p.add_argument("--restart", type=int, default=50)
    p.add_argument("--reduction", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP threads (default 1)")
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _cfg_from_args(args) -> RunConfig:
    cfg = RunConfig(
        dim=args.dim,
        levels=args.levels,
        sinkers=args.sinkers,
        dynamic_ratio=args.dynamic_ratio,
        seed=args.seed,
        solver=args.solver,
        idr_s=args.idr_s,
        precond_shape=args.precond_shape,
        schur=args.schur,
        restart=args.restart,
        reduction=args.reduction,
        max_iters=args.max_iters,
        threads=RunConfig.threads if args.threads is None else args.threads,
    )
    if args.config:
        apply_config_entries(cfg, parse_config_file(args.config))
    return cfg


def _parse_list(text: str, conv):
    return [conv(part) for part in text.split(",") if part.strip()]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="gmgstokes-bench",
        description="Matrix-free GMG Stokes solver on the multi-sinker benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="solve one configuration")
    _add_run_flags(runp)
    sweepp = sub.add_parser("sweep", help="cross product over comma-separated axis values")
    _add_run_flags(sweepp)
    sweepp.add_argument("--master-seed", type=int, default=1)
    for axis, conv in (
        ("--sweep-levels", int),
        ("--sweep-sinkers", int),
        ("--sweep-dynamic-ratio", float),
        ("--sweep-precond-shape", str),
        ("--sweep-schur", str),
        ("--sweep-solver", str),
    ):
        sweepp.add_argument(axis, type=str, default=None, metavar="V1,V2,...")

    args = parser.parse_args(argv)
    try:
        cfg = _cfg_from_args(args)
        if args.threads is not None:
            cfg.validate()
            # the flag wins over a preset environment; numpy is not loaded yet
            for var in THREAD_VARS:
                os.environ[var] = str(cfg.threads)
        if args.command == "run":
            record = run_benchmark(cfg)
            if args.out:
                write_record(record, args.out, args.format)
            elif args.format == "csv":
                sys.stdout.write(records_to_csv([record]))
            else:
                json.dump(record.to_dict(), sys.stdout, indent=2)
                sys.stdout.write("\n")
            return 0 if record.converged else 2
        axes = {}
        for name, conv in (
            ("levels", int),
            ("sinkers", int),
            ("dynamic_ratio", float),
            ("precond_shape", str),
            ("schur", str),
            ("solver", str),
        ):
            raw = getattr(args, f"sweep_{name}")
            if raw:
                axes[name] = _parse_list(raw, conv)
        records = sweep(cfg, axes, master_seed=args.master_seed)
        text = records_to_csv(records)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if all(r.converged and not r.error for r in records) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
