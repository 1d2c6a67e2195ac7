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

from . import __version__

# the RunConfig fields limited to a fixed set of values, and those values
CHOICES = {
    "dim": (2, 3),
    "solver": ("gmres", "fgmres", "idr"),
    "precond_shape": ("triangular", "diagonal"),
    "schur": ("cg", "vcycle", "diag"),
}
# application-owned full-length vectors held by the driver during a solve:
# solution, right-hand side, true-residual check, pressure-normalization scratch
APPLICATION_VECTORS = 4
# environment variables that size the BLAS/OpenMP pools when numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
        """Reject values outside ``CHOICES``, and ``schur="cg"`` with ``gmres``:
        the inner CG varies between applications.  ``idr`` with ``cg`` is
        accepted but unsound, as IDR(s) assumes a fixed preconditioner (in
        ``BENCH_7.json`` one such sweep row took 17-67 iterations where FGMRES
        took 32-44); ROADMAP item 6 plans a fixed linear Schur choice."""
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.schur == "cg" and self.solver not in ("fgmres", "idr"):
            raise ValueError("schur='cg' varies between applications; use fgmres or idr")


# the type of every RunConfig field that a flag or a config entry sets;
# ``centers`` is a list with its own syntax
SETTING_TYPES = {
    f.name: type(f.default) for f in dataclasses.fields(RunConfig) if f.name != "centers"
}


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
    inner_schur_failures: int = 0
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
    operator_calls: list = field(default_factory=list)
    chebyshev: dict = field(default_factory=dict)
    coarse_cg_iters_max: dict = field(default_factory=dict)
    error: str = ""
    environment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def csv_row(self) -> list:
        memory = {k: self.memory.get(k, 0) for k in MEMORY_COLUMNS}
        vals = {**self.config, **vars(self), **memory, "package_version": __version__}
        return [vals.get(c, "") for c in CSV_COLUMNS]


# The CSV columns are the run settings, then the record fields with
# ``memory`` spread over its byte counts; lists and wall-clock data stay
# in the JSON record, so CSV output is deterministic.
MEMORY_COLUMNS = (
    "mesh_bytes",
    "dofmap_bytes",
    "constraint_bytes",
    "solver_vector_bytes",
    "application_vector_bytes",
    "multigrid_aux_bytes",
)
JSON_ONLY = (
    "centers",
    "inner_schur_failures",
    "residual_history",
    "timings",
    "operator_calls",
    "chebyshev",
    "coarse_cg_iters_max",
    "environment",
)
_SPREAD = {"config": [f.name for f in dataclasses.fields(RunConfig)], "memory": MEMORY_COLUMNS}
CSV_COLUMNS = [
    name
    for f in dataclasses.fields(RunRecord)
    for name in _SPREAD.get(f.name, (f.name,))
    if name not in JSON_ONLY
] + ["package_version"]


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(str(v) for v in rec.csv_row()))
    return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment.  Keys are the RunConfig
    field names (``n_sinkers`` is an alias of ``sinkers``), with centers
    given as 'x,y[,z];x,y[,z];...'."""
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


def apply_config_entries(cfg: RunConfig, entries: dict) -> RunConfig:
    for key, val in entries.items():
        name = "sinkers" if key == "n_sinkers" else key
        if name == "centers":
            cfg.centers = [
                [float(c) for c in point.split(",")] for point in val.split(";") if point.strip()
            ]
        elif name in SETTING_TYPES:
            setattr(cfg, name, SETTING_TYPES[name](val))
        else:
            raise ValueError(f"unknown config key {key!r}")
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


def memory_report(system, precond, peak: int) -> dict:
    """Instrumented byte counts per category; solver vector bytes follow
    ``peak`` (the solver's peak_vector_count) x vector length x 8.  The
    multigrid bytes cover the hierarchies' transfers and smoothers and the
    level viscosities, not the Schur mass-CG smoother."""
    n = system.n_dofs
    mesh_bytes = sum(ctx.lattices.nbytes for ctx in system.contexts)
    # scalar maps, plus what the operators hold: each level's combined
    # velocity map, per-cell scales and gather scratch, and the shared
    # element matrices
    dof_bytes = sum(
        ctx.dofs.q2_map.nbytes + ctx.dofs.q1_map.nbytes
        + ctx.u_map.nbytes + ctx.a_scale.nbytes + ctx.mp_scale.nbytes
        + sum(w.nbytes for w in ctx.work)
        for ctx in system.contexts
    )
    dof_bytes += sum({id(c.elements): c.elements.nbytes for c in system.contexts}.values())
    cons_bytes = sum(
        ctx.dofs.dirichlet_scalar.nbytes + ctx.u_constrained.nbytes for ctx in system.contexts
    )
    mg_bytes = sum(ctx.mu.nbytes for ctx in system.contexts)
    for mg in (precond.velocity_mg, precond.mass_mg):
        if mg is None:
            continue
        mg_bytes += sum(m.nbytes for m in mg.plan.matrices if m is not None)
        mg_bytes += sum(lv.nbytes for lv in mg.levels)
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


def chebyshev_report(precond) -> dict:
    """The polynomial degree shared by every Chebyshev smoother in the
    preconditioner, and each smoother's safety-scaled largest-eigenvalue
    estimate ``lam_max`` and smoothing interval: levels 1..L of the velocity
    hierarchy and, when built, of the mass hierarchy (coarsest first; level
    0 is solved exactly and has no smoother), and the Schur mass-CG
    preconditioner when it is used."""

    from .multigrid import CHEBYSHEV_DEGREE, SMOOTHING_RANGE

    def entry(lam):
        return {"lam_max": lam, "interval": [lam / SMOOTHING_RANGE, lam]}

    out = {
        "degree": CHEBYSHEV_DEGREE,
        "velocity": [entry(lv.lam_max) for lv in precond.velocity_mg.levels[1:]],
    }
    if precond.mass_mg is not None:
        out["mass"] = [entry(lv.lam_max) for lv in precond.mass_mg.levels[1:]]
    if precond.schur == "cg":
        out["schur_mass_cg"] = entry(precond.mp_smoother.lam_max)
    return out


def run_benchmark(cfg: RunConfig) -> RunRecord:
    """Build, solve, and record one sinker benchmark configuration."""
    import numpy as np

    from . import krylov
    from .fem import distribute_dofs, make_gauss_rule
    from .mesh import build_hierarchy
    from .operators import StokesSystem, assemble_rhs
    from .precond import StokesPreconditioner, normalize_pressure
    from .viscosity import average_active_viscosity, restrict_viscosity, sinker_config

    cfg.validate()
    record = RunRecord(config=_config_echo(cfg))

    t0 = time.perf_counter()
    mesh = build_hierarchy(cfg.dim, cfg.levels + 1)
    dofs = distribute_dofs(mesh)
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
    mu = restrict_viscosity(average_active_viscosity(mesh, sk, rule), mesh)
    system = StokesSystem(mesh, dofs, mu, rule)
    precond = StokesPreconditioner(system, shape=cfg.precond_shape, schur=cfg.schur)
    b = assemble_rhs(system.active, sk)
    t_assemble = time.perf_counter() - t1

    record.n_u, record.n_p, record.n_dofs = system.n_u, system.n_p, system.n_dofs

    t2 = time.perf_counter()
    counters_before = [dict(c.counters) for c in system.contexts]
    control = krylov.SolveControl(
        reduction_target=cfg.reduction, max_iters=cfg.max_iters, restart_length=cfg.restart
    )
    if cfg.solver == "gmres":
        x, stats = krylov.gmres(system.apply_flat, precond.apply, b, control)
    elif cfg.solver == "fgmres":
        x, stats = krylov.fgmres(system.apply_flat, precond.apply, b, control)
    else:
        x, stats = krylov.idr_s(system.apply_flat, precond.apply, b, cfg.idr_s, control)
    t_solve = time.perf_counter() - t2

    # operator applications per level during the solve, taken before the
    # true-residual check applies the operator again
    record.operator_calls = [
        {op: ctx.counters.get(op, 0) - before.get(op, 0) for op in ("apply_A", "apply_Mp")}
        for ctx, before in zip(system.contexts, counters_before)
    ]
    # flop model for the viscous-block work inside the V-cycles: every
    # apply_A of the solve except the outer operator's, one per matvec on
    # the active level
    vcycles = precond.velocity_mg.n_vcycles
    mg_flops = sum(
        calls["apply_A"] * _flops_per_apply_A(ctx)
        for ctx, calls in zip(system.contexts, record.operator_calls)
    )
    mg_flops -= stats.matvec_count * _flops_per_apply_A(system.active)
    record.vcycle_count = vcycles
    if vcycles:
        record.model_flops_per_vcycle = mg_flops / vcycles
        record.model_flops_per_dof = record.model_flops_per_vcycle / system.n_u

    sol = normalize_pressure(x, system.pressure_weights())
    r_check = b - system.apply_flat(sol)
    b_norm = float(np.linalg.norm(b))
    true_res = float(np.linalg.norm(r_check))

    record.iterations = stats.iterations
    record.converged = stats.converged
    record.flag = stats.flag
    record.precond_applications = stats.precond_applications
    record.matvec_count = stats.matvec_count
    record.peak_vector_count = stats.peak_vector_count
    record.inner_schur_iterations = precond.inner_iterations
    record.inner_schur_failures = precond.inner_failures
    record.initial_residual = b_norm
    record.final_residual = float(stats.residual_history[-1]) if stats.residual_history else 0.0
    record.true_final_residual = true_res
    record.reduction_achieved = true_res / b_norm if b_norm > 0 else 0.0
    record.residual_history = [float(r) for r in stats.residual_history]
    if b_norm > 0 and record.converged:
        claimed = cfg.reduction
        if record.reduction_achieved > 2.0 * claimed:
            record.flag = (record.flag + ";residual_check_failed").lstrip(";")
    hierarchies = {"velocity": precond.velocity_mg, "mass": precond.mass_mg}
    if any(mg is not None and mg.coarse_unconverged for mg in hierarchies.values()):
        record.flag = (record.flag + ";coarse_solve_unconverged").lstrip(";")

    record.timings = {
        "setup_seconds": t_setup,
        "assemble_seconds": t_assemble,
        "solve_seconds": t_solve,
        "total_seconds": t_setup + t_assemble + t_solve,
        "threads": cfg.threads,
    }
    record.memory = memory_report(system, precond, stats.peak_vector_count)
    record.chebyshev = chebyshev_report(precond)
    record.coarse_cg_iters_max = {
        kind: mg.coarse_iters_max for kind, mg in hierarchies.items() if mg is not None
    }
    record.environment = {"threads": {var: os.environ.get(var) for var in THREAD_VARS}}
    return record


def _config_echo(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["package_version"] = __version__
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
    # one flag per setting; None means "not given", so the RunConfig
    # default applies
    for name, kind in SETTING_TYPES.items():
        choices = CHOICES.get(name)
        p.add_argument(
            "--" + name.replace("_", "-"),
            type=kind,
            metavar="{" + ",".join(map(str, choices)) + "}" if choices else None,
            help=f"default {getattr(RunConfig, name)}",
        )
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _cfg_from_args(args) -> RunConfig:
    cfg = RunConfig(
        **{name: getattr(args, name) for name in SETTING_TYPES if getattr(args, name) is not None}
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
    for axis in SWEEP_AXES:
        sweepp.add_argument("--sweep-" + axis.replace("_", "-"), metavar="V1,V2,...")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line, the code of a flagged
        # or unconverged run here, so report it as invalid input (--help is 0)
        return 1 if exc.code else 0
    try:
        cfg = _cfg_from_args(args)
        if args.threads is not None:
            # only the thread count: a sweep axis may still replace the
            # solver or the Schur choice that validate() pairs
            if cfg.threads < 1:
                raise ValueError("threads must be >= 1")
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
            return 0 if record.converged and not record.flag else 2
        axes = {
            axis: _parse_list(raw, SETTING_TYPES[axis])
            for axis in SWEEP_AXES
            if (raw := getattr(args, f"sweep_{axis}"))
        }
        records = sweep(cfg, axes, master_seed=args.master_seed)
        text = records_to_csv(records)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        # a row that raised keeps converged=False
        return 0 if all(r.converged and not r.flag for r in records) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
