"""In-memory span tracer for the gmgstokes layers, and the per-layer
metrics derived from its spans.

While a :class:`Tracer` is active, every public module-level function of
the layer modules, a few public methods, and the two ``bench`` entry
points are replaced by wrappers that record one span per call: name,
start, end, parent span and a small payload (the hierarchy level, the
V-cycle kind, or the returned solver statistics).  ``multigrid`` and
``precond`` bind operator and smoother functions with ``from ... import``,
so each wrapper is rebound in every loaded ``gmgstokes`` module that holds
the original, not only in the defining one.  Leaving the context restores
every original binding.  Nothing in the package is edited on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("mesh", "fem", "viscosity", "operators", "multigrid", "krylov", "precond")
METHODS = {
    "operators": {"StokesSystem": ("__init__", "apply_flat")},
    "multigrid": {"Multigrid": ("vcycle",)},
    "precond": {"StokesPreconditioner": ("apply", "a_apply", "schur_apply")},
}
ROOTS = ("run_benchmark", "sweep")
OUTER_SOLVERS = ("krylov.gmres", "krylov.fgmres", "krylov.idr_s")
# deepest hierarchy of any workload: the 2D workload has levels L0..L6
MAX_LEVEL = 6


class Tracer:
    """Context manager that records spans into parallel in-memory lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.infos: list = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        from gmgstokes import bench, krylov, operators

        def ctx_level(args, kwargs, out):
            if args and isinstance(args[0], operators.LevelOperatorContext):
                return args[0]
            return None

        def transfer_level(args, kwargs, out):
            return args[1] if len(args) > 1 else kwargs["level"]

        def vcycle_info(args, kwargs, out):
            mg = args[0]
            level = args[2] if len(args) > 2 else kwargs.get("level")
            kind = "velocity" if mg.levels[0].components > 1 else "mass"
            top = len(mg.levels) - 1
            return (kind, top if level is None else level, level is None)

        def solver_stats(args, kwargs, out):
            if isinstance(out, tuple) and isinstance(out[-1], krylov.SolverStats):
                return out[-1]
            return None

        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gmgstokes.{layer}")
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "operators":
                    info = ctx_level
                elif fname in ("prolongate", "restrict"):
                    info = transfer_level
                elif layer == "krylov":
                    info = solver_stats
                else:
                    info = None
                replaced[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, info))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    info = vcycle_info if meth == "vcycle" else None
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], info))
        for fname in ROOTS:
            fn = getattr(bench, fname)
            replaced[id(fn)] = (fn, self._wrap(f"bench.{fname}", fn, None))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gmgstokes" or mod_name.startswith("gmgstokes.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn, info_of):
        names, starts, ends = self.names, self.starts, self.ends
        parents, infos, stack = self.parents, self.infos, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            infos.append(None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if info_of is not None:
                infos[idx] = info_of(args, kwargs, out)
            return out

        return traced

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        """Spans as plain lists: name, start and end relative to the first
        span, parent index (-1 for a root) and hierarchy level."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = []
        for i, name in enumerate(self.names):
            rows.append(
                [name, self.starts[i] - t0, self.ends[i] - t0, self.parents[i], _level(self.infos[i])]
            )
        return {"columns": ["name", "start_s", "end_s", "parent", "level"], "spans": rows}


def _level(info):
    if info is None:
        return None
    if isinstance(info, int):
        return info
    if isinstance(info, tuple):
        return info[1]
    return getattr(info, "level", None)


# ---------------------------------------------------------------------------
# per-layer metrics

# span name -> metric prefix where the two differ; every other span feeds
# "<span name>.calls" and "<span name>.s" when those metrics exist
_RENAMED = {
    "operators.StokesSystem.__init__": "operators.StokesSystem.init",
    "operators.StokesSystem.apply_flat": "operators.outer_matvec",
    "precond.StokesPreconditioner.apply": "precond.apply",
    "precond.StokesPreconditioner.a_apply": "precond.a_apply",
    "precond.StokesPreconditioner.schur_apply": "precond.schur_apply",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark reports them."""
    levels = range(MAX_LEVEL + 1)
    out = [
        "mesh.build_hierarchy.s",
        "fem.distribute_dofs.s",
        "viscosity.sinker_config.s",
        "viscosity.average_active_viscosity.s",
        "viscosity.restrict_viscosity.s",
    ]
    out += [f"operators.apply_A.L{k}.{q}" for k in levels for q in ("calls", "s")]
    out += ["operators.apply_A.fine.mdofs_per_s", "operators.apply_A.fine.gflops_model"]
    out += [f"operators.apply_Mp.L{k}.{q}" for k in levels for q in ("calls", "s")]
    for op in ("apply_B", "apply_Bt", "compute_diagonal"):
        out += [f"operators.{op}.calls", f"operators.{op}.s"]
    out += [
        "operators.StokesSystem.init.s",
        "operators.outer_matvec.calls",
        "operators.outer_matvec.s",
        "operators.assemble_rhs.s",
    ]
    out += [f"multigrid.vcycle.{k}.{q}" for k in ("velocity", "mass") for q in ("calls", "s")]
    out += ["multigrid.chebyshev_smooth.calls", "multigrid.chebyshev_smooth.self_s"]
    for op in ("prolongate", "restrict"):
        out += [f"multigrid.{op}.L{k}.{q}" for k in levels[1:] for q in ("calls", "s")]
    out += [f"multigrid.coarse_cg.{q}" for q in ("calls", "s", "iters_max", "unconverged")]
    out += [
        "multigrid.estimate_lambda_max.calls",
        "multigrid.estimate_lambda_max.s",
        "multigrid.build_transfer_plan.s",
        "multigrid.build_velocity_multigrid.s",
        "multigrid.build_mass_multigrid.s",
    ]
    out += [
        f"krylov.outer.{q}"
        for q in ("self_s", "matvecs", "precond_applications", "peak_vectors")
    ]
    out += [
        "precond.apply.calls",
        "precond.apply.self_s",
        "precond.a_apply.calls",
        "precond.a_apply.s",
        "precond.schur_apply.calls",
        "precond.schur_apply.s",
        "precond.schur_cg.iters",
        "precond.schur_cg.iters_max",
        "precond.schur_cg.unconverged",
    ]
    out += ["bench.driver.self_s", "trace.coverage", "trace.overhead_s"]
    return out


# unit by the last component of the metric name
_UNITS = {
    "s": "s",
    "self_s": "s",
    "overhead_s": "s",
    "calls": "count",
    "iters": "count",
    "iters_max": "count",
    "unconverged": "count",
    "matvecs": "count",
    "precond_applications": "count",
    "peak_vectors": "count",
    "mdofs_per_s": "MDoF/s",
    "gflops_model": "GF/s",
    "coverage": "fraction",
}


def metric_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def analyse(tracer: Tracer, records: list, traced_wall: float, untraced_wall: float):
    """Per-layer metrics from the spans, plus the list of failed cross-checks
    against the run records (one record per ``bench.run_benchmark`` span).
    Every layer span must lie inside a ``bench.run_benchmark`` span, so that
    no work of the harness itself is counted as the program's."""
    from gmgstokes import bench

    names, parents, infos = tracer.names, tracer.parents, tracer.infos
    n = len(names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    self_s = list(dur)
    run_of = [-1] * n
    runs = 0
    for i in range(n):
        p = parents[i]
        if p >= 0:
            self_s[p] -= dur[i]
        if names[i] == "bench.run_benchmark":
            run_of[i] = runs
            runs += 1
        elif p >= 0:
            run_of[i] = run_of[p]

    m = {k: 0 if metric_unit(k) == "count" else 0.0 for k in per_layer_names()}
    outer_matvecs = [0] * runs
    precond_applies = [0] * runs
    top_vcycles = [0] * runs
    schur_iters = [0] * runs
    fine_calls_dofs = fine_calls_flops = fine_s = 0.0
    flops_model = getattr(bench, "_flops_per_apply_A", None)
    covered = 0.0
    outside = 0

    def add(key: str, seconds: float) -> None:
        if f"{key}.calls" in m:
            m[f"{key}.calls"] += 1
        if f"{key}.s" in m:
            m[f"{key}.s"] += seconds

    for i in range(n):
        name, d, info, run = names[i], dur[i], infos[i], run_of[i]
        p = parents[i]
        pname = names[p] if p >= 0 else ""
        if name.startswith("bench."):
            m["bench.driver.self_s"] += self_s[i]
            continue
        if run < 0:
            outside += 1
        covered += self_s[i]
        add(_RENAMED.get(name, name), d)
        if name in ("operators.apply_A", "operators.apply_Mp") and info is not None:
            add(f"{name}.L{info.level}", d)
            fine = records[run].config["levels"] if 0 <= run < len(records) else -1
            if name == "operators.apply_A" and info.level == fine:
                fine_s += d
                fine_calls_dofs += info.n_u
                if flops_model is not None:
                    fine_calls_flops += flops_model(info)
        elif name in ("multigrid.prolongate", "multigrid.restrict"):
            add(f"{name}.L{info}", d)
        elif name == "multigrid.chebyshev_smooth":
            m["multigrid.chebyshev_smooth.self_s"] += self_s[i]
        elif name == "multigrid.Multigrid.vcycle":
            kind, _, top = info
            if top:
                add(f"multigrid.vcycle.{kind}", d)
                if kind == "velocity" and run >= 0:
                    top_vcycles[run] += 1
        elif name == "operators.StokesSystem.apply_flat" and pname in OUTER_SOLVERS:
            outer_matvecs[run] += 1
        elif name == "precond.StokesPreconditioner.apply":
            m["precond.apply.self_s"] += self_s[i]
            precond_applies[run] += 1
        elif name == "krylov.cg" and info is not None:
            if pname == "multigrid.Multigrid.vcycle" and infos[p][1] == 0:
                add("multigrid.coarse_cg", d)
                m["multigrid.coarse_cg.iters_max"] = max(
                    m["multigrid.coarse_cg.iters_max"], info.iterations
                )
                m["multigrid.coarse_cg.unconverged"] += not info.converged
            elif pname == "precond.StokesPreconditioner.schur_apply":
                m["precond.schur_cg.iters"] += info.iterations
                m["precond.schur_cg.iters_max"] = max(
                    m["precond.schur_cg.iters_max"], info.iterations
                )
                m["precond.schur_cg.unconverged"] += not info.converged
                schur_iters[run] += info.iterations
        elif name in OUTER_SOLVERS and pname == "bench.run_benchmark":
            m["krylov.outer.self_s"] += self_s[i]
            if info is not None:
                m["krylov.outer.matvecs"] += info.matvec_count
                m["krylov.outer.precond_applications"] += info.precond_applications
                m["krylov.outer.peak_vectors"] = max(
                    m["krylov.outer.peak_vectors"], info.peak_vector_count
                )

    if fine_s > 0:
        m["operators.apply_A.fine.mdofs_per_s"] = fine_calls_dofs / fine_s / 1e6
        m["operators.apply_A.fine.gflops_model"] = fine_calls_flops / fine_s / 1e9
    m["trace.coverage"] = covered / traced_wall if traced_wall > 0 else 0.0
    m["trace.overhead_s"] = traced_wall - untraced_wall

    failures = []
    if outside:
        failures.append(f"{outside} layer spans lie outside every bench.run_benchmark span")
    if runs != len(records):
        failures.append(f"{runs} traced runs for {len(records)} records")
    for j, rec in enumerate(records[:runs]):
        if rec.error:
            continue
        checks = (
            ("outer matvecs", outer_matvecs[j], rec.matvec_count),
            ("preconditioner applications", precond_applies[j], rec.precond_applications),
            ("top-level velocity V-cycles", top_vcycles[j], rec.vcycle_count),
            ("Schur CG iterations", schur_iters[j], rec.inner_schur_iterations),
        )
        for what, traced, counted in checks:
            if traced != counted:
                failures.append(f"run {j}: traced {what} {traced} != record {counted}")
    return m, failures
