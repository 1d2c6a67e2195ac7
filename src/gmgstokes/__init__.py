"""Matrix-free geometric-multigrid Stokes solver on nested Cartesian grids,
with a variable-viscosity multi-sinker benchmark.

The names below are re-exported lazily (PEP 562): importing the package,
or ``gmgstokes.bench`` through it, loads no numpy, so the command line can
size the BLAS thread pools first.  Each access looks the name up in its
module again, so a name rebound there is seen here too.
"""

import importlib

_EXPORTS = {
    "fem": (
        "BlockVector",
        "DofMap",
        "QuadratureRule",
        "ScalarBasis",
        "distribute_dofs",
        "make_gauss_rule",
        "shape_eval",
    ),
    "krylov": (
        "IndefiniteOperatorError",
        "SolveControl",
        "SolverStats",
        "VectorLedger",
        "cg",
        "fgmres",
        "gmres",
        "idr_s",
    ),
    "mesh": ("MeshHierarchy", "build_hierarchy"),
    "multigrid": (
        "ChebyshevParams",
        "ChebyshevWork",
        "Multigrid",
        "TransferPlan",
        "build_mass_multigrid",
        "build_transfer_plan",
        "build_velocity_multigrid",
        "chebyshev_smooth",
        "estimate_lambda_max",
        "prolongate",
        "restrict",
    ),
    "operators": (
        "LevelOperatorContext",
        "StokesSystem",
        "apply_A",
        "apply_B",
        "apply_Bt",
        "apply_Mp",
        "apply_stokes",
        "assemble_rhs",
        "assemble_rhs_function",
        "compute_diagonal",
        "make_level_context",
    ),
    "precond": (
        "ConfigError",
        "PrecondConfig",
        "StokesPreconditioner",
        "normalize_pressure",
    ),
    "viscosity": (
        "SinkerConfig",
        "ViscosityField",
        "average_active_viscosity",
        "chi",
        "forcing",
        "mu",
        "restrict_viscosity",
        "sinker_config",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
