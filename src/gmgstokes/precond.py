"""Block preconditioners for the Stokes saddle-point system.

Two shapes are provided.  The triangular preconditioner solves

    p = -Shat_inv r_p,   u = Ahat_inv (r_u - B^T p)

and, applied exactly, gives a right-preconditioned operator with the
single eigenvalue 1, so GMRES converges in two iterations.  The diagonal
shape applies Ahat_inv and -Shat_inv independently.

Ahat_inv is one geometric-multigrid V-cycle on the fully coupled viscous
block (or a dense factorization for exact solves on small meshes).
Shat_inv approximates the Schur complement through the viscosity-weighted
pressure mass matrix: an inner Chebyshev-preconditioned CG solve, one
V-cycle, or plain diagonal scaling.  The inner CG iteration count varies
between applications, so that choice requires a flexible outer solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import krylov
from .fem import BlockVector
from .multigrid import ChebyshevParams, build_mass_multigrid, build_velocity_multigrid, smoother
from .operators import StokesSystem, apply_A, apply_Bt, compute_diagonal


class ConfigError(ValueError):
    """Invalid solver/preconditioner combination."""


A_INV_CHOICES = ("gmg_vcycle", "exact_inner_solve")
S_INV_CHOICES = ("cg_mass", "vcycle_mass", "diag_mass", "exact_inner_solve")
SHAPES = ("triangular", "diagonal")
# residual reduction and iteration cap of the inner Schur mass CG; an
# application that reaches the cap counts as an inner failure
SCHUR_CG_TOL = 1e-2
SCHUR_CG_MAX_ITERS = 100


@dataclass(frozen=True)
class PrecondConfig:
    shape: str = "triangular"
    a_inv: str = "gmg_vcycle"
    s_inv: str = "cg_mass"

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigError(f"unknown shape {self.shape!r}")
        if self.a_inv not in A_INV_CHOICES:
            raise ConfigError(f"unknown a_inv {self.a_inv!r}")
        if self.s_inv not in S_INV_CHOICES:
            raise ConfigError(f"unknown s_inv {self.s_inv!r}")

    def validate_solver(self, solver: str) -> None:
        """The inner mass CG changes between applications, so it demands a
        flexible outer method."""
        if self.s_inv == "cg_mass" and solver not in ("fgmres", "idr"):
            raise ConfigError("s_inv='cg_mass' varies between applications; use fgmres or idr")


def materialize(op, n_in: int, n_out: int | None = None) -> np.ndarray:
    """Dense matrix of a linear operator, column by column."""
    n_out = n_in if n_out is None else n_out
    cols = np.empty((n_out, n_in))
    e = np.zeros(n_in)
    for j in range(n_in):
        e[j] = 1.0
        cols[:, j] = op(e)
        e[j] = 0.0
    return cols


def normalize_pressure(x: BlockVector, weights: np.ndarray) -> BlockVector:
    """Shift the pressure so its mass-weighted mean vanishes.

    ``weights`` holds the integrals of the pressure basis functions, so
    weights . p is the integral of the pressure field and the domain has
    unit volume.
    """
    out = x.copy()
    out.p -= (weights @ out.p) / weights.sum()
    return out


class StokesPreconditioner:
    """Configured block preconditioner bound to one assembled system."""

    def __init__(self, cfg: PrecondConfig, system: StokesSystem):
        self.cfg = cfg
        self.system = system
        self.params = ChebyshevParams()
        self.inner_iterations = 0
        self.inner_failures = 0
        ctx = system.active

        if "exact_inner_solve" in (cfg.a_inv, cfg.s_inv):
            self._a_chol = np.linalg.cholesky(materialize(lambda u: apply_A(ctx, u), ctx.n_u))
        if cfg.a_inv == "gmg_vcycle":
            self.velocity_mg = build_velocity_multigrid(system, self.params)
            self._a_solve = self.velocity_mg.vcycle
        else:
            self.velocity_mg = None
            self._a_solve = self._solve_dense_a

        self.mass_mg = None
        if cfg.s_inv == "vcycle_mass":
            self.mass_mg = build_mass_multigrid(system, self.params)
        elif cfg.s_inv == "cg_mass":
            self.mp_smoother = smoother(ctx, "Mp", self.params)
        elif cfg.s_inv == "diag_mass":
            self._mp_diag = compute_diagonal(ctx, "Mp")
        else:  # exact_inner_solve
            bt = materialize(lambda p: apply_Bt(ctx, p), ctx.n_p, ctx.n_u)  # B^T columns
            schur = bt.T @ self._solve_dense_a(bt)
            # the constant pressure spans the kernel; invert on its complement
            lam, vec = np.linalg.eigh(0.5 * (schur + schur.T))
            cut = 1e-10 * lam.max()
            inv = np.where(lam > cut, 1.0 / np.maximum(lam, cut), 0.0)
            self._s_pinv = (vec * inv) @ vec.T

    # -- inner solves --------------------------------------------------

    def _solve_dense_a(self, rhs):
        y = np.linalg.solve(self._a_chol, rhs)
        return np.linalg.solve(self._a_chol.T, y)

    def schur_apply(self, r_p: np.ndarray) -> np.ndarray:
        """Approximate application of S^-1 to a pressure residual."""
        cfg = self.cfg
        if cfg.s_inv == "diag_mass":
            return r_p / self._mp_diag
        if cfg.s_inv == "vcycle_mass":
            return self.mass_mg.vcycle(r_p)
        if cfg.s_inv == "exact_inner_solve":
            return self._s_pinv @ r_p
        control = krylov.SolveControl(
            reduction_target=SCHUR_CG_TOL,
            max_iters=SCHUR_CG_MAX_ITERS,
            restart_length=SCHUR_CG_MAX_ITERS,
        )
        x, stats = self.mp_smoother.cg(self.params, r_p, control)
        self.inner_iterations += stats.iterations
        if not stats.converged:
            self.inner_failures += 1
        return x

    def a_apply(self, r_u: np.ndarray) -> np.ndarray:
        return self._a_solve(r_u)

    # -- the block application -----------------------------------------

    def apply(self, r: BlockVector) -> BlockVector:
        p = -self.schur_apply(r.p)
        if self.cfg.shape == "triangular":
            u = self.a_apply(r.u - apply_Bt(self.system.active, p))
        else:
            u = self.a_apply(r.u)
        return BlockVector(u, p)

    def apply_flat(self, r: np.ndarray) -> np.ndarray:
        return self.apply(BlockVector.from_flat(r, self.system.n_u)).flat()
