"""Block preconditioners for the Stokes saddle-point system.

Two shapes are provided.  The triangular preconditioner solves

    p = -Shat_inv r_p,   u = Ahat_inv (r_u - B^T p)

and, applied exactly, gives a right-preconditioned operator with the
single eigenvalue 1, so GMRES converges in two iterations.  The diagonal
shape applies Ahat_inv and -Shat_inv independently.

Ahat_inv is one geometric-multigrid V-cycle on the fully coupled viscous
block.  Shat_inv approximates the Schur complement through the
viscosity-weighted pressure mass matrix: an inner Chebyshev-preconditioned
CG solve (``cg``), one V-cycle (``vcycle``), or plain diagonal scaling
(``diag``).  The inner CG iteration count varies between applications, so
that choice requires a flexible outer solver.
"""

from __future__ import annotations

import numpy as np

from . import krylov
from .multigrid import build_mass_multigrid, build_velocity_multigrid, smoother
from .operators import StokesSystem, apply_Bt, compute_diagonal


# residual reduction and iteration cap of the inner Schur mass CG; an
# application that reaches the cap counts as an inner failure
SCHUR_CG_TOL = 1e-2
SCHUR_CG_MAX_ITERS = 100


def normalize_pressure(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A copy of the stacked ``(u, p)`` with the pressure shifted so its
    mass-weighted mean vanishes.

    ``weights`` holds the integrals of the pressure basis functions, so
    weights . p is the integral of the pressure field and the domain has
    unit volume; its length is that of the pressure part.
    """
    out = x.copy()
    p = out[out.size - weights.size :]
    p -= (weights @ p) / weights.sum()
    return out


class StokesPreconditioner:
    """Block preconditioner bound to one assembled system; ``shape`` and
    ``schur`` take the values of ``--precond-shape`` and ``--schur``."""

    def __init__(self, system: StokesSystem, *, shape: str, schur: str):
        if shape not in ("triangular", "diagonal"):
            raise ValueError(f"unknown shape {shape!r}")
        self.system = system
        self.shape = shape
        self.schur = schur
        self.inner_iterations = 0
        self.inner_failures = 0
        ctx = system.active

        self.mass_mg = None
        if schur == "vcycle":
            self.mass_mg = build_mass_multigrid(system)
        elif schur == "cg":
            self.mp_smoother = smoother(ctx, "Mp")
        elif schur == "diag":
            self._mp_diag = compute_diagonal(ctx, "Mp")
        else:
            raise ValueError(f"unknown schur {schur!r}")
        self.velocity_mg = build_velocity_multigrid(system)

    def schur_apply(self, r_p: np.ndarray) -> np.ndarray:
        """Approximate application of S^-1 to a pressure residual."""
        if self.schur == "diag":
            return r_p / self._mp_diag
        if self.schur == "vcycle":
            return self.mass_mg.vcycle(r_p)
        control = krylov.SolveControl(reduction_target=SCHUR_CG_TOL, max_iters=SCHUR_CG_MAX_ITERS)
        x, stats = self.mp_smoother.cg(r_p, control)
        self.inner_iterations += stats.iterations
        if not stats.converged:
            self.inner_failures += 1
        return x

    def a_apply(self, r_u: np.ndarray) -> np.ndarray:
        """Approximate application of A^-1: one velocity V-cycle."""
        return self.velocity_mg.vcycle(r_u)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """The block preconditioner on a stacked residual ``(r_u, r_p)``."""
        r_u, r_p = r[: self.system.n_u], r[self.system.n_u :]
        p = -self.schur_apply(r_p)
        if self.shape == "triangular":
            r_u = r_u - apply_Bt(self.system.active, p)
        return np.concatenate([self.a_apply(r_u), p])
