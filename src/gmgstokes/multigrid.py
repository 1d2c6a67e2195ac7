"""Geometric V-cycle with Chebyshev smoothing on the nested hierarchy.

Transfers use the finite element embedding: a coarse function is also a
fine function, so prolongation interpolates coarse coefficients at the
fine support points.  On the uniform lattice the Q1/Q2 spaces are tensor
products, so prolongation is the Kronecker product of one 1D embedding
matrix per axis, applied axis by axis, and restriction is its exact
transpose.  A fine boundary node gets exactly zero weight from every
coarse interior node, so the V-cycle masks only restricted residuals.
The smoother is the degree-k Chebyshev polynomial, k =
``CHEBYSHEV_DEGREE``, in the Jacobi-preconditioned operator on
[lam_max/SMOOTHING_RANGE, lam_max], fixed when each level is built;
lam_max is the largest eigenvalue of the Jacobi-scaled reference element
matrix, an upper bound of the level's spectrum for any viscosity.  The
V-cycle smooths only after the coarse correction, V(0,k), so a level
costs k operator applications; it is linear but not symmetric, so it
serves GMRES-type methods, not CG.  The coarsest level is the single
root cell and is never smoothed: its inverse is built once from the
scaled reference element matrix, and each coarse solve is a CG run
preconditioned by that inverse, which converges in one iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import krylov
from .fem import lagrange_1d
from .mesh import MeshHierarchy
from .operators import LevelOperatorContext, StokesSystem, apply_A, apply_Mp, compute_diagonal


# Chebyshev smoother settings, those of deal.II's ``PreconditionChebyshev``
# in its matrix-free multigrid tutorial (step-37): polynomial degree and
# ``smoothing_range`` (the interval is [lam_max/SMOOTHING_RANGE, lam_max]).
# Every smoother uses them.  They are read when an ``MGLevel`` is built, so
# a test that patches them must do so before it builds the hierarchy.
CHEBYSHEV_DEGREE = 5
SMOOTHING_RANGE = 15.0
_NO_DOFS = np.empty(0, dtype=np.int64)


class MGLevel:
    """A smoothed operator with its Chebyshev polynomial, fixed when the
    level is built (``degree``, ``interval``, its midpoint ``theta`` and the
    (keep, gain) ``steps`` of :func:`chebyshev_smooth`), the inverse of its
    diagonal and three work vectors (residual ``r``, update ``d``, product
    scratch ``t``), so that smoothing allocates nothing but its result; as
    a V-cycle level, also its constrained indices and component count."""

    def __init__(self, op, diag, lam_max: float, constrained=_NO_DOFS, components: int = 1):
        if np.any(diag <= 0.0):
            raise ValueError("diagonal must be strictly positive")
        self.op = op
        self.lam_max = lam_max
        self.degree = CHEBYSHEV_DEGREE
        low = lam_max / SMOOTHING_RANGE
        self.interval = (low, lam_max)
        self.theta = 0.5 * (lam_max + low)
        delta = 0.5 * (lam_max - low)
        sigma = self.theta / delta
        rho, self.steps = 1.0 / sigma, []
        for _ in range(self.degree - 1):
            rho_new = 1.0 / (2.0 * sigma - rho)
            self.steps.append((rho_new * rho, 2.0 * rho_new / delta))
            rho = rho_new
        self.constrained = constrained
        self.components = components
        self.inv_diag = 1.0 / diag
        self.r, self.d, self.t = (np.empty(diag.size) for _ in range(3))

    @property
    def nbytes(self) -> int:
        return self.inv_diag.nbytes + self.r.nbytes + self.d.nbytes + self.t.nbytes

    def cg(self, b, control: krylov.SolveControl):
        """CG on the level operator, preconditioned by one smoothing step
        from zero; returns ``krylov.cg``'s (x, stats)."""
        return krylov.cg(self.op, lambda r: chebyshev_smooth(self, r), b, control)


def chebyshev_smooth(level: MGLevel, b, x0=None):
    """Fixed Chebyshev polynomial iteration on the Jacobi-preconditioned
    level operator, with the polynomial the level fixed when it was built.

    The error propagator is the shifted Chebyshev polynomial of the level's
    degree on its interval, so the map (b, x0) -> x is linear and, for
    symmetric op and x0 = 0, a symmetric positive definite preconditioner.
    The residual and update live in the level's buffers; ``b`` and ``x0``
    are only read, and the returned x is a new array.
    """
    op, inv_d, r, d, t = level.op, level.inv_diag, level.r, level.d, level.t
    if x0 is None:
        np.copyto(r, b)
        x = np.zeros_like(b)
    else:
        np.subtract(b, op(x0), out=r)
        x = x0.copy()
    np.multiply(inv_d, r, out=d)
    d /= level.theta
    x += d
    for keep, gain in level.steps:
        r -= op(d)
        # d = keep * d + gain * (inv_d * r)
        d *= keep
        np.multiply(inv_d, r, out=t)
        t *= gain
        d += t
        x += d
    return x


class CoarseLevel:
    """The coarsest V-cycle level, solved exactly: its operator, constrained
    indices, component count and the operator's inverse.  The level is the
    single root cell, whose dof map is the identity, so its free block is
    the cell's scale times the free block of the reference element matrix;
    the constrained entries, on which the level operators act as the
    identity, get the identity."""

    def __init__(self, op, element, scale, constrained=_NO_DOFS, components: int = 1):
        if scale.size != 1:
            raise ValueError(f"the coarse level has {scale.size} cells, expected one")
        self.op = op
        self.constrained = constrained
        self.components = components
        n = element.shape[0]
        free = np.delete(np.arange(n), constrained)
        self.inverse = np.eye(n)
        self.inverse[np.ix_(free, free)] = np.linalg.inv(scale * element[np.ix_(free, free)])

    @property
    def nbytes(self) -> int:
        return self.inverse.nbytes

    def solve(self, b, control: krylov.SolveControl):
        """CG on the level operator, preconditioned by the inverse, so it
        converges in one iteration while its residual test still checks
        the inverse; returns ``krylov.cg``'s (x, stats)."""
        return krylov.cg(self.op, lambda r: self.inverse @ r, b, control)


def _level_operator(ctx: LevelOperatorContext, which: str):
    """One level's viscous block (``which="A"``, constrained on the
    velocity entries of the level's Dirichlet set) or pressure mass matrix
    (``"Mp"``): its application, reference element matrix, per-cell scale
    column, constrained indices and component count.  The application
    looks up ``apply_A``/``apply_Mp`` when called, so the tracer's
    rebinding reaches it."""
    if which == "A":
        return (lambda v: apply_A(ctx, v)), ctx.elements.A, ctx.a_col, ctx.u_constrained, ctx.dim
    if which == "Mp":
        return (lambda v: apply_Mp(ctx, v)), ctx.elements.Mp, ctx.mp_col, _NO_DOFS, 1
    raise ValueError(f"unknown operator {which!r}, expected 'A' or 'Mp'")


def smoother(ctx: LevelOperatorContext, which: str) -> MGLevel:
    """The Chebyshev smoother of one level's ``"A"`` or ``"Mp"`` operator:
    its exact diagonal and, as ``lam_max``, the Jacobi-scaled bound of its
    reference element matrix (``ElementMatrices.lam_A``/``lam_Mp``), which
    caps the largest eigenvalue of D^-1 A for any viscosity.  The
    constrained identity rows add the eigenvalue 1, which lies below the
    bound, since the eigenvalues of s K s average 1."""
    op, _, _, constrained, components = _level_operator(ctx, which)
    lam_max = ctx.elements.lam_A if which == "A" else ctx.elements.lam_Mp
    return MGLevel(op, compute_diagonal(ctx, which), lam_max, constrained, components)


def _hierarchy_levels(system: StokesSystem, which: str) -> list:
    """The exactly solved coarsest level, then a smoother on every finer one."""
    coarse, *finer = system.contexts
    return [CoarseLevel(*_level_operator(coarse, which))] + [smoother(ctx, which) for ctx in finer]


# ---------------------------------------------------------------------------
# Inter-level transfer


@dataclass(frozen=True)
class TransferPlan:
    """1D embedding matrices between consecutive levels of one scalar space.

    ``matrices[l]`` maps the coarse nodes of one axis on level l-1 to the
    fine nodes on level l, shape (k*2**l + 1, k*2**(l-1) + 1) for degree k;
    level 0 has none.  The scalar dofs are a tensor lattice with x fastest,
    so the dim-dimensional embedding is the Kronecker product of the axis
    matrices.
    """

    dim: int
    matrices: list


@functools.cache
def _embedding(k: int, nc: int) -> np.ndarray:
    """The degree-k 1D embedding of nc coarse cells, built once per process
    and read-only: coarse 1D Lagrange basis values at the fine nodes.  Fine
    node i has local coordinate i/2k - cell in its coarse cell, a fraction
    exact in binary, so the basis zeros are exact."""
    basis = lagrange_1d(k, np.arange(2 * k + 1) / (2 * k))[0]  # at each local coordinate
    fine = np.arange(2 * k * nc + 1)
    cell = np.minimum(fine // (2 * k), nc - 1)
    mat = np.zeros((fine.size, k * nc + 1))
    mat[fine[:, None], k * cell[:, None] + np.arange(k + 1)] = basis[fine - 2 * k * cell]
    mat.setflags(write=False)
    return mat


def build_transfer_plan(mesh: MeshHierarchy, degree: int) -> TransferPlan:
    """The 1D embedding of every level above the coarsest."""
    coarse = (mesh.cells_per_axis(level - 1) for level in range(1, mesh.n_levels))
    return TransferPlan(dim=mesh.dim, matrices=[None] + [_embedding(degree, nc) for nc in coarse])


def _per_axis(plan: TransferPlan, x, mat: np.ndarray) -> np.ndarray:
    """Right-multiply every spatial axis of the scalar field(s) ``x`` by
    ``mat``; ``x`` is (n,) or (components, n) with n = mat.shape[0]**dim."""
    m = mat.shape[0]
    if x.shape[-1] != m**plan.dim:
        raise ValueError(f"vector of length {x.shape[-1]} is not a {m}**{plan.dim} lattice")
    lead = x.shape[:-1]
    x = x.reshape(lead + (m,) * plan.dim)
    # the last axis is x; each pass moves the transformed axis to the front
    # of the lattice, so after dim passes the axes are back in order
    nl, last = len(lead), x.ndim - 1
    order = (*range(nl), last, *range(nl, last))
    for _ in range(plan.dim):
        x = (x @ mat).transpose(order)
    return x.reshape(lead + (-1,))


def prolongate(plan: TransferPlan, level: int, v_coarse):
    """Coarse-to-fine embedding, level-1 -> level, of one scalar field (n,)
    or a stack (components, n); zero on the coarse boundary stays zero."""
    return _per_axis(plan, v_coarse, plan.matrices[level].T)


def restrict(plan: TransferPlan, level: int, r_fine):
    """Transpose of :func:`prolongate`, level -> level-1; fine boundary
    entries reach only coarse boundary entries."""
    return _per_axis(plan, r_fine, plan.matrices[level])


# ---------------------------------------------------------------------------
# The V-cycle


# iteration cap and residual reduction of the CG solve on the coarsest level
COARSE_CG_TOL = 1e-12
COARSE_CG_MAX_ITERS = 100


class Multigrid:
    """V-cycle over a list of levels sharing one scalar transfer plan:
    ``levels[0]`` is the exactly solved :class:`CoarseLevel` and every finer
    level an :class:`MGLevel` smoother.  The coarse solve counts the CG runs
    that miss ``COARSE_CG_TOL`` within ``COARSE_CG_MAX_ITERS`` and the most
    iterations one took."""

    def __init__(self, levels: list, plan: TransferPlan):
        self.levels = levels
        self.plan = plan
        self.coarse_control = krylov.SolveControl(
            reduction_target=COARSE_CG_TOL, max_iters=COARSE_CG_MAX_ITERS
        )
        self.n_vcycles = 0
        self.coarse_unconverged = 0
        self.coarse_iters_max = 0

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        x, stats = self.levels[0].solve(b, self.coarse_control)
        self.coarse_unconverged += not stats.converged
        self.coarse_iters_max = max(self.coarse_iters_max, stats.iterations)
        return x

    def vcycle(self, b: np.ndarray, level: int | None = None) -> np.ndarray:
        if level is None:
            level = len(self.levels) - 1
            self.n_vcycles += 1
        if level == 0:
            return self._coarse_solve(b)
        lv = self.levels[level]
        comp = lv.components
        # the only mask: the transfers keep the constrained set apart exactly
        rc = restrict(self.plan, level, b.reshape(comp, -1)).reshape(-1)
        rc[self.levels[level - 1].constrained] = 0.0
        ec = self.vcycle(rc, level - 1)
        x0 = prolongate(self.plan, level, ec.reshape(comp, -1))
        return chebyshev_smooth(lv, b, x0=x0.reshape(-1))


def build_velocity_multigrid(system: StokesSystem) -> Multigrid:
    """GMG hierarchy for the viscous block, smoothing the fully coupled
    strain-rate operator on every level above the coarsest."""
    plan = build_transfer_plan(system.mesh, 2)
    return Multigrid(_hierarchy_levels(system, "A"), plan)


def build_mass_multigrid(system: StokesSystem) -> Multigrid:
    """GMG hierarchy for the viscosity-weighted pressure mass matrix."""
    plan = build_transfer_plan(system.mesh, 1)
    return Multigrid(_hierarchy_levels(system, "Mp"), plan)
