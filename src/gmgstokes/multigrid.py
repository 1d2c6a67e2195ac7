"""Geometric V-cycle with Chebyshev smoothing on the nested hierarchy.

Transfers use the finite element embedding: a coarse function is also a
fine function, so prolongation interpolates coarse coefficients at the
fine support points.  On the uniform lattice the Q1/Q2 spaces are tensor
products, so prolongation is the Kronecker product of one 1D embedding
matrix per axis, applied axis by axis, and restriction is its exact
transpose.  The smoother is the degree-``CHEBYSHEV_DEGREE`` Chebyshev
polynomial in the Jacobi-preconditioned operator on the upper part
[lam_max/SMOOTHING_RANGE, lam_max] of the spectrum, with lam_max a
``LANCZOS_STEPS``-step Lanczos estimate times ``LANCZOS_SAFETY``.  The
V-cycle smooths only after the coarse correction, V(0,k) with
k = ``CHEBYSHEV_DEGREE``, so a level costs k operator applications; it
is linear but not symmetric, so it serves GMRES-type methods, not CG.
The coarsest level is the single root cell and is never smoothed: its
inverse is built once by probing the operator on its free unit vectors,
and each coarse solve is a CG run preconditioned by that inverse, which
converges in one iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import krylov
from .fem import lagrange_1d
from .mesh import MeshHierarchy
from .operators import LevelOperatorContext, StokesSystem, apply_A, apply_Mp, compute_diagonal


# Chebyshev smoother settings, those of deal.II's ``PreconditionChebyshev``
# in its matrix-free multigrid tutorial (step-37): polynomial degree,
# ``smoothing_range`` (the interval is [lam_max/SMOOTHING_RANGE, lam_max]),
# Lanczos steps of the largest-eigenvalue estimate and its safety factor.
# Every smoother uses them.  They are read when a function runs, not bound
# as default values, so a test can patch them.
CHEBYSHEV_DEGREE = 5
SMOOTHING_RANGE = 15.0
LANCZOS_STEPS = 10
LANCZOS_SAFETY = 1.2
_LANCZOS_SEED = 1789
_NO_DOFS = np.empty(0, dtype=np.int64)


def estimate_lambda_max(op, diag):
    """Largest eigenvalue of diag^-1 op, estimated by ``LANCZOS_STEPS``
    Lanczos steps on the symmetrized operator from a seeded random start,
    scaled by ``LANCZOS_SAFETY``.  Each step applies ``op`` once and records
    its Lanczos coefficient before it tests for breakdown, so the estimate
    takes at most ``LANCZOS_STEPS`` applications and always exists."""
    n = diag.size
    if np.any(diag <= 0.0):
        raise ValueError("diagonal must be strictly positive")
    d_isqrt = 1.0 / np.sqrt(diag)

    def bop(w):
        return d_isqrt * op(d_isqrt * w)

    rng = np.random.default_rng(_LANCZOS_SEED)
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("empty start vector")
    v /= nv
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    for step in range(1, LANCZOS_STEPS + 1):
        w = bop(v)
        alphas.append(float(v @ w))
        if step == LANCZOS_STEPS:
            break  # the next beta would lie outside the tridiagonal matrix
        w = w - alphas[-1] * v
        for u in basis:  # full reorthogonalization, the basis is short
            w -= (u @ w) * u
        beta = np.linalg.norm(w)
        if beta <= 1e-12 * max(abs(a) for a in alphas):
            break
        betas.append(float(beta))
        v = w / beta
        basis.append(v)
    tmat = np.diag(alphas)
    for i, beta in enumerate(betas):
        tmat[i, i + 1] = tmat[i + 1, i] = beta
    lam = float(np.linalg.eigvalsh(tmat).max())
    return LANCZOS_SAFETY * lam


class MGLevel:
    """A smoothed operator with its eigenvalue estimate ``lam_max``, the
    inverse of its diagonal and three work vectors (residual ``r``, update
    ``d``, product scratch ``t``), so that smoothing allocates nothing but
    its result; as a V-cycle level, also the constrained indices of its
    scalar space and the number of components that share them."""

    def __init__(self, op, diag, lam_max: float, scalar_constrained=_NO_DOFS, components: int = 1):
        self.op = op
        self.lam_max = lam_max
        self.scalar_constrained = scalar_constrained
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
    level operator over the interval [lam_max/SMOOTHING_RANGE, lam_max].

    The error propagator is the degree-``CHEBYSHEV_DEGREE`` shifted Chebyshev
    polynomial, so the map (b, x0) -> x is linear and, for symmetric op
    and x0 = 0, a symmetric positive definite preconditioner.  The
    residual and update live in the level's buffers; ``b`` and ``x0`` are
    only read, and the returned x is a new array.
    """
    op, lam_max = level.op, level.lam_max
    inv_d, r, d, t = level.inv_diag, level.r, level.d, level.t
    low = lam_max / SMOOTHING_RANGE
    theta = 0.5 * (lam_max + low)
    delta = 0.5 * (lam_max - low)
    if x0 is None:
        np.copyto(r, b)
        x = np.zeros_like(b)
    else:
        np.subtract(b, op(x0), out=r)
        x = x0.copy()
    sigma = theta / delta
    rho = 1.0 / sigma
    np.multiply(inv_d, r, out=d)
    d /= theta
    x += d
    for _ in range(CHEBYSHEV_DEGREE - 1):
        r -= op(d)
        rho_new = 1.0 / (2.0 * sigma - rho)
        # d = (rho_new * rho) * d + (2 * rho_new / delta) * (inv_d * r)
        d *= rho_new * rho
        np.multiply(inv_d, r, out=t)
        t *= 2.0 * rho_new / delta
        d += t
        x += d
        rho = rho_new
    return x


class CoarseLevel:
    """The coarsest V-cycle level, solved exactly: its operator, the
    constrained indices of its scalar space, the number of components that
    share them, and the operator's inverse.  The inverse is built by
    probing ``op`` on the free unit vectors and inverting that block; the
    constrained entries, on which the level operators act as the identity,
    get the identity."""

    def __init__(self, op, n: int, scalar_constrained=_NO_DOFS, components: int = 1):
        self.op = op
        self.scalar_constrained = scalar_constrained
        self.components = components
        free = np.ones((components, n // components), dtype=bool)
        free[:, scalar_constrained] = False
        free = np.flatnonzero(free)
        block = np.empty((free.size, free.size))
        e = np.zeros(n)
        for j, i in enumerate(free):
            e[i] = 1.0
            block[:, j] = op(e)[free]
            e[i] = 0.0
        self.inverse = np.eye(n)
        self.inverse[np.ix_(free, free)] = np.linalg.inv(block)

    @property
    def nbytes(self) -> int:
        return self.inverse.nbytes

    def solve(self, b, control: krylov.SolveControl):
        """CG on the level operator, preconditioned by the inverse, so it
        converges in one iteration while its residual test still checks
        the inverse; returns ``krylov.cg``'s (x, stats)."""
        return krylov.cg(self.op, lambda r: self.inverse @ r, b, control)


def _level_operator(ctx: LevelOperatorContext, which: str):
    """One level's viscous block (``which="A"``, with the level's Dirichlet
    set on each of dim components) or pressure mass matrix (``"Mp"``): its
    application, size, constrained scalar indices and component count.  The
    application looks up ``apply_A``/``apply_Mp`` when called, so the
    tracer's rebinding reaches it."""
    if which == "A":
        return (lambda v: apply_A(ctx, v)), ctx.n_u, ctx.dofs.dirichlet_scalar, ctx.dim
    if which == "Mp":
        return (lambda v: apply_Mp(ctx, v)), ctx.n_p, _NO_DOFS, 1
    raise ValueError(f"unknown operator {which!r}, expected 'A' or 'Mp'")


def smoother(ctx: LevelOperatorContext, which: str) -> MGLevel:
    """The Chebyshev smoother of one level's ``"A"`` or ``"Mp"`` operator:
    its exact diagonal and Lanczos estimate."""
    op, _, constrained, components = _level_operator(ctx, which)
    diag = compute_diagonal(ctx, which)
    return MGLevel(op, diag, estimate_lambda_max(op, diag), constrained, components)


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


def _embedding_1d(degree: int) -> np.ndarray:
    """E[t][i, j] = value of coarse function j at fine node i of child t."""
    nodes = np.arange(degree + 1) / degree
    return lagrange_1d(degree, (np.arange(2)[:, None] + nodes) / 2.0)[0]


def build_transfer_plan(mesh: MeshHierarchy, degree: int) -> TransferPlan:
    e1 = _embedding_1d(degree)
    k = degree
    matrices: list = [None]
    for level in range(1, mesh.n_levels):
        nc = mesh.cells_per_axis(level - 1)
        mat = np.zeros((2 * k * nc + 1, k * nc + 1))
        for c in range(nc):
            for t in range(2):
                # a node shared by neighbouring cells gets the same value from both
                f = k * (2 * c + t)
                mat[f : f + k + 1, k * c : k * c + k + 1] = e1[t]
        matrices.append(mat)
    return TransferPlan(dim=mesh.dim, matrices=matrices)


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


def prolongate(plan: TransferPlan, level: int, v_coarse, constrained_fine=None):
    """Coarse-to-fine embedding of a scalar field, level-1 -> level.

    ``v_coarse`` holds one field of shape (n,) or a stack (components, n).
    Entries listed in ``constrained_fine`` are zeroed afterwards."""
    out = _per_axis(plan, v_coarse, plan.matrices[level].T)
    if constrained_fine is not None:
        out[..., constrained_fine] = 0.0
    return out


def restrict(plan: TransferPlan, level: int, r_fine):
    """Transpose of the unconstrained :func:`prolongate`, level -> level-1.
    With constraints, zero the constrained fine entries of ``r_fine``
    first, as :meth:`Multigrid.vcycle` does."""
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
        r = b.reshape(comp, -1).copy()
        r[:, lv.scalar_constrained] = 0.0
        rc = restrict(self.plan, level, r)
        rc[:, self.levels[level - 1].scalar_constrained] = 0.0
        ec = self.vcycle(rc.reshape(-1), level - 1)
        x0 = prolongate(self.plan, level, ec.reshape(comp, -1), lv.scalar_constrained)
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
