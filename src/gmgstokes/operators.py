"""Matrix-free application of the variable-viscosity Stokes blocks.

Every block of the saddle-point system

    [ A   B^T ] [U]   [F]
    [ B   0   ] [P] = [0]

is applied without storing a global matrix.  Every cell is an
axis-aligned cube of side h and the viscosity is constant per cell, so
each block restricted to a cell is a scaling of one reference element
matrix of the unit cube with mu = 1:

    A_c = mu_c h**(dim-2) K_A,   B_c = h**(dim-1) K_B,   Mp_c = h**dim / mu_c K_M.

An application gathers the local coefficients of every cell of a level
through one cell->dof map (for the velocity, the component offset plus
the scalar Q2 map, so all components at once), multiplies the
(n_cells, n_loc) block by the element matrix in one GEMM, scales each
cell row, and scatter-adds with one ``np.bincount``.  The element
matrices are built once per dimension and quadrature rule from the
tabulated reference bases.

Dirichlet-constrained velocity rows and columns act as the identity.
Inputs are zeroed on the constrained set before the gather and the
constrained output entries are overwritten with the input values, which
keeps each block symmetric on the unconstrained subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import LevelDofs, QuadratureRule, cell_quad_points, tabulate
from .mesh import MeshHierarchy
from .viscosity import SinkerConfig, forcing


@dataclass(frozen=True)
class ElementMatrices:
    """Reference element matrices of the unit cube with mu = 1.  Velocity
    rows and columns are ordered component-major, (a, i) -> a*n_loc + i,
    matching :attr:`LevelOperatorContext.u_map`."""

    A: np.ndarray  # (dim*L2, dim*L2) fully coupled strain-rate form
    B: np.ndarray  # (L1, dim*L2) divergence, -int (div v) q
    Mp: np.ndarray  # (L1, L1) pressure mass

    @property
    def nbytes(self) -> int:
        return self.A.nbytes + self.B.nbytes + self.Mp.nbytes


_ELEMENT_CACHE: dict[tuple, ElementMatrices] = {}


def _element_matrices(dim: int, rule: QuadratureRule) -> ElementMatrices:
    key = (dim, rule.points.tobytes(), rule.weights.tobytes())
    if key in _ELEMENT_CACHE:
        return _ELEMENT_CACHE[key]
    w = rule.weights
    g = tabulate(2, dim, rule).grads  # (n_q, L2, dim)
    v1 = tabulate(1, dim, rule).values  # (n_q, L1)
    n = dim * g.shape[1]
    # gram[i, b, j, c] = int d_b phi_i d_c phi_j over the unit cube
    gram = np.einsum("q,qib,qjc->ibjc", w, g, g)
    eye = np.eye(dim)
    # 2 eps(v) : eps(u) = grad v_a . grad u_a + d_c v_a d_a u_c
    ka = np.einsum("ac,ibjb->aicj", eye, gram) + gram.transpose(3, 0, 1, 2)
    km = np.einsum("q,qk,ql->kl", w, v1, v1)
    kb = -np.einsum("q,qk,qja->kaj", w, v1, g).reshape(v1.shape[1], n)
    ka, km = (0.5 * (m + m.T) for m in (ka.reshape(n, n), km))
    for m in (ka, kb, km):
        m.setflags(write=False)
    out = _ELEMENT_CACHE[key] = ElementMatrices(A=ka, B=kb, Mp=km)
    return out


@dataclass
class LevelOperatorContext:
    """Everything needed to apply the operators of one hierarchy level."""

    dim: int
    level: int
    h: float
    n_cells: int
    lattices: np.ndarray
    dofs: LevelDofs
    mu: np.ndarray  # one averaged viscosity per cell
    rule: QuadratureRule
    elements: ElementMatrices
    u_map: np.ndarray  # (n_cells, dim*L2) velocity indices, component-major
    u_constrained: np.ndarray  # velocity indices treated as identity rows
    counters: dict = field(default_factory=dict)
    # per-cell scales of the viscous block, mu_c h**(dim-2), and of the
    # pressure mass matrix, h**dim / mu_c
    a_scale: np.ndarray = field(init=False, repr=False)
    mp_scale: np.ndarray = field(init=False, repr=False)
    # scratch reused by every velocity application, so that a call
    # allocates only its result (fresh large arrays cost page faults):
    # masked input, gathered and local blocks.  One context therefore
    # must not be applied from two threads at once.
    work: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.mu) != self.n_cells:
            raise ValueError("viscosity values must cover every cell on the level")
        self.a_scale = self.mu * self.h ** (self.dim - 2)
        self.mp_scale = self.h**self.dim / self.mu
        self.work = (np.empty(self.n_u), np.empty(self.u_map.shape), np.empty(self.u_map.shape))

    @property
    def n_u(self) -> int:
        return self.dim * self.dofs.n_scalar

    @property
    def n_p(self) -> int:
        return self.dofs.n_p

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1


def make_level_context(
    mesh: MeshHierarchy, dofs: LevelDofs, mu: np.ndarray, level: int, rule: QuadratureRule
) -> LevelOperatorContext:
    """The context of ``level`` from its dof maps and cell viscosities.  The
    velocity maps and the constrained set take every component block: the
    component offset plus the scalar index."""
    dim = mesh.dim
    offsets = np.arange(dim)[:, None] * dofs.n_scalar
    u_map = (offsets[None] + dofs.q2_map[:, None, :]).reshape(mesh.n_cells(level), -1)
    return LevelOperatorContext(
        dim=dim,
        level=level,
        h=mesh.h(level),
        n_cells=mesh.n_cells(level),
        lattices=mesh.cell_lattices(level),
        dofs=dofs,
        mu=mu,
        rule=rule,
        elements=_element_matrices(dim, rule),
        u_map=u_map,
        u_constrained=(offsets + dofs.dirichlet_scalar).ravel(),
    )


def _scatter(idx: np.ndarray, local: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(idx.ravel(), weights=local.ravel(), minlength=n)


def _check_length(x: np.ndarray, n: int, what: str) -> None:
    if x.size != n:
        raise ValueError(f"{what} length {x.size} != {n}")


def _gather_velocity(ctx: LevelOperatorContext, u: np.ndarray) -> np.ndarray:
    """Local coefficients of every cell, (n_cells, dim*L2), with the
    constrained entries zeroed; a view of the context's scratch."""
    _check_length(u, ctx.n_u, "velocity")
    um, cells, _ = ctx.work
    np.copyto(um, u)
    um[ctx.u_constrained] = 0.0
    # every index is in range; "clip" lets take write into ``out`` unbuffered
    return np.take(um, ctx.u_map, out=cells, mode="clip")


def apply_A(ctx: LevelOperatorContext, u: np.ndarray) -> np.ndarray:
    """Viscous block: A_ij = int 2*mu eps(phi_i) : eps(phi_j), the fully
    coupled strain-rate form.  Gather, one GEMM with the reference matrix,
    mu_c h**(dim-2) per cell, one scatter; constrained rows act as the
    identity."""
    local = np.matmul(_gather_velocity(ctx, u), ctx.elements.A, out=ctx.work[2])
    local *= ctx.a_scale[:, None]
    out = _scatter(ctx.u_map, local, ctx.n_u)
    out[ctx.u_constrained] = u[ctx.u_constrained]
    ctx.count("apply_A")
    return out


def apply_B(ctx: LevelOperatorContext, u: np.ndarray) -> np.ndarray:
    """Divergence block: (B u)_i = -int (div u_h) phi^p_i."""
    local = _gather_velocity(ctx, u) @ ctx.elements.B.T
    local *= ctx.h ** (ctx.dim - 1)
    ctx.count("apply_B")
    return _scatter(ctx.dofs.q1_map, local, ctx.n_p)


def apply_Bt(ctx: LevelOperatorContext, p: np.ndarray) -> np.ndarray:
    """Transpose of the divergence block; constrained rows are zeroed so
    that <B u, p> == <u, B^T p> with the masked B."""
    _check_length(p, ctx.n_p, "pressure")
    local = np.matmul(np.take(p, ctx.dofs.q1_map), ctx.elements.B, out=ctx.work[2])
    local *= ctx.h ** (ctx.dim - 1)
    out = _scatter(ctx.u_map, local, ctx.n_u)
    out[ctx.u_constrained] = 0.0
    ctx.count("apply_Bt")
    return out


def apply_Mp(ctx: LevelOperatorContext, p: np.ndarray) -> np.ndarray:
    """Viscosity-weighted pressure mass matrix: int (1/mu) phi^p_i phi^p_j."""
    _check_length(p, ctx.n_p, "pressure")
    local = np.take(p, ctx.dofs.q1_map) @ ctx.elements.Mp
    local *= ctx.mp_scale[:, None]
    ctx.count("apply_Mp")
    return _scatter(ctx.dofs.q1_map, local, ctx.n_p)


def apply_stokes(ctx: LevelOperatorContext, x: np.ndarray) -> np.ndarray:
    """Full saddle-point operator on the stacked ``(u, p)``: ``(A u + B^T p, B u)``."""
    u, p = x[: ctx.n_u], x[ctx.n_u :]
    return np.concatenate([apply_A(ctx, u) + apply_Bt(ctx, p), apply_B(ctx, u)])


def assemble_rhs_function(ctx: LevelOperatorContext, f) -> np.ndarray:
    """Stacked load vector ``(F, 0)``, with F_i = int phi_i . f for an
    arbitrary forcing callback ``f(points) -> (n, dim)`` and its
    constrained entries zeroed."""
    rule = ctx.rule
    q2 = tabulate(2, ctx.dim, rule)
    pts = cell_quad_points(ctx.lattices, ctx.h, rule)
    fv = np.asarray(f(pts.reshape(-1, ctx.dim))).reshape(ctx.n_cells, rule.n, ctx.dim)
    fw = (fv * rule.weights[None, :, None]).transpose(0, 2, 1)  # (nc, dim, n_q)
    local = (fw @ q2.values).reshape(ctx.n_cells, -1) * ctx.h**ctx.dim
    # the velocity indices lie below n_u, so the pressure part stays zero
    out = _scatter(ctx.u_map, local, ctx.n_u + ctx.n_p)
    out[ctx.u_constrained] = 0.0
    return out


def assemble_rhs(ctx: LevelOperatorContext, cfg: SinkerConfig) -> np.ndarray:
    """Load vector of the sinker forcing on the context's level."""
    return assemble_rhs_function(ctx, lambda x: forcing(x, cfg))


def compute_diagonal(ctx: LevelOperatorContext, which: str) -> np.ndarray:
    """Exact diagonal of A or Mp: the per-cell scaling of the element
    matrix diagonal, scattered.  Constrained entries of A are set to 1."""
    if which == "A":
        local = np.outer(ctx.a_scale, np.diag(ctx.elements.A))
        out = _scatter(ctx.u_map, local, ctx.n_u)
        out[ctx.u_constrained] = 1.0
        return out
    if which == "Mp":
        local = np.outer(ctx.mp_scale, np.diag(ctx.elements.Mp))
        return _scatter(ctx.dofs.q1_map, local, ctx.n_p)
    raise ValueError(f"unknown operator {which!r}, expected 'A' or 'Mp'")


def pressure_volume_weights(ctx: LevelOperatorContext) -> np.ndarray:
    """Vector m with m_j = int phi^p_j, so m . p = int p_h."""
    q1 = tabulate(1, ctx.dim, ctx.rule)
    local = np.broadcast_to(ctx.rule.weights @ q1.values * ctx.h**ctx.dim, ctx.dofs.q1_map.shape)
    return _scatter(ctx.dofs.q1_map, np.ascontiguousarray(local), ctx.n_p)


# ---------------------------------------------------------------------------


class StokesSystem:
    """Level contexts plus the active-level saddle operator of one problem."""

    def __init__(
        self, mesh: MeshHierarchy, dofs: list[LevelDofs], mu: list[np.ndarray], rule: QuadratureRule
    ):
        self.mesh = mesh
        self.rule = rule
        self.contexts = [
            make_level_context(mesh, dofs[level], mu[level], level, self.rule)
            for level in range(mesh.n_levels)
        ]
        self.active = self.contexts[-1]
        self._pressure_weights: np.ndarray | None = None

    @property
    def n_u(self) -> int:
        return self.active.n_u

    @property
    def n_p(self) -> int:
        return self.active.n_p

    @property
    def n_dofs(self) -> int:
        return self.n_u + self.n_p

    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        return apply_stokes(self.active, x)

    def pressure_weights(self) -> np.ndarray:
        if self._pressure_weights is None:
            self._pressure_weights = pressure_volume_weights(self.active)
        return self._pressure_weights
