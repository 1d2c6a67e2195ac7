"""Tensor-product Lagrange elements, Gauss quadrature, and dof layout.

Implements the continuous Q2 velocity / Q1 pressure pair on the uniform
Cartesian hierarchy.  Scalar degrees of freedom sit on the tensor grid of
equispaced support points of each level (spacing h/degree); they are
numbered lexicographically with x fastest.  A velocity vector stores the
``dim`` component blocks back to back, each of length ``n_scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshHierarchy


# ---------------------------------------------------------------------------
# 1D Lagrange bases


@dataclass(frozen=True)
class ScalarBasis:
    """Equispaced Lagrange basis of the given degree on [0,1]."""

    degree: int
    nodes: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.degree + 1


_BASES = {
    1: ScalarBasis(1, (0.0, 1.0)),
    2: ScalarBasis(2, (0.0, 0.5, 1.0)),
}


def q_basis(degree: int) -> ScalarBasis:
    if degree not in _BASES:
        raise ValueError(f"unsupported basis degree {degree}")
    return _BASES[degree]


def lagrange_value_1d(basis: ScalarBasis, i: int, x):
    """Value of the i-th 1D Lagrange function at x (scalar or array)."""
    if not 0 <= i < basis.n:
        raise IndexError(f"basis index {i} out of range")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    xi = basis.nodes[i]
    for j, xj in enumerate(basis.nodes):
        if j != i:
            out = out * (x - xj) / (xi - xj)
    return out


def lagrange_grad_1d(basis: ScalarBasis, i: int, x):
    if not 0 <= i < basis.n:
        raise IndexError(f"basis index {i} out of range")
    x = np.asarray(x, dtype=float)
    xi = basis.nodes[i]
    out = np.zeros_like(x)
    for k, xk in enumerate(basis.nodes):
        if k == i:
            continue
        term = np.ones_like(x) / (xi - xk)
        for j, xj in enumerate(basis.nodes):
            if j != i and j != k:
                term = term * (x - xj) / (xi - xj)
        out = out + term
    return out


def local_lattice(degree: int, dim: int) -> np.ndarray:
    """Per-axis node indices of the local tensor basis, x fastest."""
    n = degree + 1
    k = np.arange(n**dim)
    return np.stack([(k // n**a) % n for a in range(dim)], axis=1)


def shape_eval(basis: ScalarBasis, i: int, x) -> tuple[float, np.ndarray]:
    """Value and reference gradient of tensor-product shape function i at x.

    ``x`` is a point in the reference cell [0,1]^dim; ``i`` indexes the
    local lexicographic ordering (x fastest).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    n_loc = basis.n**dim
    if not 0 <= i < n_loc:
        raise IndexError(f"local index {i} out of range for {n_loc} functions")
    idx = local_lattice(basis.degree, dim)[i]
    vals = np.array([lagrange_value_1d(basis, idx[a], x[a]) for a in range(dim)])
    ders = np.array([lagrange_grad_1d(basis, idx[a], x[a]) for a in range(dim)])
    value = float(np.prod(vals))
    grad = np.empty(dim)
    for b in range(dim):
        g = ders[b]
        for a in range(dim):
            if a != b:
                g = g * vals[a]
        grad[b] = g
    return value, grad


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on the reference cell [0,1]^dim."""

    points: np.ndarray  # (n_q, dim)
    weights: np.ndarray  # (n_q,)

    @property
    def n(self) -> int:
        return self.weights.size


def make_gauss_rule(points_per_axis: int, dim: int) -> QuadratureRule:
    """Gauss rule exact for per-axis polynomial degree <= 2*points_per_axis - 1."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    xi, wi = np.polynomial.legendre.leggauss(points_per_axis)
    x1 = 0.5 * (xi + 1.0)
    w1 = 0.5 * wi
    q = points_per_axis
    k = np.arange(q**dim)
    pts = np.stack([x1[(k // q**a) % q] for a in range(dim)], axis=1)
    wts = np.ones(q**dim)
    for a in range(dim):
        wts = wts * w1[(k // q**a) % q]
    return QuadratureRule(points=pts, weights=wts)


@dataclass(frozen=True)
class BasisTables:
    """Shape values/gradients tabulated at the quadrature points."""

    values: np.ndarray  # (n_q, n_loc)
    grads: np.ndarray  # (n_q, n_loc, dim)


_TABLE_CACHE: dict[tuple, BasisTables] = {}


def tabulate(degree: int, dim: int, rule: QuadratureRule) -> BasisTables:
    key = (degree, dim, rule.points.tobytes())
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    basis = q_basis(degree)
    n_loc = basis.n**dim
    vals = np.empty((rule.n, n_loc))
    grads = np.empty((rule.n, n_loc, dim))
    for q in range(rule.n):
        for i in range(n_loc):
            v, g = shape_eval(basis, i, rule.points[q])
            vals[q, i] = v
            grads[q, i] = g
    tables = BasisTables(values=vals, grads=grads)
    _TABLE_CACHE[key] = tables
    return tables


# ---------------------------------------------------------------------------
# Degree-of-freedom layout


@dataclass
class LevelDofs:
    """Scalar dof maps of one level for the Q2 and Q1 spaces."""

    level: int
    h: float
    n_cells: int
    q2_map: np.ndarray  # (n_cells, 3**dim) scalar Q2 indices
    q1_map: np.ndarray  # (n_cells, 2**dim) scalar Q1 indices
    n_scalar: int  # Q2 dofs per velocity component
    n_p: int
    dirichlet_scalar: np.ndarray  # Q2 indices with support point on the boundary

    def velocity_constrained(self, dim: int) -> np.ndarray:
        """Boundary indices expanded over the component blocks."""
        offs = np.arange(dim) * self.n_scalar
        return (self.dirichlet_scalar[None, :] + offs[:, None]).ravel()


@dataclass
class DofMap:
    dim: int
    levels: list[LevelDofs] = field(default_factory=list)

    @property
    def active(self) -> LevelDofs:
        return self.levels[-1]

    @property
    def n_u(self) -> int:
        return self.dim * self.active.n_scalar

    @property
    def n_p(self) -> int:
        return self.active.n_p


def _grid_boundary_indices(m: int, dim: int) -> np.ndarray:
    k = np.arange(m**dim)
    mask = np.zeros(m**dim, dtype=bool)
    for a in range(dim):
        c = (k // m**a) % m
        mask |= (c == 0) | (c == m - 1)
    return np.nonzero(mask)[0].astype(np.int64)


def _cell_map(lattices: np.ndarray, degree: int, m: int, dim: int) -> np.ndarray:
    loc = local_lattice(degree, dim)  # (n_loc, dim)
    glob = degree * lattices[:, None, :] + loc[None, :, :]
    idx = np.zeros(glob.shape[:2], dtype=np.int64)
    for a in range(dim):
        idx += glob[..., a] * m**a
    return idx


def distribute_dofs(mesh: MeshHierarchy) -> DofMap:
    """Number the Q2/Q1 dofs of every level.

    Support points shared between cells receive one global index, which
    gives C0 continuity by construction.
    """
    dm = DofMap(dim=mesh.dim)
    for level in range(mesh.n_levels):
        n = mesh.cells_per_axis(level)
        m2 = 2 * n + 1
        m1 = n + 1
        lat = mesh.cell_lattices(level)
        dm.levels.append(
            LevelDofs(
                level=level,
                h=mesh.h(level),
                n_cells=mesh.n_cells(level),
                q2_map=_cell_map(lat, 2, m2, mesh.dim),
                q1_map=_cell_map(lat, 1, m1, mesh.dim),
                n_scalar=m2**mesh.dim,
                n_p=m1**mesh.dim,
                dirichlet_scalar=_grid_boundary_indices(m2, mesh.dim),
            )
        )
    return dm


# ---------------------------------------------------------------------------
# Block vectors


@dataclass
class BlockVector:
    """Velocity/pressure coefficient pair in the layout of the saddle system."""

    u: np.ndarray
    p: np.ndarray

    def copy(self) -> "BlockVector":
        return BlockVector(self.u.copy(), self.p.copy())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u, self.p])

    @classmethod
    def from_flat(cls, x: np.ndarray, n_u: int) -> "BlockVector":
        return cls(x[:n_u], x[n_u:])

    @classmethod
    def zeros(cls, n_u: int, n_p: int) -> "BlockVector":
        return cls(np.zeros(n_u), np.zeros(n_p))


# ---------------------------------------------------------------------------
# Quadrature points


def cell_quad_points(mesh: MeshHierarchy, level: int, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points of every cell, shape (n_cells, n_q, dim)."""
    lat = mesh.cell_lattices(level)
    return (lat[:, None, :] + rule.points[None, :, :]) * mesh.h(level)
