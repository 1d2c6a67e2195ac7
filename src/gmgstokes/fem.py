"""Tensor-product Lagrange elements, Gauss quadrature, and dof layout.

Implements the continuous Q2 velocity / Q1 pressure pair on the uniform
Cartesian hierarchy.  Scalar degrees of freedom sit on the tensor grid of
equispaced support points of each level (spacing h/degree); they are
numbered lexicographically with x fastest.  A velocity vector stores the
``dim`` component blocks back to back, each of length ``n_scalar``, and a
saddle-point vector is one flat array: the velocity ``u`` (``n_u = dim *
n_scalar`` entries) followed by the pressure ``p`` (``n_p`` entries).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import MeshHierarchy, lattice


# ---------------------------------------------------------------------------
# 1D Lagrange bases


def lagrange_1d(degree: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the equispaced degree-1 or degree-2
    Lagrange basis on [0,1] at the points ``x``; both have shape
    ``x.shape + (degree + 1,)``.  The Q1/Q2 shape functions are products
    of these factors over the axes."""
    if degree not in (1, 2):
        raise ValueError(f"unsupported basis degree {degree}")
    x = np.asarray(x, dtype=float)
    nodes = np.arange(degree + 1) / degree

    def factor(start, xi, others):
        for xj in others:
            start = start * (x - xj) / (xi - xj)
        return start

    vals = np.empty(x.shape + (degree + 1,))
    ders = np.empty_like(vals)
    for i, xi in enumerate(nodes):
        others = np.delete(nodes, i)
        vals[..., i] = factor(np.ones_like(x), xi, others)
        der = np.zeros_like(x)
        for k, xk in enumerate(others):
            der = der + factor(np.ones_like(x) / (xi - xk), xi, np.delete(others, k))
        ders[..., i] = der
    return vals, ders


def _axis_product(factors) -> np.ndarray:
    """Product of the per-axis factors, multiplied in axis order."""
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on the reference cell [0,1]^dim.
    A rule hashes and compares by identity, so the tables built from it
    are cached per rule object."""

    points: np.ndarray  # (n_q, dim)
    weights: np.ndarray  # (n_q,)

    @property
    def n(self) -> int:
        return self.weights.size


@functools.cache
def make_gauss_rule(points_per_axis: int, dim: int) -> QuadratureRule:
    """Gauss rule exact for per-axis polynomial degree <= 2*points_per_axis - 1;
    one read-only rule per process for each argument pair."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be >= 1")
    xi, wi = np.polynomial.legendre.leggauss(points_per_axis)
    x1 = 0.5 * (xi + 1.0)
    w1 = 0.5 * wi
    lat = lattice(points_per_axis, dim)
    rule = QuadratureRule(points=x1[lat], weights=_axis_product(w1[lat].T))
    for table in (rule.points, rule.weights):
        table.setflags(write=False)
    return rule


@dataclass(frozen=True)
class BasisTables:
    """Shape values/gradients tabulated at the quadrature points."""

    values: np.ndarray  # (n_q, n_loc)
    grads: np.ndarray  # (n_q, n_loc, dim)


@functools.cache
def tabulate(degree: int, dim: int, rule: QuadratureRule) -> BasisTables:
    """Q1/Q2 shape values and reference gradients at the rule's points, as
    products of the 1D factors over the axes; built once per rule, read-only."""
    # per-axis factors of every local function at every point, each (n_q, n_loc);
    # take keeps them C-ordered, as BLAS sums an F-ordered table in another order
    lat = lattice(degree + 1, dim).T
    vals1, ders1 = lagrange_1d(degree, rule.points.T)  # (dim, n_q, degree+1)
    vals = [np.take(v, i, axis=1) for v, i in zip(vals1, lat)]
    ders = [np.take(d, i, axis=1) for d, i in zip(ders1, lat)]
    grads = np.stack(
        [_axis_product([ders[b]] + [vals[a] for a in range(dim) if a != b]) for b in range(dim)],
        axis=-1,
    )
    tables = BasisTables(values=_axis_product(vals), grads=grads)
    for table in (tables.values, tables.grads):
        table.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# Degree-of-freedom layout


def _grid_boundary_indices(m: int, dim: int) -> np.ndarray:
    on = np.zeros((m,) * dim, dtype=bool)
    for a in range(dim):
        np.moveaxis(on, a, 0)[[0, -1]] = True  # both end planes of axis a
    # the set is symmetric in the axes, so C order numbers it x fastest too
    return np.flatnonzero(on)


def _cell_map(lattices: np.ndarray, degree: int, m: int, dim: int) -> np.ndarray:
    # each cell's first node plus each local node's offset on the m**dim lattice
    w = m ** np.arange(dim)
    return ((degree * lattices) @ w)[:, None] + lattice(degree + 1, dim) @ w


def distribute_dofs(mesh: MeshHierarchy) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Number the dofs of every level, coarsest first, as the maps the
    operators index with: per level ``(u_map, p_map, u_constrained)``, the
    component-major velocity map (n_cells, dim * 3**dim) with entries
    ``a * n_scalar`` plus the scalar Q2 index, the Q1 pressure map
    (n_cells, 2**dim), and the velocity indices of every component whose
    support point lies on the boundary.  Shared support points get one
    global index, which gives C0 continuity by construction."""
    dim = mesh.dim
    out = []
    for level in range(mesh.n_levels):
        n = mesh.cells_per_axis(level)
        m2 = 2 * n + 1
        lat = mesh.cell_lattices(level)
        offsets = np.arange(dim)[:, None] * m2**dim
        q2_map = _cell_map(lat, 2, m2, dim)
        u_map = (offsets[None] + q2_map[:, None, :]).reshape(len(lat), -1)
        u_constrained = (offsets + _grid_boundary_indices(m2, dim)).ravel()
        out.append((u_map, _cell_map(lat, 1, n + 1, dim), u_constrained))
    return out


# ---------------------------------------------------------------------------
# Quadrature points


def cell_quad_points(lattices: np.ndarray, h: float, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points of the cells with the given lattice
    coordinates and side h, shape (n_cells, n_q, dim)."""
    return (lattices[:, None, :] + rule.points[None, :, :]) * h
