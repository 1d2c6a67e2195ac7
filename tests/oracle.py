"""Brute-force dense assembly used to cross-check the matrix-free kernels.

Classic finite element assembly: loop over cells, build the local element
matrix by quadrature, scatter into a dense global matrix, then impose the
identity-on-constrained-rows convention.  Deliberately structured unlike
the production gather/GEMM/scatter path.

Also pointwise evaluation and nodal interpolation of scalar FE functions,
the reference the transfer and interpolation tests compare against.
"""

import numpy as np

from gmgstokes.fem import (
    LevelDofs,
    QuadratureRule,
    lagrange_value_1d,
    local_lattice,
    q_basis,
    shape_eval,
)
from gmgstokes.mesh import MeshHierarchy


def local_basis(degree: int, dim: int, rule: QuadratureRule):
    basis = q_basis(degree)
    n_loc = basis.n**dim
    vals = np.empty((rule.n, n_loc))
    grads = np.empty((rule.n, n_loc, dim))
    for q in range(rule.n):
        for i in range(n_loc):
            vals[q, i], grads[q, i] = shape_eval(basis, i, rule.points[q])
    return vals, grads


def _mask_identity(mat: np.ndarray, rows: np.ndarray) -> None:
    mat[rows, :] = 0.0
    mat[:, rows] = 0.0
    mat[rows, rows] = 1.0


def velocity_indices(ld, dim: int) -> np.ndarray:
    offs = np.arange(dim) * ld.n_scalar
    return (ld.dirichlet_scalar[None, :] + offs[:, None]).ravel()


def assemble_A(mesh, dofmap, level, mu_cells, rule, constrain=True):
    dim = mesh.dim
    ld = dofmap.levels[level]
    h = ld.h
    _, grads = local_basis(2, dim, rule)
    l2 = grads.shape[1]
    n = dim * ld.n_scalar
    mat = np.zeros((n, n))
    for c in range(ld.n_cells):
        kloc = np.zeros((dim, l2, dim, l2))
        for q in range(rule.n):
            gph = grads[q] / h  # physical gradients, (l2, dim)
            eps = np.zeros((dim, l2, dim, dim))
            for a in range(dim):
                for i in range(l2):
                    t = np.zeros((dim, dim))
                    t[a, :] = gph[i]
                    eps[a, i] = 0.5 * (t + t.T)
            kloc += (2.0 * mu_cells[c] * rule.weights[q] * h**dim) * np.einsum(
                "aide,bjde->aibj", eps, eps
            )
        gidx = (np.arange(dim)[:, None] * ld.n_scalar + ld.q2_map[c][None, :]).ravel()
        mat[np.ix_(gidx, gidx)] += kloc.reshape(dim * l2, dim * l2)
    if constrain:
        _mask_identity(mat, velocity_indices(ld, dim))
    return mat


def assemble_B(mesh, dofmap, level, rule, constrain=True):
    dim = mesh.dim
    ld = dofmap.levels[level]
    h = ld.h
    _, grads2 = local_basis(2, dim, rule)
    vals1, _ = local_basis(1, dim, rule)
    l2 = grads2.shape[1]
    l1 = vals1.shape[1]
    mat = np.zeros((ld.n_p, dim * ld.n_scalar))
    for c in range(ld.n_cells):
        bloc = np.zeros((l1, dim, l2))
        for q in range(rule.n):
            gph = grads2[q] / h
            for a in range(dim):
                bloc[:, a, :] += (-rule.weights[q] * h**dim) * np.outer(
                    vals1[q], gph[:, a]
                )
        rows = ld.q1_map[c]
        cols = (np.arange(dim)[:, None] * ld.n_scalar + ld.q2_map[c][None, :]).ravel()
        mat[np.ix_(rows, cols)] += bloc.reshape(l1, dim * l2)
    if constrain:
        mat[:, velocity_indices(ld, dim)] = 0.0
    return mat


def assemble_Mp(mesh, dofmap, level, mu_cells, rule):
    dim = mesh.dim
    ld = dofmap.levels[level]
    h = ld.h
    vals1, _ = local_basis(1, dim, rule)
    mat = np.zeros((ld.n_p, ld.n_p))
    for c in range(ld.n_cells):
        mloc = np.zeros((vals1.shape[1],) * 2)
        for q in range(rule.n):
            mloc += (rule.weights[q] * h**dim / mu_cells[c]) * np.outer(
                vals1[q], vals1[q]
            )
        mat[np.ix_(ld.q1_map[c], ld.q1_map[c])] += mloc
    return mat


def assemble_rhs(mesh: MeshHierarchy, dofmap, level, f, rule, constrain=True):
    dim = mesh.dim
    ld = dofmap.levels[level]
    h = ld.h
    vals2, _ = local_basis(2, dim, rule)
    lat = mesh.cell_lattices(level)
    vec = np.zeros(dim * ld.n_scalar)
    for c in range(ld.n_cells):
        for q in range(rule.n):
            x = (lat[c] + rule.points[q]) * h
            fx = np.asarray(f(x[None, :]))[0]
            for a in range(dim):
                vec[a * ld.n_scalar + ld.q2_map[c]] += (
                    rule.weights[q] * h**dim * fx[a]
                ) * vals2[q]
    if constrain:
        vec[velocity_indices(ld, dim)] = 0.0
    return vec


def free_velocity_indices(ld, dim: int) -> np.ndarray:
    mask = np.ones(dim * ld.n_scalar, dtype=bool)
    mask[velocity_indices(ld, dim)] = False
    return np.nonzero(mask)[0]


def support_points(dim: int, level: int, degree: int) -> np.ndarray:
    """Physical coordinates of the scalar support points, in dof order."""
    n = 2**level
    m = degree * n + 1
    k = np.arange(m**dim)
    coords = np.stack([(k // m**a) % m for a in range(dim)], axis=1)
    return coords / (degree * n)


def evaluate_scalar(
    coeffs: np.ndarray,
    dofs: LevelDofs,
    dim: int,
    degree: int,
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate a scalar FE function at arbitrary points of [0,1]^dim."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = int(round(1.0 / dofs.h))
    lat = np.minimum(np.floor(points * n).astype(np.int64), n - 1)
    loc = points * n - lat
    cell = np.zeros(len(points), dtype=np.int64)
    for a in range(dim):
        cell += lat[:, a] * n**a
    cmap = dofs.q2_map if degree == 2 else dofs.q1_map
    basis = q_basis(degree)
    ax_vals = [
        np.stack([lagrange_value_1d(basis, i, loc[:, a]) for i in range(basis.n)], axis=1)
        for a in range(dim)
    ]
    lidx = local_lattice(degree, dim)
    vals = np.ones((len(points), len(lidx)))
    for a in range(dim):
        vals *= ax_vals[a][:, lidx[:, a]]
    return np.sum(coeffs[cmap[cell]] * vals, axis=1)


def interpolate_scalar(fn, dim: int, level: int, degree: int) -> np.ndarray:
    """Nodal interpolation of ``fn(points) -> values`` onto the FE space."""
    return np.asarray(fn(support_points(dim, level, degree)), dtype=float)
