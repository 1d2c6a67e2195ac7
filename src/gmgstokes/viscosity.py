"""Sinker viscosity field, harmonic cell averaging, and level restriction.

The benchmark places ``n`` spherical inclusions ("sinkers") of diameter
``omega`` in the unit box.  An indicator ``chi`` decays smoothly from 1
far away to 0 inside a sinker; viscosity blends between ``mu_max`` at
the sinkers and ``mu_min`` outside, with the contrast set by the dynamic
ratio DR so that mu_max/mu_min = DR.  Gravity acts along the last axis
and pulls the sinkers down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import QuadratureRule, cell_quad_points
from .mesh import MeshHierarchy


@dataclass(frozen=True)
class SinkerConfig:
    n: int
    dynamic_ratio: float
    centers: np.ndarray  # (n, dim)
    delta: float
    omega: float
    beta: float

    @property
    def mu_min(self) -> float:
        return float(self.dynamic_ratio) ** (-0.5)

    @property
    def mu_max(self) -> float:
        return float(self.dynamic_ratio) ** 0.5


def sinker_config(
    dim: int,
    n: int,
    dynamic_ratio: float,
    seed: int = 1,
    centers=None,
    delta: float = 200.0,
    omega: float = 0.1,
    beta: float = 10.0,
) -> SinkerConfig:
    """Build a sinker configuration, drawing centers from a seeded PCG64 stream.

    Generated centers are uniform over [omega/2, 1 - omega/2]^dim so that
    whole sinkers fit inside the domain; explicit ``centers`` override the
    generator.
    """
    if n < 0:
        raise ValueError("sinker count must be >= 0")
    if dynamic_ratio < 1.0:
        raise ValueError("dynamic_ratio must be >= 1")
    if centers is None:
        rng = np.random.default_rng(seed)
        centers = omega / 2 + (1.0 - omega) * rng.random((n, dim))
    centers = np.asarray(centers, dtype=float).reshape(n, dim)
    if n and (centers.min() < 0.0 or centers.max() > 1.0):
        raise ValueError("sinker centers must lie inside the unit box")
    return SinkerConfig(
        n=n,
        dynamic_ratio=float(dynamic_ratio),
        centers=centers,
        delta=float(delta),
        omega=float(omega),
        beta=float(beta),
    )


def chi(x, cfg: SinkerConfig) -> np.ndarray:
    """Smooth sinker indicator in [0,1]; 1 far from all sinkers, 0 inside one.

    Each sinker contributes the factor
    ``1 - exp(-delta * max(0, |c_i - x| - omega/2)**2)`` and the factors
    multiply; the empty product (n = 0) is 1.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    out = np.ones(pts.shape[0])
    for c in cfg.centers:
        dist = np.linalg.norm(pts - c[None, :], axis=1)
        gap = np.maximum(0.0, dist - cfg.omega / 2)
        out *= 1.0 - np.exp(-cfg.delta * gap**2)
    return out if x.ndim > 1 else out[0]


def mu(x, cfg: SinkerConfig) -> np.ndarray:
    """Viscosity mu = chi*mu_min + (1 - chi)*mu_max."""
    c = chi(x, cfg)
    return c * cfg.mu_min + (1.0 - c) * cfg.mu_max


def forcing(x, cfg: SinkerConfig) -> np.ndarray:
    """Body force beta*(chi - 1) along the last axis (gravity pulling down)."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    dim = pts.shape[1]
    out = np.zeros_like(pts)
    out[:, dim - 1] = cfg.beta * (chi(pts, cfg) - 1.0)
    return out if x.ndim > 1 else out[0]


def average_active_viscosity(
    mesh: MeshHierarchy, cfg: SinkerConfig, rule: QuadratureRule
) -> np.ndarray:
    """Harmonic mean of pointwise viscosity over each active cell's rule
    points, one value per active cell.

    The mean is unweighted: value = n_q / sum_k 1/mu(x_k).
    """
    level = mesh.active_level
    pts = cell_quad_points(mesh.cell_lattices(level), mesh.h(level), rule).reshape(-1, mesh.dim)
    vals = mu(pts, cfg).reshape(mesh.n_cells(level), rule.n)
    if np.any(vals <= 0.0):
        raise ValueError("viscosity must be strictly positive at quadrature points")
    return rule.n / np.sum(1.0 / vals, axis=1)


def restrict_viscosity(active: np.ndarray, mesh: MeshHierarchy) -> list[np.ndarray]:
    """One cell viscosity array per level, coarsest first: ``active`` on the
    active level and, on every coarser one, the arithmetic mean of the
    child values."""
    out = [active]
    for level in range(mesh.active_level, 0, -1):
        n = mesh.cells_per_axis(level)
        # cell index is x-fastest, so the child 0/1 offset is the fastest
        # axis of each (2, n/2) pair in a Fortran-order reshape
        blocks = out[0].reshape((2, n // 2) * mesh.dim, order="F")
        coarse = blocks.mean(axis=tuple(range(0, 2 * mesh.dim, 2)))
        out.insert(0, coarse.ravel(order="F"))
    return out
