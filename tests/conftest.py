import dataclasses

import numpy as np
import pytest

from gmgstokes.fem import distribute_dofs, make_gauss_rule
from gmgstokes.mesh import build_hierarchy
from gmgstokes.operators import StokesSystem


def constant_viscosity(mesh, value=1.0):
    return [np.full(mesh.n_cells(l), float(value)) for l in range(mesh.n_levels)]


def random_viscosity(mesh, seed=0, lo=0.5, hi=3.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi, mesh.n_cells(l)) for l in range(mesh.n_levels)]


def unconstrained_context(system, level):
    """The system's context of ``level`` without the Dirichlet treatment:
    the pure Neumann form of the operators."""
    ctx = system.contexts[level]
    return dataclasses.replace(ctx, u_constrained=np.empty(0, dtype=np.int64))


def make_system(dim, n_levels, visc=None, visc_value=1.0):
    mesh = build_hierarchy(dim, n_levels)
    mu = visc if visc is not None else constant_viscosity(mesh, visc_value)
    return StokesSystem(mesh, distribute_dofs(mesh), mu)


@pytest.fixture
def rule2d():
    return make_gauss_rule(3, 2)


@pytest.fixture
def rule3d():
    return make_gauss_rule(3, 3)
