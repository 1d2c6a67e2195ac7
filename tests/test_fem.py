import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import evaluate_scalar, interpolate_scalar, support_points

from gmgstokes.fem import (
    BlockVector,
    distribute_dofs,
    lagrange_value_1d,
    make_gauss_rule,
    q_basis,
    shape_eval,
)
from gmgstokes.mesh import build_hierarchy


# -- 1D Lagrange oracle used to pin the tensor-product evaluation ----------


def lagrange_oracle(nodes, i, x):
    """Direct product-form Lagrange polynomial."""
    val = 1.0
    for j, xj in enumerate(nodes):
        if j != i:
            val *= (x - xj) / (nodes[i] - xj)
    return val


def test_kronecker_property_q1():
    b = q_basis(1)
    assert shape_eval(b, 0, [0.0])[0] == 1.0
    assert shape_eval(b, 0, [1.0])[0] == 0.0


def test_q2_values_at_quarter_point():
    b = q_basis(2)
    vals = [float(lagrange_value_1d(b, i, 0.25)) for i in range(3)]
    assert vals == pytest.approx([0.375, 0.75, -0.125], abs=1e-15)
    oracle = [lagrange_oracle(b.nodes, i, 0.25) for i in range(3)]
    assert vals == pytest.approx(oracle, abs=1e-15)


@given(
    degree=st.sampled_from([1, 2]),
    dim=st.sampled_from([1, 2, 3]),
    coords=st.lists(st.floats(0, 1), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_partition_of_unity(degree, dim, coords):
    b = q_basis(degree)
    x = np.array(coords[:dim])
    total = 0.0
    grad = np.zeros(dim)
    for i in range((degree + 1) ** dim):
        v, g = shape_eval(b, i, x)
        total += v
        grad += g
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(grad) == pytest.approx(0.0, abs=1e-11)


def test_shape_eval_rejects_bad_index():
    with pytest.raises(IndexError):
        shape_eval(q_basis(2), 9, [0.5, 0.5])


def test_midpoint_rule():
    r = make_gauss_rule(1, 2)
    assert np.allclose(r.points, [[0.5, 0.5]])
    assert np.allclose(r.weights, [1.0])


def test_gauss_exactness_degree_five():
    r = make_gauss_rule(3, 1)
    assert np.sum(r.weights * r.points[:, 0] ** 5) == pytest.approx(1 / 6, rel=1e-14)


def test_gauss_3d_weights():
    r = make_gauss_rule(3, 3)
    assert r.n == 27
    assert np.sum(r.weights) == pytest.approx(1.0, rel=1e-14)
    assert np.all(r.weights > 0)


def test_cellwise_quadrature_volume(rule2d):
    # integrating the constant 1 (expanded in the basis via partition of
    # unity) over one cell gives exactly h^dim
    mesh = build_hierarchy(2, 3)
    h = mesh.h(2)
    vals = np.array(
        [[shape_eval(q_basis(2), i, pt)[0] for i in range(9)] for pt in rule2d.points]
    )
    integral = np.sum(rule2d.weights * vals.sum(axis=1)) * h**2
    assert integral == pytest.approx(h**2, rel=1e-15)


def test_dof_counts_single_cell_2d():
    dm = distribute_dofs(build_hierarchy(2, 1))
    assert dm.n_u == 18
    assert dm.n_p == 4


def test_dof_counts_single_cell_3d():
    dm = distribute_dofs(build_hierarchy(3, 1))
    assert dm.n_u == 81
    assert dm.n_p == 8


def test_dof_counts_3d_level2():
    dm = distribute_dofs(build_hierarchy(3, 3))
    ld = dm.levels[2]
    assert 3 * ld.n_scalar == 2187
    assert ld.n_p == 125
    # enumeration cross-check: distinct q2 support points
    assert len(np.unique(ld.q2_map)) == ld.n_scalar == (2 * 4 + 1) ** 3
    assert len(np.unique(ld.q1_map)) == (4 + 1) ** 3


def test_dirichlet_set_matches_boundary_support_points():
    dm = distribute_dofs(build_hierarchy(2, 2))
    ld = dm.levels[1]
    pts = support_points(2, 1, 2)
    on_boundary = np.nonzero(np.any((pts == 0.0) | (pts == 1.0), axis=1))[0]
    assert np.array_equal(np.sort(ld.dirichlet_scalar), on_boundary)


def test_continuity_across_shared_face():
    # a global coefficient vector evaluated from either neighboring cell
    # agrees on the shared face
    mesh = build_hierarchy(2, 2)
    dm = distribute_dofs(mesh)
    ld = dm.levels[1]
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(ld.n_scalar)
    basis = q_basis(2)
    # face x = 0.5 between cells (0,0) and (1,0): evaluate at (0.5, t)
    for t in np.linspace(0.0, 0.5, 7):
        left = right = 0.0
        for i in range(9):
            v_l, _ = shape_eval(basis, i, [1.0, 2 * t])
            v_r, _ = shape_eval(basis, i, [0.0, 2 * t])
            left += coeffs[ld.q2_map[0, i]] * v_l
            right += coeffs[ld.q2_map[1, i]] * v_r
        assert left == pytest.approx(right, abs=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolation_exactness(dim):
    # polynomials of per-axis degree <= 2 are reproduced pointwise
    mesh = build_hierarchy(dim, 2)
    dm = distribute_dofs(mesh)
    rng = np.random.default_rng(1)

    def poly(pts):
        out = np.ones(len(pts))
        for a in range(dim):
            out *= 1.0 + 0.5 * pts[:, a] - 0.25 * pts[:, a] ** 2
        return out

    coeffs = interpolate_scalar(poly, dim, 1, 2)
    pts = rng.random((40, dim))
    vals = evaluate_scalar(coeffs, dm.levels[1], dim, 2, pts)
    assert np.allclose(vals, poly(pts), atol=1e-13)


def test_block_vector_round_trip():
    v = BlockVector(np.arange(4.0), np.arange(3.0))
    w = BlockVector.from_flat(v.flat(), 4)
    assert np.array_equal(w.u, v.u) and np.array_equal(w.p, v.p)
