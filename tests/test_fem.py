import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    cell_map_by_digits,
    evaluate_scalar,
    grid_boundary_by_digits,
    interpolate_scalar,
    lagrange_nodes,
    lagrange_value,
    local_basis,
    scalar_dofs,
    support_points,
)

from gmgstokes.fem import (
    QuadratureRule,
    _cell_map,
    _grid_boundary_indices,
    distribute_dofs,
    lagrange_1d,
    make_gauss_rule,
    tabulate,
)
from gmgstokes.mesh import build_hierarchy, lattice


def point_rule(points) -> QuadratureRule:
    """Unit-weight rule on the given reference points, for tabulating
    shape functions at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return QuadratureRule(points=points, weights=np.ones(len(points)))


def test_kronecker_property_q1():
    vals, _ = lagrange_1d(1, [0.0, 1.0])
    assert vals[0, 0] == 1.0
    assert vals[1, 0] == 0.0


def test_q2_values_at_quarter_point():
    vals = list(lagrange_1d(2, 0.25)[0])
    assert vals == pytest.approx([0.375, 0.75, -0.125], abs=1e-15)
    oracle = [float(lagrange_value(lagrange_nodes(2), i, 0.25)) for i in range(3)]
    assert vals == pytest.approx(oracle, abs=1e-15)


@given(
    degree=st.sampled_from([1, 2]),
    dim=st.sampled_from([1, 2, 3]),
    coords=st.lists(st.floats(0, 1), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_partition_of_unity(degree, dim, coords):
    tables = tabulate(degree, dim, point_rule(coords[:dim]))
    total = tables.values[0].sum()
    grad = tables.grads[0].sum(axis=0)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(grad) == pytest.approx(0.0, abs=1e-11)


def test_lagrange_1d_rejects_degree_3():
    with pytest.raises(ValueError):
        lagrange_1d(3, [0.5])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tabulate_matches_pointwise_oracle(dim, degree):
    rng = np.random.default_rng(10 * dim + degree)
    for rule in (make_gauss_rule(3, dim), point_rule(rng.random((11, dim)))):
        tables = tabulate(degree, dim, rule)
        vals, grads = local_basis(degree, dim, rule)
        assert tables.values.shape == vals.shape and tables.grads.shape == grads.shape
        assert np.abs(tables.values - vals).max() <= 1e-14
        assert np.abs(tables.grads - grads).max() <= 1e-14


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
    vals = tabulate(2, 2, rule2d).values
    integral = np.sum(rule2d.weights * vals.sum(axis=1)) * h**2
    assert integral == pytest.approx(h**2, rel=1e-15)


def level_scalar_dofs(dim, n_levels, level):
    return scalar_dofs(*distribute_dofs(build_hierarchy(dim, n_levels))[level], dim)


def test_dof_counts_single_cell_2d():
    ld = level_scalar_dofs(2, 1, 0)
    assert 2 * ld.n_scalar == 18
    assert ld.n_p == 4


def test_dof_counts_single_cell_3d():
    ld = level_scalar_dofs(3, 1, 0)
    assert 3 * ld.n_scalar == 81
    assert ld.n_p == 8


def test_dof_counts_3d_level2():
    ld = level_scalar_dofs(3, 3, 2)
    assert 3 * ld.n_scalar == 2187
    assert ld.n_p == 125
    # enumeration cross-check: distinct q2 support points
    assert len(np.unique(ld.q2_map)) == ld.n_scalar == (2 * 4 + 1) ** 3
    assert len(np.unique(ld.q1_map)) == (4 + 1) ** 3


def test_dirichlet_set_matches_boundary_support_points():
    for dim in (2, 3):
        for level in (1, 2):
            for degree in (1, 2):
                pts = support_points(dim, level, degree)
                on_boundary = np.nonzero(np.any((pts == 0.0) | (pts == 1.0), axis=1))[0]
                if degree == 2:
                    found = level_scalar_dofs(dim, 3, level).dirichlet_scalar
                else:
                    found = _grid_boundary_indices(2**level + 1, dim)
                assert np.array_equal(np.sort(found), on_boundary), (dim, level, degree)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [2, 3, 5, 9, 17, 33])
def test_lattice_maps_match_digit_table_forms(dim, m):
    # nodes m = degree * n + 1 of an n**dim cell lattice, for Q1 and Q2
    assert np.array_equal(_grid_boundary_indices(m, dim), grid_boundary_by_digits(m, dim))
    for degree in (1, 2):
        n, rem = divmod(m - 1, degree)
        if rem:
            continue
        cells = lattice(n, dim)
        assert np.array_equal(
            _cell_map(cells, degree, m, dim), cell_map_by_digits(cells, degree, m, dim)
        ), degree


@pytest.mark.parametrize("dim", [2, 3])
def test_velocity_layout_is_component_major(dim):
    # each component block of u_map is block 0 shifted by a * n_scalar, and
    # u_constrained holds the boundary support points of every component
    for level, (u_map, _, u_constrained) in enumerate(distribute_dofs(build_hierarchy(dim, 3))):
        n_scalar = (2 * 2**level + 1) ** dim
        blocks = u_map.reshape(len(u_map), dim, 3**dim)
        for a in range(dim):
            assert np.array_equal(blocks[:, a], blocks[:, 0] + a * n_scalar), (level, a)
        pts = support_points(dim, level, 2)
        on_boundary = np.nonzero(np.any((pts == 0.0) | (pts == 1.0), axis=1))[0]
        want = (np.arange(dim)[:, None] * n_scalar + on_boundary).ravel()
        assert np.array_equal(np.sort(u_constrained), want), level


def test_continuity_across_shared_face():
    # a global coefficient vector evaluated from either neighboring cell
    # agrees on the shared face
    ld = level_scalar_dofs(2, 2, 1)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(ld.n_scalar)
    # face x = 0.5 between cells (0,0) and (1,0): evaluate at (0.5, t)
    for t in np.linspace(0.0, 0.5, 7):
        v_l = tabulate(2, 2, point_rule([1.0, 2 * t])).values[0]
        v_r = tabulate(2, 2, point_rule([0.0, 2 * t])).values[0]
        left = coeffs[ld.q2_map[0]] @ v_l
        right = coeffs[ld.q2_map[1]] @ v_r
        assert left == pytest.approx(right, abs=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolation_exactness(dim):
    # polynomials of per-axis degree <= 2 are reproduced pointwise
    ld = level_scalar_dofs(dim, 2, 1)
    rng = np.random.default_rng(1)

    def poly(pts):
        out = np.ones(len(pts))
        for a in range(dim):
            out *= 1.0 + 0.5 * pts[:, a] - 0.25 * pts[:, a] ** 2
        return out

    coeffs = interpolate_scalar(poly, dim, 1, 2)
    pts = rng.random((40, dim))
    vals = evaluate_scalar(coeffs, ld, dim, 2, pts)
    assert np.allclose(vals, poly(pts), atol=1e-13)
