import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import chi_by_rows

from gmgstokes.fem import make_gauss_rule
from gmgstokes.mesh import build_hierarchy
from gmgstokes.viscosity import (
    average_active_viscosity,
    chi,
    forcing,
    mu,
    restrict_viscosity,
    sinker_config,
)


def test_chi_empty_product():
    cfg = sinker_config(3, 0, 1e4)
    pts = np.random.default_rng(0).random((10, 3))
    assert np.all(chi(pts, cfg) == 1.0)


def test_chi_zero_inside_sinker():
    cfg = sinker_config(3, 1, 1e4, centers=[[0.5, 0.5, 0.5]])
    assert chi(np.array([0.5, 0.5, 0.5]), cfg) == 0.0
    assert chi(np.array([0.5, 0.5, 0.5 + 0.049]), cfg) == 0.0  # still within omega/2


def test_chi_far_field_scalar_oracle():
    cfg = sinker_config(3, 1, 1e4, centers=[[0.5, 0.5, 0.5]])
    x = np.array([1.0, 0.5, 0.5])
    expected = 1.0 - np.exp(-200.0 * (0.5 - 0.05) ** 2)
    assert chi(x, cfg) == pytest.approx(expected, abs=1e-16)
    assert abs(chi(x, cfg) - 1.0) < 1e-15


def test_mu_bounds_dr_1e4():
    cfg = sinker_config(3, 1, 1e4, centers=[[0.5, 0.5, 0.5]])
    assert cfg.mu_min == pytest.approx(0.01)
    assert cfg.mu_max == pytest.approx(100.0)
    assert mu(np.array([0.5, 0.5, 0.5]), cfg) == pytest.approx(100.0)
    far = mu(np.array([0.02, 0.02, 0.02]), cfg)
    assert far == pytest.approx(0.01, rel=1e-6)


def test_mu_constant_for_dr_one():
    cfg = sinker_config(2, 3, 1.0, seed=5)
    pts = np.random.default_rng(1).random((50, 2))
    assert np.allclose(mu(pts, cfg), 1.0)


def test_forcing_conventions():
    cfg3 = sinker_config(3, 1, 1e4, centers=[[0.5, 0.5, 0.5]])
    f = forcing(np.array([0.5, 0.5, 0.5]), cfg3)
    assert np.allclose(f, [0.0, 0.0, -10.0])
    cfg2 = sinker_config(2, 1, 1e4, centers=[[0.5, 0.5]])
    f2 = forcing(np.array([0.5, 0.5]), cfg2)
    assert np.allclose(f2, [0.0, -10.0])
    # far from the sinker the forcing vanishes
    assert np.allclose(forcing(np.array([0.02, 0.02, 0.02]), cfg3), 0.0, atol=1e-12)


def test_forcing_monotone_with_distance():
    cfg = sinker_config(3, 1, 1e4, centers=[[0.5, 0.5, 0.5]])
    ts = np.linspace(0.56, 0.75, 10)  # within the decay halo
    pts = np.stack([ts, np.full_like(ts, 0.5), np.full_like(ts, 0.5)], axis=1)
    comp = forcing(pts, cfg)[:, 2]
    assert np.all(comp > -10.0) and np.all(comp < 0.0)
    assert np.all(np.diff(comp) > 0)  # decays toward zero away from the center


@given(st.integers(0, 4), st.floats(1.0, 1e6), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_chi_range_and_mu_monotonicity(n, dr, seed):
    cfg = sinker_config(2, n, dr, seed=seed)
    pts = np.random.default_rng(seed).random((30, 2))
    c = chi(pts, cfg)
    assert np.all((0.0 <= c) & (c <= 1.0))
    m = mu(pts, cfg)
    assert np.all(m >= cfg.mu_min - 1e-12) and np.all(m <= cfg.mu_max + 1e-12)
    order = np.argsort(c)
    assert np.all(np.diff(m[order]) <= 1e-12)  # larger chi -> smaller mu


@given(st.sampled_from([2, 3]), st.integers(1, 500), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chi_bit_identical_to_row_norm_form(dim, n_points, n_sinkers, seed):
    # the column-wise distance sums the squares in norm(axis=1)'s order
    cfg = sinker_config(dim, n_sinkers, 1e4, seed=seed)
    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, dim))
    assert np.array_equal(chi(pts, cfg), chi_by_rows(pts, cfg))
    assert np.array_equal(chi(pts[0], cfg), chi_by_rows(pts[0], cfg))
    assert np.ndim(chi(pts[0], cfg)) == 0


def test_chi_smoothness_across_sinker_boundary():
    cfg = sinker_config(2, 1, 1e4, centers=[[0.5, 0.5]])
    eps = 1e-6
    xs = np.array([[0.5 + 0.05 + k * eps, 0.5] for k in range(-2, 3)])
    vals = chi(xs, cfg)
    diffs = np.abs(np.diff(vals))
    assert np.all(diffs < 1e-4 * 1.0)  # finite differences stay O(1e-4) at 1e-6 spacing


def test_harmonic_average_constant_field():
    mesh = build_hierarchy(2, 2)
    # one sinker engulfing the whole domain: chi == 0, so mu == mu_max == 7
    cfg = sinker_config(2, 1, 49.0, centers=[[0.5, 0.5]], omega=4.0)
    vals = average_active_viscosity(mesh, cfg, make_gauss_rule(3, 2))
    assert np.allclose(vals, 7.0, rtol=1e-14)


def test_harmonic_average_toy_two_point_formula():
    vals = np.array([1.0, 4.0])
    assert 2.0 / np.sum(1.0 / vals) == pytest.approx(1.6)
    # the same unweighted formula drives the cell averaging: check it on a
    # hand-built 2-point rule whose points see very different viscosities
    from gmgstokes.fem import QuadratureRule

    mesh = build_hierarchy(2, 1)
    rule = QuadratureRule(points=np.array([[0.25, 0.5], [0.95, 0.95]]), weights=np.array([0.9, 0.1]))
    cfg = sinker_config(2, 1, 16.0, centers=[[0.25, 0.5]], omega=0.4)
    vals = average_active_viscosity(mesh, cfg, rule)
    mus = mu(rule.points, cfg)
    assert mus[0] == pytest.approx(4.0)  # inside the sinker
    expected = 2.0 / np.sum(1.0 / mus)  # weights deliberately ignored
    assert vals[0] == pytest.approx(expected, rel=1e-14)


def test_harmonic_average_within_bounds():
    mesh = build_hierarchy(3, 2)
    cfg = sinker_config(3, 2, 1e4, seed=3)
    vals = average_active_viscosity(mesh, cfg, make_gauss_rule(3, 3))
    assert np.all(vals >= cfg.mu_min - 1e-12)
    assert np.all(vals <= cfg.mu_max + 1e-12)


def test_restrict_constant():
    mesh = build_hierarchy(2, 3)
    fine = np.full(mesh.n_cells(2), 3.25)
    out = restrict_viscosity(fine, mesh)
    for level in range(3):
        assert np.allclose(out[level], 3.25, rtol=1e-15)


def test_restrict_children_mean():
    mesh = build_hierarchy(2, 2)
    out = restrict_viscosity(np.array([1.0, 2.0, 3.0, 4.0]), mesh)
    assert out[0][0] == pytest.approx(2.5)


def test_restrict_parent_equals_child_mean_everywhere():
    mesh = build_hierarchy(3, 3)
    rng = np.random.default_rng(4)
    fine = rng.uniform(0.1, 10.0, mesh.n_cells(2))
    out = restrict_viscosity(fine, mesh)
    lat1 = mesh.cell_lattices(1)
    n2 = mesh.cells_per_axis(2)
    for idx in range(mesh.n_cells(1)):
        base = 2 * lat1[idx]
        kids = []
        for off in np.ndindex(2, 2, 2):
            lat = base + np.array(off[::-1])
            kids.append(out[2][lat[0] + n2 * lat[1] + n2 * n2 * lat[2]])
        assert out[1][idx] == pytest.approx(np.mean(kids), rel=1e-13)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_restrict_preserves_range(seed):
    mesh = build_hierarchy(2, 3)
    rng = np.random.default_rng(seed)
    fine = rng.uniform(0.2, 5.0, mesh.n_cells(2))
    out = restrict_viscosity(fine, mesh)
    for level in range(3):
        assert out[level].min() >= fine.min() - 1e-12
        assert out[level].max() <= fine.max() + 1e-12


def test_generated_centers_reproducible_and_inside():
    a = sinker_config(3, 5, 1e4, seed=11)
    b = sinker_config(3, 5, 1e4, seed=11)
    assert np.array_equal(a.centers, b.centers)
    assert np.all(a.centers >= a.omega / 2) and np.all(a.centers <= 1 - a.omega / 2)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        sinker_config(2, -1, 1e4)
    with pytest.raises(ValueError):
        sinker_config(2, 1, 0.5)
    with pytest.raises(ValueError):
        sinker_config(2, 1, 1e4, centers=[[1.5, 0.5]])
