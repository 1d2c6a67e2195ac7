import numpy as np
import pytest

import oracle
from conftest import constant_viscosity, make_system, random_viscosity, unconstrained_context
from oracle import interpolate_scalar
from gmgstokes.mesh import build_hierarchy, lattice
from gmgstokes.operators import (
    apply_A,
    apply_B,
    apply_Bt,
    apply_Mp,
    assemble_rhs,
    compute_diagonal,
)
from gmgstokes.viscosity import forcing, sinker_config


def _oracle(system, level):
    mesh, ctx, rule = system.mesh, system.contexts[level], system.rule
    ld = oracle.level_dofs(ctx)
    return {
        "A": oracle.assemble_A(mesh, ld, level, ctx.mu, rule),
        "B": oracle.assemble_B(mesh, ld, level, rule),
        "Mp": oracle.assemble_Mp(mesh, ld, level, ctx.mu, rule),
    }


def _system_with_oracle(dim, n_levels, seed=0):
    mesh = build_hierarchy(dim, n_levels)
    system = make_system(dim, n_levels, visc=random_viscosity(mesh, seed=seed))
    return system, _oracle(system, mesh.active_level)


@pytest.mark.parametrize("dim,n_levels", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3)])
def test_matrix_free_matches_oracle(dim, n_levels):
    """Every block equals its brute-force assembled counterpart on 20
    random vectors, relative error below 1e-12, on every level of the
    hierarchy (the V-cycle applies the coarse ones), up to 4^dim cells."""
    mesh = build_hierarchy(dim, n_levels)
    system = make_system(dim, n_levels, visc=random_viscosity(mesh, seed=0))
    rng = np.random.default_rng(42)
    for ctx in system.contexts:
        mats = _oracle(system, ctx.level)
        for _ in range(20):
            u = rng.standard_normal(ctx.n_u)
            p = rng.standard_normal(ctx.n_p)
            pairs = [
                (apply_A(ctx, u), mats["A"] @ u),
                (apply_B(ctx, u), mats["B"] @ u),
                (apply_Bt(ctx, p), mats["B"].T @ p),
                (apply_Mp(ctx, p), mats["Mp"] @ p),
            ]
            for got, want in pairs:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("dim", [2, 3])
def test_element_matrix_invariants(dim):
    """K_A is symmetric positive semidefinite and its null space is exactly
    the d(d+1)/2 rigid motions; K_B annihilates constant velocities; K_M
    is symmetric positive definite."""
    el = make_system(dim, 1).active.elements
    n_rigid = dim * (dim + 1) // 2
    assert np.array_equal(el.A, el.A.T)
    lam, vecs = np.linalg.eigh(el.A)
    tol = 1e-10 * lam.max()
    assert lam.min() > -tol
    null = vecs[:, np.abs(lam) <= tol]
    assert null.shape[1] == n_rigid
    # rigid motions sampled at the reference support points, component-major
    x = lattice(3, dim) / 2.0
    rigid = []
    for a in range(dim):
        t = np.zeros((dim, len(x)))
        t[a] = 1.0
        rigid.append(t)
        for b in range(a + 1, dim):
            r = np.zeros((dim, len(x)))
            r[a], r[b] = x[:, b], -x[:, a]
            rigid.append(r)
    rigid = np.stack([r.ravel() for r in rigid], axis=1)
    assert np.linalg.matrix_rank(rigid) == n_rigid
    assert np.abs(el.A @ rigid).max() < tol
    assert np.abs(rigid - null @ (null.T @ rigid)).max() < 1e-10
    constants = np.kron(np.eye(dim), np.ones((len(x), 1)))
    assert np.abs(el.B @ constants).max() < 1e-13
    assert np.array_equal(el.Mp, el.Mp.T)
    assert np.linalg.eigvalsh(el.Mp).min() > 0.0


def test_single_cell_dense_match_mu_one():
    system, mats = _system_with_oracle(2, 1)
    mesh = build_hierarchy(2, 1)
    visc = constant_viscosity(mesh)
    system = make_system(2, 1, visc=visc)
    ctx = system.active
    ld = oracle.level_dofs(ctx)
    amat = oracle.assemble_A(mesh, ld, 0, np.ones(1), system.rule)
    assert amat.shape == (18, 18)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(18)
        assert np.allclose(apply_A(ctx, u), amat @ u, atol=1e-12)
    bmat = oracle.assemble_B(mesh, ld, 0, system.rule)
    assert bmat.shape == (4, 18)
    for _ in range(5):
        u = rng.standard_normal(18)
        assert np.allclose(apply_B(ctx, u), bmat @ u, atol=1e-13)


def test_constant_field_in_strain_kernel():
    # rigid translation has zero strain rate: apply the raw (unconstrained)
    # operator to a constant velocity field
    ctx = unconstrained_context(make_system(2, 2), 1)
    n_scalar = oracle.level_dofs(ctx).n_scalar
    u = np.concatenate([np.full(n_scalar, 2.0), np.full(n_scalar, -1.0)])
    assert np.abs(apply_A(ctx, u)).max() < 1e-13


def test_operator_symmetry():
    system, _ = _system_with_oracle(2, 2, seed=3)
    ctx = system.active
    rng = np.random.default_rng(1)
    v = rng.standard_normal(ctx.n_u)
    w = rng.standard_normal(ctx.n_u)
    lhs = apply_A(ctx, v) @ w
    rhs = v @ apply_A(ctx, w)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_divergence_free_linear_field():
    # (y, x) is pointwise divergence-free and exactly representable in Q2
    system = make_system(2, 2)
    ux = interpolate_scalar(lambda pts: pts[:, 1], 2, 1, 2)
    uy = interpolate_scalar(lambda pts: pts[:, 0], 2, 1, 2)
    u = np.concatenate([ux, uy])
    ctx_free = unconstrained_context(system, 1)
    assert np.abs(apply_B(ctx_free, u)).max() < 1e-13


def test_b_bt_adjoint_identity():
    system, _ = _system_with_oracle(3, 2, seed=5)
    ctx = system.active
    rng = np.random.default_rng(2)
    u = rng.standard_normal(ctx.n_u)
    p = rng.standard_normal(ctx.n_p)
    lhs = apply_B(ctx, u) @ p
    rhs = u @ apply_Bt(ctx, p)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_bt_constant_pressure_interior_rows_vanish():
    system = make_system(2, 2)
    ctx_free = unconstrained_context(system, 1)
    out = apply_Bt(ctx_free, np.ones(ctx_free.n_p)).reshape(2, -1)
    # the boundary set of the constrained context: the free one has none
    ld = oracle.level_dofs(system.contexts[1])
    interior = np.setdiff1d(np.arange(ld.n_scalar), ld.dirichlet_scalar)
    assert np.abs(out[:, interior]).max() < 1e-13


def test_discrete_compatibility_ones_b_u():
    # 1^T B u == 0 whenever u vanishes on the boundary (any u, since the
    # constrained columns are masked)
    system, _ = _system_with_oracle(2, 3, seed=6)
    ctx = system.active
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(ctx.n_u)
        total = np.sum(apply_B(ctx, u))
        assert abs(total) < 1e-12 * np.linalg.norm(u)


def test_mp_partition_of_unity_mu_one():
    system = make_system(2, 2)
    ctx = system.active
    ones = np.ones(ctx.n_p)
    assert ones @ apply_Mp(ctx, ones) == pytest.approx(1.0, abs=1e-12)


def test_mp_positive_definite():
    system, _ = _system_with_oracle(2, 2, seed=8)
    ctx = system.active
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.standard_normal(ctx.n_p)
        assert p @ apply_Mp(ctx, p) > 0.0


def test_mp_scales_inversely_with_mu():
    mesh = build_hierarchy(2, 1)
    s1 = make_system(2, 1, visc=constant_viscosity(mesh, 1.0))
    s2 = make_system(2, 1, visc=constant_viscosity(mesh, 2.0))
    p = np.random.default_rng(5).standard_normal(s1.n_p)
    assert np.allclose(apply_Mp(s2.active, p), 0.5 * apply_Mp(s1.active, p), rtol=1e-13)


def test_apply_stokes_consistency_and_symmetry():
    system, _ = _system_with_oracle(2, 2, seed=10)
    ctx = system.active
    rng = np.random.default_rng(7)
    n_u = ctx.n_u
    x = rng.standard_normal(n_u + ctx.n_p)
    y = rng.standard_normal(n_u + ctx.n_p)
    zero = system.apply_flat(np.zeros(n_u + ctx.n_p))
    assert np.all(zero == 0.0)
    kx = system.apply_flat(x)
    assert np.allclose(kx[:n_u], apply_A(ctx, x[:n_u]) + apply_Bt(ctx, x[n_u:]))
    assert np.allclose(kx[n_u:], apply_B(ctx, x[:n_u]))
    lhs = kx @ y
    rhs = x @ system.apply_flat(y)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_rhs_zero_without_sinkers():
    mesh = build_hierarchy(2, 2)
    system = make_system(2, 2)
    cfg = sinker_config(2, 0, 1.0)
    rhs = assemble_rhs(system.active, cfg)
    assert rhs.shape == (system.n_dofs,)
    assert np.all(rhs == 0.0)


def test_rhs_total_downward_force():
    mesh = build_hierarchy(3, 2)
    system = make_system(3, 2)
    cfg = sinker_config(3, 2, 1e4, seed=1)
    rhs = assemble_rhs(system.active, cfg)
    down = np.sum(rhs[: system.n_u].reshape(3, -1)[2])
    assert down < 0.0
    assert np.all(rhs[system.n_u :] == 0.0)


def test_rhs_matches_quadrature_oracle():
    system = make_system(2, 3)
    ctx = system.active
    cfg = sinker_config(2, 2, 1e4, seed=3)
    got = assemble_rhs(ctx, cfg)
    want = oracle.assemble_rhs(
        system.mesh, oracle.level_dofs(ctx), ctx.level, lambda x: forcing(x, cfg), system.rule
    )
    assert np.any(want != 0.0)
    assert np.allclose(got[: system.n_u], want, atol=1e-14)
    assert np.all(got[system.n_u :] == 0.0)


@pytest.mark.parametrize("dim,n_levels", [(2, 1), (2, 2), (3, 1)])
def test_diagonal_matches_oracle(dim, n_levels):
    mesh = build_hierarchy(dim, n_levels)
    system = make_system(dim, n_levels, visc=random_viscosity(mesh, seed=11))
    for ctx in system.contexts:
        mats = _oracle(system, ctx.level)
        assert np.abs(compute_diagonal(ctx, "A") - np.diag(mats["A"])).max() < 1e-12
        assert np.abs(compute_diagonal(ctx, "Mp") - np.diag(mats["Mp"])).max() < 1e-12


def test_diagonal_positive_and_scales_with_mu():
    mesh = build_hierarchy(2, 2)
    s1 = make_system(2, 2, visc=constant_viscosity(mesh, 1.0))
    s2 = make_system(2, 2, visc=constant_viscosity(mesh, 2.0))
    d1 = compute_diagonal(s1.active, "A")
    d2 = compute_diagonal(s2.active, "A")
    assert np.all(d1 > 0.0)
    cons = s1.active.u_constrained
    free = np.setdiff1d(np.arange(s1.n_u), cons)
    assert np.allclose(d2[free], 2.0 * d1[free], rtol=1e-13)
    # constrained entries stay at one
    assert np.all(d1[cons] == 1.0) and np.all(d2[cons] == 1.0)


def test_viscosity_monotonicity_of_quadratic_form():
    mesh = build_hierarchy(2, 2)
    lo = make_system(2, 2, visc=constant_viscosity(mesh, 0.5))
    hi = make_system(2, 2, visc=constant_viscosity(mesh, 2.0))
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = rng.standard_normal(lo.n_u)
        v.reshape(2, -1)[:, oracle.level_dofs(lo.active).dirichlet_scalar] = 0.0
        assert v @ apply_A(lo.active, v) <= v @ apply_A(hi.active, v) + 1e-12


def test_length_mismatch_rejected():
    system = make_system(2, 1)
    ctx = system.active
    with pytest.raises(ValueError):
        apply_A(ctx, np.zeros(ctx.n_u + 1))
    with pytest.raises(ValueError):
        apply_B(ctx, np.zeros(3))
    with pytest.raises(ValueError):
        apply_Mp(ctx, np.zeros(ctx.n_p + 2))


def test_constrained_rows_act_as_identity():
    system, mats = _system_with_oracle(2, 2, seed=12)
    ctx = system.active
    cons = system.active.u_constrained
    rng = np.random.default_rng(9)
    u = rng.standard_normal(ctx.n_u)
    out = apply_A(ctx, u)
    assert np.allclose(out[cons], u[cons])
