import numpy as np
import pytest
import scipy.linalg as sla

import oracle
from conftest import make_system, random_viscosity
from gmgstokes.bench import RunConfig
from gmgstokes.fem import distribute_dofs, make_gauss_rule
from gmgstokes.krylov import SolveControl, gmres
from gmgstokes.mesh import build_hierarchy
from gmgstokes.multigrid import build_mass_multigrid
from gmgstokes.operators import StokesSystem
from gmgstokes.precond import StokesPreconditioner, normalize_pressure
from gmgstokes.viscosity import average_active_viscosity, restrict_viscosity, sinker_config


def compatible_rhs(system, rng):
    """Random stacked right-hand side in the range of the saddle operator."""
    b = rng.standard_normal(system.n_dofs)
    b[system.active.u_constrained] = 0.0
    p = b[system.n_u :]
    p -= p.mean()
    return b


@pytest.fixture(scope="module")
def exact_setup():
    system = make_system(2, 2)
    return system, oracle.exact_preconditioner(system, shape="triangular")


def test_exact_preconditioner_two_gmres_iterations(exact_setup):
    system, pc = exact_setup
    rng = np.random.default_rng(0)
    b = compatible_rhs(system, rng)
    x, stats = gmres(system.apply_flat, pc.apply, b, SolveControl(1e-10, 10, 10))
    assert stats.converged
    assert stats.iterations <= 3
    res = np.linalg.norm(b - system.apply_flat(x)) / np.linalg.norm(b)
    assert res <= 1e-10


def test_exact_diagonal_preconditioner_three_gmres_iterations():
    # exact block-diagonal preconditioning leaves three distinct
    # eigenvalues, so GMRES needs exactly three iterations
    for dim, n_levels in [(2, 2), (2, 3), (3, 2)]:
        system = make_system(dim, n_levels)
        pc = oracle.exact_preconditioner(system, shape="diagonal")
        b = compatible_rhs(system, np.random.default_rng(dim + n_levels))
        x, stats = gmres(system.apply_flat, pc.apply, b, SolveControl(1e-10, 10, 10))
        assert stats.converged and stats.iterations == 3, (dim, n_levels, stats.iterations)
        res = np.linalg.norm(b - system.apply_flat(x)) / np.linalg.norm(b)
        assert res <= 1e-10, (dim, n_levels, res)


def test_exact_preconditioner_krylov_rank_two(exact_setup):
    # the right-preconditioned operator is the identity plus a nilpotent
    # rank deficiency: Krylov spaces collapse after two applications
    system, pc = exact_setup
    op = lambda v: system.apply_flat(pc.apply(v))
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = compatible_rhs(system, rng)
        mat = np.stack([w, op(w), op(op(w))], axis=1) / np.linalg.norm(w)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert svals[2] / svals[0] < 1e-8


def test_apply_p_zero_maps_to_zero(exact_setup):
    system, pc = exact_setup
    out = pc.apply(np.zeros(system.n_dofs))
    assert np.all(out == 0.0)


def test_triangular_and_diagonal_shapes_differ_only_in_velocity():
    system = make_system(2, 2)
    tri = StokesPreconditioner(system, shape="triangular", schur="diag")
    dia = StokesPreconditioner(system, shape="diagonal", schur="diag")
    rng = np.random.default_rng(2)
    r = compatible_rhs(system, rng)
    out_t = tri.apply(r)
    out_d = dia.apply(r)
    n_u = system.n_u
    assert np.allclose(out_t[n_u:], out_d[n_u:])
    assert not np.allclose(out_t[:n_u], out_d[:n_u])


def test_schur_cg_mass_converges_in_one_to_five_iterations():
    system = make_system(2, 3)
    pc = StokesPreconditioner(system, shape="triangular", schur="cg")
    rng = np.random.default_rng(3)
    for _ in range(5):
        before = pc.inner_iterations
        pc.schur_apply(rng.standard_normal(system.n_p))
        its = pc.inner_iterations - before
        assert 1 <= its <= 5
    assert pc.inner_failures == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_schur_smoother_built_like_the_finest_mass_level(dim):
    # the Schur mass-CG preconditioner is the mass hierarchy's finest
    # smoother: same diagonal, same Lanczos estimate, bit for bit
    system = make_system(dim, 3, visc=random_viscosity(build_hierarchy(dim, 3), seed=dim))
    got = StokesPreconditioner(system, shape="triangular", schur="cg").mp_smoother
    want = build_mass_multigrid(system).levels[-1]
    assert got.lam_max == want.lam_max
    assert np.array_equal(got.inv_diag, want.inv_diag)
    assert got.components == want.components == 1
    assert got.scalar_constrained.size == want.scalar_constrained.size == 0
    b = np.random.default_rng(dim).standard_normal(system.n_p)
    assert np.array_equal(got.op(b), want.op(b))


def test_schur_diag_mass_relative_error_below_one():
    mesh = build_hierarchy(2, 2)
    cfg = sinker_config(2, 1, 100.0, seed=4)
    rule = make_gauss_rule(3, 2)
    mu = restrict_viscosity(average_active_viscosity(mesh, cfg, rule), mesh)
    system = StokesSystem(mesh, distribute_dofs(mesh), mu, rule)
    pc = StokesPreconditioner(system, shape="triangular", schur="diag")
    mp = oracle.assemble_Mp(mesh, system.active.dofs, 1, mu[1], system.rule)
    rng = np.random.default_rng(5)
    for _ in range(5):
        r = rng.standard_normal(system.n_p)
        exact = np.linalg.solve(mp, r)
        got = pc.schur_apply(r)
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 1.0


def test_schur_vcycle_mass_linear_and_adjoint():
    system = make_system(2, 3)
    pc = StokesPreconditioner(system, shape="triangular", schur="vcycle")
    rng = np.random.default_rng(6)
    r1 = rng.standard_normal(system.n_p)
    r2 = rng.standard_normal(system.n_p)
    lin = pc.schur_apply(r1 + r2) - pc.schur_apply(r1) - pc.schur_apply(r2)
    assert np.linalg.norm(lin) <= 1e-12 * np.linalg.norm(pc.schur_apply(r1))
    # the post-smoothing-only mass V-cycle's adjoint is the pre-smoothing one
    adj = pc.schur_apply(r1) @ r2 - r1 @ oracle.vcycle_pre_only(pc.mass_mg, r2)
    assert abs(adj) <= 1e-10 * abs(pc.schur_apply(r1) @ r2)
    assert pc.schur_apply(r1) @ r1 > 0.0


def test_normalize_pressure_properties():
    system = make_system(2, 2)
    w = system.pressure_weights()
    n_u = system.n_u
    v = np.concatenate([np.zeros(n_u), np.full(system.n_p, 3.7)])
    out = normalize_pressure(v, w)
    assert np.abs(out[n_u:]).max() < 1e-13
    assert np.all(v[n_u:] == 3.7)  # the input is left as it was
    rng = np.random.default_rng(7)
    v = rng.standard_normal(system.n_dofs)
    once = normalize_pressure(v, w)
    twice = normalize_pressure(once, w)
    assert np.allclose(once[n_u:], twice[n_u:], atol=1e-14)
    assert abs(w @ once[n_u:]) < 1e-13
    assert np.array_equal(once[:n_u], v[:n_u])


def test_config_validation():
    system = make_system(2, 1)
    with pytest.raises(ValueError, match="shape"):
        StokesPreconditioner(system, shape="upper", schur="diag")
    with pytest.raises(ValueError, match="schur"):
        StokesPreconditioner(system, shape="triangular", schur="ilu")
    # the varying inner CG demands a flexible outer solver
    with pytest.raises(ValueError, match="schur='cg'"):
        RunConfig(solver="gmres", schur="cg").validate()
    RunConfig(solver="fgmres", schur="cg").validate()
    RunConfig(solver="idr", schur="cg").validate()
    RunConfig(solver="gmres", schur="vcycle").validate()


def test_materialize_round_trip():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((7, 5))
    got = oracle.materialize(lambda v: mat @ v, 5, 7)
    assert np.allclose(got, mat)


def schur_interval(n_levels):
    """All generalized eigenvalues of S against M_p (the constant-pressure
    null direction contributes the zero eigenvalue)."""
    system = make_system(2, n_levels)
    mesh, ld = system.mesh, system.active.dofs
    lvl = mesh.active_level
    mu = np.ones(mesh.n_cells(lvl))
    amat = oracle.assemble_A(mesh, ld, lvl, mu, system.rule, constrain=False)
    bmat = oracle.assemble_B(mesh, ld, lvl, system.rule, constrain=False)
    mp = oracle.assemble_Mp(mesh, ld, lvl, mu, system.rule)
    free = oracle.free_velocity_indices(ld, 2)
    schur = bmat[:, free] @ np.linalg.solve(amat[np.ix_(free, free)], bmat[:, free].T)
    lam = sla.eigh(schur, mp, eigvals_only=True)
    return float(lam.min()), float(lam.max())


def test_schur_mass_spectral_equivalence_intervals():
    lo1, hi1 = schur_interval(1)
    lo2, hi2 = schur_interval(2)
    w1, w2 = hi1 - lo1, hi2 - lo2
    assert max(w1, w2) <= 2.0 * min(w1, w2)
