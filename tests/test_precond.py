import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import oracle
from conftest import make_system, random_viscosity
from gmgstokes.bench import RunConfig
from gmgstokes.fem import distribute_dofs, make_gauss_rule
from gmgstokes.krylov import SolveControl, fgmres, gmres
from gmgstokes.mesh import build_hierarchy
from gmgstokes.multigrid import build_mass_multigrid
from gmgstokes.operators import StokesSystem, assemble_rhs
from gmgstokes.precond import StokesPreconditioner
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
        pc.schur_apply(rng.standard_normal(system.n_p))
    assert len(pc.inner_counts) == 5
    assert all(1 <= its <= 5 for its in pc.inner_counts)
    assert pc.inner_failures == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_schur_smoother_built_like_the_finest_mass_level(dim):
    # the Schur mass-CG preconditioner is the mass hierarchy's finest
    # smoother: same diagonal, same eigenvalue bound, bit for bit
    system = make_system(dim, 3, visc=random_viscosity(build_hierarchy(dim, 3), seed=dim))
    got = StokesPreconditioner(system, shape="triangular", schur="cg").mp_smoother
    want = build_mass_multigrid(system).levels[-1]
    assert got.lam_max == want.lam_max
    assert np.array_equal(got.inv_diag, want.inv_diag)
    assert got.components == want.components == 1
    assert got.constrained.size == want.constrained.size == 0
    b = np.random.default_rng(dim).standard_normal(system.n_p)
    assert np.array_equal(got.op(b), want.op(b))


def test_schur_diag_mass_relative_error_below_one():
    mesh = build_hierarchy(2, 2)
    cfg = sinker_config(2, 1, 100.0, seed=4)
    rule = make_gauss_rule(3, 2)
    mu = restrict_viscosity(average_active_viscosity(mesh, cfg, rule), mesh)
    system = StokesSystem(mesh, distribute_dofs(mesh), mu, rule)
    pc = StokesPreconditioner(system, shape="triangular", schur="diag")
    mp = oracle.assemble_Mp(mesh, oracle.level_dofs(system.active), 1, mu[1], system.rule)
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
    mesh, ld = system.mesh, oracle.level_dofs(system.active)
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


# ------------------------------------------------ FGMRES's stored pressure parts


@pytest.fixture(scope="module")
def sinker3d():
    """The sinker system and load of the default run settings at 3D
    levels=2 (2,312 DoF)."""
    cfg = RunConfig(levels=2)
    mesh = build_hierarchy(cfg.dim, cfg.levels + 1)
    sk = sinker_config(cfg.dim, cfg.sinkers, cfg.dynamic_ratio, seed=cfg.seed)
    rule = make_gauss_rule(3, cfg.dim)
    mu = restrict_viscosity(average_active_viscosity(mesh, sk, rule), mesh)
    system = StokesSystem(mesh, distribute_dofs(mesh), mu, rule)
    return system, assemble_rhs(system.active, sk)


@pytest.mark.parametrize(
    "shape,schur,restart",
    [(shape, schur, 50) for shape in ("triangular", "diagonal") for schur in ("cg", "vcycle", "diag")]
    + [("triangular", "cg", 5)],
)
def test_fgmres_rebuilt_update_matches_full_rows(sinker3d, shape, schur, restart):
    # FGMRES given the preconditioner stores only the pressure part of each
    # preconditioned vector and rebuilds the velocity part of the update
    # with one V-cycle; given a plain callable it stores full rows.  The
    # Arnoldi steps are the same, so a first cycle agrees bit for bit, and
    # later cycles start from solutions that differ by round-off
    system, b = sinker3d
    pc = StokesPreconditioner(system, shape=shape, schur=schur)
    stored_shapes = []
    combine = pc.combine

    def spy(y, basis, stored):
        stored_shapes.append(stored.shape)
        return combine(y, basis, stored)

    pc.combine = spy
    ctl = SolveControl(1e-6, 500, restart)
    x, stats = fgmres(system.apply_flat, pc, b, ctl)
    x_full, full = fgmres(system.apply_flat, lambda r: pc.apply(r), b, ctl)

    assert stats.converged and full.converged
    assert (stats.iterations, stats.flag) == (full.iterations, full.flag)
    hist, hist_full = np.array(stats.residual_history), np.array(full.residual_history)
    assert np.array_equal(hist[:restart], hist_full[:restart])
    after = np.abs(hist[restart:] - hist_full[restart:]) / hist_full[restart:]
    assert np.all(after <= 1e-9)
    assert np.linalg.norm(x - x_full) <= 1e-10 * np.linalg.norm(x_full)

    rows = min(stats.iterations, restart)
    assert stored_shapes and all(s[1] == system.n_p for s in stored_shapes)
    assert (stats.peak_vector_count, stats.peak_part_count) == (rows + 1, rows)
    assert (full.peak_vector_count, full.peak_part_count) == (2 * rows + 1, None)
    if restart == 5:
        assert stats.iterations > 2 * restart  # the case restarts more than once


def test_fgmres_peak_memory_holds_pressure_parts(sinker3d):
    # the bytes one Stokes FGMRES solve allocates, when it converges on the
    # last step of its first cycle so that every row of its two blocks is
    # reached: the basis of j+1 full-length vectors, j pressure parts, and
    # at most K full-length vectors more.  K = 12 covers the solution x,
    # the previous step's preconditioned vector and operator image, which
    # live until the next step replaces them (2), and one preconditioner
    # application or update rebuild (at most 6: the V-cycle's level vectors
    # and the triangular shape's residual and stacked output), with the
    # rest for the small Hessenberg and rotation arrays.  Storing whole
    # preconditioned vectors, as for a plain callable, adds j velocity
    # parts, about 26 vectors at j = 28
    system, b = sinker3d
    n, n_p = system.n_dofs, system.n_p
    pc = StokesPreconditioner(system, shape="triangular", schur="cg")
    _, first = fgmres(system.apply_flat, pc, b, SolveControl(1e-6, 500, 50))
    j = first.iterations
    assert first.converged and j < 50
    pc = StokesPreconditioner(system, shape="triangular", schur="cg")
    tracemalloc.start()
    try:
        _, stats = fgmres(system.apply_flat, pc, b, SolveControl(1e-6, 500, j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.converged and stats.iterations == j
    k = 12
    assert peak <= (j + 1) * n * 8 + j * n_p * 8 + k * n * 8

