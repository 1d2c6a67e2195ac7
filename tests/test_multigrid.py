import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import constant_viscosity, make_system, random_viscosity
from gmgstokes import multigrid
from gmgstokes.bench import chebyshev_report
from gmgstokes.fem import distribute_dofs, make_gauss_rule
from gmgstokes.krylov import SolveControl, gmres
from gmgstokes.mesh import build_hierarchy
from gmgstokes.multigrid import (
    CHEBYSHEV_DEGREE,
    SMOOTHING_RANGE,
    MGLevel,
    build_mass_multigrid,
    build_transfer_plan,
    build_velocity_multigrid,
    chebyshev_smooth,
    prolongate,
    restrict,
)
from gmgstokes.operators import apply_A, apply_Mp, compute_diagonal
from gmgstokes.precond import StokesPreconditioner
from gmgstokes.viscosity import average_active_viscosity, restrict_viscosity, sinker_config


def transfer_cases():
    """(dim, degree, plan, dofs, scalar sizes per level) for both dimensions
    and both degrees on a 3-level hierarchy."""
    for dim in (2, 3):
        mesh = build_hierarchy(dim, 3)
        dofs = [oracle.scalar_dofs(*layout, dim) for layout in distribute_dofs(mesh)]
        for degree in (1, 2):
            sizes = [ld.n_scalar if degree == 2 else ld.n_p for ld in dofs]
            yield dim, degree, build_transfer_plan(mesh, degree), dofs, sizes


def constrained(dofs, degree, level):
    # only the Q2 velocity space carries Dirichlet constraints
    return dofs[level].dirichlet_scalar if degree == 2 else None


def test_prolongation_preserves_constants():
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            out = prolongate(plan, level, np.ones(n[level - 1]))
            assert np.abs(out - 1.0).max() < 1e-14, (dim, degree, level)


def test_prolongation_reproduces_linears():
    for dim, degree, plan, dofs, n in transfer_cases():
        lin = lambda pts: 0.3 + pts @ np.array([1.7, -0.9, 0.4][:dim])
        for level in (1, 2):
            coarse = oracle.interpolate_scalar(lin, dim, level - 1, degree)
            fine = prolongate(plan, level, coarse)
            expected = oracle.interpolate_scalar(lin, dim, level, degree)
            assert np.abs(fine - expected).max() < 1e-13, (dim, degree, level)


def test_prolongation_pointwise_embedding_oracle():
    # a prolongated coarse function evaluates identically at 50 random points
    rng = np.random.default_rng(0)
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            coarse = rng.standard_normal(n[level - 1])
            cons_c = constrained(dofs, degree, level - 1)
            if cons_c is not None:
                coarse[cons_c] = 0.0
            fine = prolongate(plan, level, coarse)
            pts = rng.random((50, dim))
            a = oracle.evaluate_scalar(coarse, dofs[level - 1], dim, degree, pts)
            b = oracle.evaluate_scalar(fine, dofs[level], dim, degree, pts)
            assert np.abs(a - b).max() < 1e-12, (dim, degree, level)


def test_restriction_is_exact_transpose():
    rng = np.random.default_rng(1)
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            v = rng.standard_normal(n[level - 1])
            w = rng.standard_normal(n[level])
            lhs = prolongate(plan, level, v) @ w
            rhs = v @ restrict(plan, level, w)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (dim, degree, level)


def test_transfer_stacked_components_match_single():
    rng = np.random.default_rng(10)
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            v = rng.standard_normal((dim, n[level - 1]))
            w = rng.standard_normal((dim, n[level]))
            got_p = prolongate(plan, level, v)
            got_r = restrict(plan, level, w)
            for c in range(dim):
                assert np.array_equal(got_p[c], prolongate(plan, level, v[c]))
                assert np.array_equal(got_r[c], restrict(plan, level, w[c]))


def test_transfers_keep_the_constrained_set_exactly_apart():
    # the V-cycle masks only the restricted residual, which relies on two
    # exact zeros of the Q2 embedding: constrained fine entries restrict to
    # nothing on free coarse entries, and a coarse field that vanishes on
    # its constrained set prolongates to zeros on the fine constrained set
    rng = np.random.default_rng(14)
    for dim, degree, plan, dofs, n in transfer_cases():
        if degree != 2:
            continue
        for level in (1, 2):
            cons_f, cons_c = dofs[level].dirichlet_scalar, dofs[level - 1].dirichlet_scalar
            w = np.zeros(n[level])
            w[cons_f] = rng.standard_normal(cons_f.size)
            free_c = np.setdiff1d(np.arange(n[level - 1]), cons_c)
            assert np.all(restrict(plan, level, w)[free_c] == 0.0), (dim, level)
            v = rng.standard_normal(n[level - 1])
            v[cons_c] = 0.0
            assert np.all(prolongate(plan, level, v)[cons_f] == 0.0), (dim, level)


def test_restriction_zero_and_column_sums():
    # restriction of the constant-one dual vector preserves the total:
    # column sums of the explicit prolongation matrix
    for dim, degree, plan, dofs, n in transfer_cases():
        assert np.all(restrict(plan, 1, np.zeros(n[1])) == 0.0)
        pmat = oracle.materialize(lambda v: prolongate(plan, 1, v), n[0], n[1])
        got = restrict(plan, 1, np.ones(n[1]))
        assert np.allclose(got, pmat.sum(axis=0), atol=1e-13), (dim, degree)


def test_q1_transfer_constants():
    mesh = build_hierarchy(2, 2)
    plan = build_transfer_plan(mesh, 1)
    out = prolongate(plan, 1, np.ones(4))  # the 2 x 2 level-0 Q1 lattice
    assert np.abs(out - 1.0).max() < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_lam_max_bounds_the_jacobi_scaled_spectrum(dim):
    # the element-matrix bound lies above the largest eigenvalue of D^-1 A
    # of the dense assembled level, constrained identity rows included, and
    # equals that of D^-1 Mp, which the constant vector attains
    mesh = build_hierarchy(dim, 3)
    mu = random_viscosity(mesh, seed=40 + dim)
    system = make_system(dim, 3, visc=mu)
    for level in (1, 2):
        ctx = system.contexts[level]
        ld = oracle.level_dofs(ctx)
        for which, mat in (
            ("A", oracle.assemble_A(mesh, ld, level, mu[level], system.rule)),
            ("Mp", oracle.assemble_Mp(mesh, ld, level, mu[level], system.rule)),
        ):
            s = 1.0 / np.sqrt(np.diag(mat))
            true_lam = np.linalg.eigvalsh(s[:, None] * mat * s).max()
            lam = multigrid.smoother(ctx, which).lam_max
            if which == "A":
                assert lam >= true_lam, (level, lam, true_lam)
            else:
                assert lam == pytest.approx(true_lam, rel=1e-12, abs=0.0), (level, lam, true_lam)


def test_lam_max_values_of_the_reference_matrices():
    # the bound depends only on the element matrix: not on the level or the
    # viscosity; Q1 mass gives 1.5**dim
    expected = {(2, "A"): 1.868, (3, "A"): 2.021, (2, "Mp"): 2.25, (3, "Mp"): 3.375}
    for dim in (2, 3):
        mesh = build_hierarchy(dim, 3)
        system = make_system(dim, 3, visc=random_viscosity(mesh, seed=dim))
        for which in ("A", "Mp"):
            lams = {multigrid.smoother(ctx, which).lam_max for ctx in system.contexts[1:]}
            assert len(lams) == 1, (dim, which, lams)
            assert lams.pop() == pytest.approx(expected[dim, which], abs=5e-4), (dim, which)


def test_mglevel_rejects_a_non_positive_diagonal():
    for bad in (0.0, -1.0):
        diag = np.ones(6)
        diag[3] = bad
        with pytest.raises(ValueError, match="strictly positive"):
            MGLevel(lambda v: v, diag, 1.0)


def test_chebyshev_fixed_point():
    rng = np.random.default_rng(2)
    d = rng.uniform(1.0, 2.0, 20)
    spectrum = rng.uniform(1.0, 9.0, 20)
    op = lambda v: spectrum * d * v
    x_exact = rng.standard_normal(20)
    b = op(x_exact)
    x = chebyshev_smooth(MGLevel(op, d, 10.0), b, x0=x_exact)
    assert np.allclose(x, x_exact, atol=1e-13)


def test_chebyshev_matches_analytic_polynomial():
    # diagonal operator with unit diag: the error propagator is exactly the
    # shifted Chebyshev polynomial of degree CHEBYSHEV_DEGREE on
    # [high / SMOOTHING_RANGE, high]
    lam_vals = np.arange(1.0, 11.0)
    d = np.ones(10)
    op = lambda v: lam_vals * v
    high = 12.0
    low = high / SMOOTHING_RANGE
    theta = 0.5 * (high + low)
    delta = 0.5 * (high - low)

    def cheb(k, t):
        t = np.asarray(t, dtype=complex)
        return np.real(np.cos(k * np.arccos(t)))

    for idx in (4, 6, 9):  # components inside the smoothing interval
        e0 = np.zeros(10)
        e0[idx] = 1.0
        x = chebyshev_smooth(MGLevel(op, d, high), np.zeros(10), x0=e0)
        got = x[idx]  # remaining error fraction
        k = CHEBYSHEV_DEGREE
        expected = cheb(k, (theta - lam_vals[idx]) / delta) / cheb(k, theta / delta)
        assert got == pytest.approx(expected, rel=1e-10)
        bound = 1.0 / cheb(k, theta / delta)
        assert abs(got) <= abs(bound) * 1.1  # within 10% of the min-max bound


@pytest.mark.parametrize("dim", [2, 3])
def test_chebyshev_buffers_bit_identical_to_reference(dim):
    # the smoother that keeps its residual and update in level buffers
    # gives the same bits as the recurrence with fresh temporaries, from a
    # zero and from a given start, on the finest and the coarsest smoothed
    # level
    mesh = build_hierarchy(dim, 3)
    system = make_system(dim, 3, visc=random_viscosity(mesh, seed=dim))
    rng = np.random.default_rng(20 + dim)
    for mg, kind in ((build_velocity_multigrid(system), "A"), (build_mass_multigrid(system), "Mp")):
        for level in (1, len(mg.levels) - 1):
            lv = mg.levels[level]
            diag = compute_diagonal(system.contexts[level], kind)
            for x0 in (None, rng.standard_normal(diag.size)):
                b = rng.standard_normal(diag.size)
                got = chebyshev_smooth(lv, b, x0=x0)
                want = oracle.chebyshev_smooth_reference(
                    lv.op, diag, b, lv.lam_max, CHEBYSHEV_DEGREE, SMOOTHING_RANGE, x0=x0
                )
                assert np.array_equal(got, want), (dim, kind, level, x0 is None)


def test_smoothers_fix_their_polynomial_when_built(monkeypatch):
    # each level fixes its degree and interval when it is built: patching
    # the module constants afterwards leaves built levels bit for bit as
    # they were, a level built after the patch carries the patched values,
    # and the run record's report follows the levels, not the constants
    mesh = build_hierarchy(2, 3)
    system = make_system(2, 3, visc=random_viscosity(mesh, seed=7))
    rng = np.random.default_rng(7)
    built = [build_velocity_multigrid(system).levels[-1], build_mass_multigrid(system).levels[-1]]
    rhs = [rng.standard_normal(lv.inv_diag.size) for lv in built]
    before = [chebyshev_smooth(lv, b) for lv, b in zip(built, rhs)]
    monkeypatch.setattr(multigrid, "SMOOTHING_RANGE", 4.0)
    monkeypatch.setattr(multigrid, "CHEBYSHEV_DEGREE", 3)
    for lv, b, want in zip(built, rhs, before):
        assert lv.degree == CHEBYSHEV_DEGREE
        assert lv.interval == (lv.lam_max / SMOOTHING_RANGE, lv.lam_max)
        assert np.array_equal(chebyshev_smooth(lv, b), want)
    builders = ((build_velocity_multigrid, "A"), (build_mass_multigrid, "Mp"))
    for (build, kind), b in zip(builders, rhs):
        lv = build(system).levels[-1]
        assert lv.degree == 3 and len(lv.steps) == 2
        assert lv.interval == (lv.lam_max / 4.0, lv.lam_max)
        diag = compute_diagonal(system.active, kind)
        want = oracle.chebyshev_smooth_reference(lv.op, diag, b, lv.lam_max, 3, 4.0)
        assert np.array_equal(chebyshev_smooth(lv, b), want), kind
    for schur in ("cg", "vcycle"):
        cheb = chebyshev_report(StokesPreconditioner(system, shape="triangular", schur=schur))
        assert cheb["degree"] == 3
        other = cheb["mass"] if schur == "vcycle" else [cheb["schur_mass_cg"]]
        for e in cheb["velocity"] + other:
            assert e["interval"] == [e["lam_max"] / 4.0, e["lam_max"]], schur


@pytest.mark.parametrize("dim", [2, 3])
def test_coarse_solve_is_exact(dim):
    # level 0 is the root cell: its solve matches a dense solve of the
    # materialized level-0 operator, constrained entries included, and every
    # coarse CG run converges in one iteration
    mesh = build_hierarchy(dim, 3)
    system = make_system(dim, 3, visc=random_viscosity(mesh, seed=30 + dim))
    rng = np.random.default_rng(30 + dim)
    ctx = system.contexts[0]
    cases = (
        (build_velocity_multigrid(system), lambda v: apply_A(ctx, v), ctx.n_u),
        (build_mass_multigrid(system), lambda v: apply_Mp(ctx, v), ctx.n_p),
    )
    for mg, op, n in cases:
        coarse = mg.levels[0]
        dense = oracle.materialize(op, n)
        # the inverse taken from the element matrix is the inverse of the
        # probed free block, bit for bit
        free = np.setdiff1d(np.arange(n), coarse.constrained)
        got = coarse.inverse[np.ix_(free, free)]
        assert np.array_equal(got, np.linalg.inv(dense[np.ix_(free, free)]))
        for _ in range(3):
            b = rng.standard_normal(n)
            x = mg.vcycle(b, 0)
            want = np.linalg.solve(dense, b)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert not hasattr(coarse, "lam_max") and not hasattr(coarse, "inv_diag")
        assert mg.coarse_iters_max == 1
        assert mg.coarse_unconverged == 0


def test_coarse_level_must_be_one_cell():
    ctx = make_system(2, 2).contexts[1]
    with pytest.raises(ValueError, match="expected one"):
        multigrid.CoarseLevel(None, ctx.elements.Mp, ctx.mp_col)


def test_vcycle_allocation_budget():
    # once warm, a V-cycle allocates its result, the operator products and
    # the transfer intermediates, not a fresh set of vectors for every
    # smoothing step: 3.63 fine-level vectors of traced peak on 3D
    # levels=3, against 4.64 when each level copied its right-hand side
    # and 9.3 when each step allocated
    system = make_system(3, 4)
    mg = build_velocity_multigrid(system)
    b = np.random.default_rng(12).standard_normal(system.n_u)
    b[system.active.u_constrained] = 0.0
    mg.vcycle(b)
    tracemalloc.start()
    try:
        mg.vcycle(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * b.nbytes, peak / b.nbytes


def test_vcycle_zero_and_linearity():
    system = make_system(2, 3)
    mg = build_velocity_multigrid(system)
    assert np.all(mg.vcycle(np.zeros(system.n_u)) == 0.0)
    rng = np.random.default_rng(3)
    cons = system.active.u_constrained
    b1 = rng.standard_normal(system.n_u)
    b2 = rng.standard_normal(system.n_u)
    b1[cons] = b2[cons] = 0.0
    lhs = mg.vcycle(b1 + b2)
    rhs = mg.vcycle(b1) + mg.vcycle(b2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


@pytest.mark.parametrize("dim", [2, 3])
def test_vcycle_adjoint_is_pre_smoothing_cycle(dim):
    # the post-smoothing-only cycle V(0,k) is not symmetric; its adjoint is
    # the pre-smoothing-only V(k,0) built from the same levels, and it
    # stays positive definite
    system = make_system(dim, 3)
    mg = build_velocity_multigrid(system)
    rng = np.random.default_rng(4)
    cons = system.active.u_constrained
    for _ in range(5):
        b1 = rng.standard_normal(system.n_u)
        b2 = rng.standard_normal(system.n_u)
        b1[cons] = b2[cons] = 0.0
        assert mg.vcycle(b1) @ b1 > 0.0
        lhs = mg.vcycle(b1) @ b2
        rhs = b1 @ oracle.vcycle_pre_only(mg, b2)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("dim", [2, 3])
def test_vcycle_applies_each_operator_degree_times_per_level(dim):
    # one warm cycle costs exactly CHEBYSHEV_DEGREE operator applications on
    # every level above the coarsest, no pre-smoothing and no residual, and
    # one on the coarsest, the single iteration of its exact CG solve
    system = make_system(dim, 3)
    rng = np.random.default_rng(13)
    hierarchies = (build_velocity_multigrid(system), build_mass_multigrid(system))
    for mg, op in zip(hierarchies, ("apply_A", "apply_Mp")):
        b = rng.standard_normal(mg.levels[-1].inv_diag.size)
        b[mg.levels[-1].constrained] = 0.0
        mg.vcycle(b)
        before = [ctx.counters.get(op, 0) for ctx in system.contexts]
        mg.vcycle(b)
        calls = [ctx.counters.get(op, 0) - n for ctx, n in zip(system.contexts, before)]
        assert calls == [1] + [CHEBYSHEV_DEGREE] * 2, (op, calls)


def test_vcycle_richardson_contraction():
    # one V-cycle contracts the error by at least 0.5 per Richardson step
    system = make_system(2, 3)
    mg = build_velocity_multigrid(system)
    amat = oracle.assemble_A(
        system.mesh, oracle.level_dofs(system.active), 2, np.ones(system.mesh.n_cells(2)),
        system.rule,
    )
    rng = np.random.default_rng(5)
    b = rng.standard_normal(system.n_u)
    b[system.active.u_constrained] = 0.0
    x_star = np.linalg.solve(amat, b)
    x = np.zeros(system.n_u)
    err = np.linalg.norm(x - x_star)
    for _ in range(10):
        x = x + mg.vcycle(b - apply_A(system.active, x))
        new_err = np.linalg.norm(x - x_star)
        assert new_err <= 0.5 * err + 1e-14
        err = new_err


def test_h_robustness_constant_viscosity():
    # the GMG hallmark: V-cycle-preconditioned GMRES iteration counts stay
    # flat under refinement
    counts = []
    for n_levels in (3, 4, 5):
        system = make_system(2, n_levels)
        mg = build_velocity_multigrid(system)
        b = np.random.default_rng(7).standard_normal(system.n_u)
        b[system.active.u_constrained] = 0.0
        _, stats = gmres(
            lambda u: apply_A(system.active, u), mg.vcycle, b, SolveControl(1e-6, 100, 50)
        )
        assert stats.converged
        counts.append(stats.iterations)
    assert max(counts) - min(counts) <= 2


def test_vcycle_contraction_is_h_independent():
    # the paper's h-robustness at the V-cycle itself, where no Krylov
    # method can hide a weak cycle: the contraction of E = I - V A at unit
    # viscosity, from twelve power steps, read 0.128/0.141/0.135/0.138/
    # 0.141/0.140 on 2D levels 2-7 and 0.138/0.136/0.136/0.136 on 3D
    # levels 1-4 when this test was written.  No coarse correction (0.39 to
    # 0.95), half of it (0.15 to 0.89) and Chebyshev degree 2 (about 0.6)
    # each break a bound.  The sinker field's radii, 2D 0.82-0.98 and 3D
    # 0.14-0.78, are printed as information, not bounded (ROADMAP item 5).
    radii = {}
    for dim, levels in ((2, range(2, 8)), (3, range(1, 5))):
        for level in levels:
            mesh = build_hierarchy(dim, level + 1)
            cfg, rule = sinker_config(dim, 4, 1e4, seed=1), make_gauss_rule(3, dim)
            sinker = restrict_viscosity(average_active_viscosity(mesh, cfg, rule), mesh)
            radii[dim, level] = [
                oracle.vcycle_contraction(make_system(dim, level + 1, visc=visc))
                for visc in (None, sinker)
            ]
    for (dim, level), (unit, sinker) in radii.items():
        print(f"{dim}D L{level}: unit viscosity {unit:.3f}, sinker field {sinker:.3f}")
    unit = [r[0] for r in radii.values()]
    assert max(unit) <= 0.2, radii
    assert max(unit) - min(unit) <= 0.03, radii


def test_viscosity_robustness_single_sinker():
    # iteration growth from constant viscosity to a DR=1e4 sinker stays
    # within 2x.  Tested in the benchmark dimension on a mesh where the
    # harmonically averaged field registers the sinker mildly; on finer
    # meshes the sharpened coefficient pushes the growth to 4-5x (a known
    # limit of point-smoothed GMG with averaged coarse coefficients).
    counts = {}
    for dr in (1.0, 1e4):
        mesh = build_hierarchy(3, 3)
        cfg = sinker_config(3, 1, dr, centers=[[0.5, 0.5, 0.5]])
        field = restrict_viscosity(
            average_active_viscosity(mesh, cfg, make_gauss_rule(3, 3)), mesh
        )
        system = make_system(3, 3, visc=field)
        mg = build_velocity_multigrid(system)
        b = np.random.default_rng(8).standard_normal(system.n_u)
        b[system.active.u_constrained] = 0.0
        _, stats = gmres(
            lambda u: apply_A(system.active, u), mg.vcycle, b, SolveControl(1e-6, 200, 50)
        )
        assert stats.converged
        counts[dr] = stats.iterations
    assert counts[1e4] <= 2 * counts[1.0]


def test_smoothing_range_fifteen_beats_four(monkeypatch):
    # the shipped interval [lam/15, lam] (deal.II's smoothing_range) makes
    # a better V-cycle on the 3D DR=1e4 sinker field than [lam/4, lam]:
    # 19 against 25 GMRES iterations when this test was written
    mesh = build_hierarchy(3, 4)
    cfg = sinker_config(3, 4, 1e4, seed=1)
    field = restrict_viscosity(average_active_viscosity(mesh, cfg, make_gauss_rule(3, 3)), mesh)
    system = make_system(3, 4, visc=field)
    b = np.random.default_rng(11).standard_normal(system.n_u)
    b[system.active.u_constrained] = 0.0
    counts = []
    for smoothing_range in (SMOOTHING_RANGE, 4.0):
        monkeypatch.setattr(multigrid, "SMOOTHING_RANGE", smoothing_range)
        mg = build_velocity_multigrid(system)
        _, stats = gmres(
            lambda u: apply_A(system.active, u), mg.vcycle, b, SolveControl(1e-8, 200, 50)
        )
        assert stats.converged
        counts.append(stats.iterations)
    assert counts[0] < counts[1], counts


def test_mass_multigrid_adjoint_and_linearity():
    mesh = build_hierarchy(2, 3)
    cfg = sinker_config(2, 2, 1e4, seed=2)
    field = restrict_viscosity(average_active_viscosity(mesh, cfg, make_gauss_rule(3, 2)), mesh)
    system = make_system(2, 3, visc=field)
    mg = build_mass_multigrid(system)
    rng = np.random.default_rng(9)
    p1 = rng.standard_normal(system.n_p)
    p2 = rng.standard_normal(system.n_p)
    lin = mg.vcycle(p1 + p2) - mg.vcycle(p1) - mg.vcycle(p2)
    assert np.linalg.norm(lin) <= 1e-12 * np.linalg.norm(mg.vcycle(p1))
    adj = mg.vcycle(p1) @ p2 - p1 @ oracle.vcycle_pre_only(mg, p2)
    assert abs(adj) <= 1e-10 * abs(mg.vcycle(p1) @ p2)
    assert mg.vcycle(p1) @ p1 > 0.0
    assert np.all(mg.vcycle(np.zeros(system.n_p)) == 0.0)


def test_transfers_bit_identical_to_moveaxis_reference():
    # each axis pass is one product and one fixed transpose; the reference
    # moves the transformed axis with np.moveaxis
    def reference(plan, x, mat):
        lead = x.shape[:-1]
        x = x.reshape(lead + (mat.shape[0],) * plan.dim)
        for _ in range(plan.dim):
            x = np.moveaxis(x @ mat, -1, len(lead))
        return x.reshape(lead + (-1,))

    rng = np.random.default_rng(14)
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            mat = plan.matrices[level]
            for lead in ((), (dim,)):
                coarse = rng.standard_normal(lead + (n[level - 1],))
                fine = rng.standard_normal(lead + (n[level],))
                assert np.array_equal(
                    prolongate(plan, level, coarse), reference(plan, coarse, mat.T)
                )
                assert np.array_equal(restrict(plan, level, fine), reference(plan, fine, mat))


def test_transfer_size_mismatch_rejected():
    for dim, degree, plan, dofs, n in transfer_cases():
        for level in (1, 2):
            with pytest.raises(ValueError):
                prolongate(plan, level, np.zeros(n[level]))
            with pytest.raises(ValueError):
                restrict(plan, level, np.zeros(n[level - 1]))
