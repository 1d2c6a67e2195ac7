import functools
import tracemalloc

import numpy as np
import pytest

import oracle
from gmgstokes.krylov import (
    IndefiniteOperatorError,
    SolveControl,
    cg,
    fgmres,
    gmres,
    idr_s,
)


def matop(mat):
    return lambda v: mat @ v


def laplacian_1d(n):
    mat = 2.0 * np.eye(n)
    mat -= np.diag(np.ones(n - 1), 1)
    mat -= np.diag(np.ones(n - 1), -1)
    return mat


# ---------------------------------------------------------------- cg


def test_cg_identity_one_iteration():
    b = np.random.default_rng(0).standard_normal(30)
    x, stats = cg(lambda v: v, None, b, SolveControl(1e-10, 50, 50))
    assert stats.converged and stats.iterations == 1
    assert np.allclose(x, b)


def test_cg_three_distinct_eigenvalues():
    d = np.array([1.0, 2.0, 5.0] * 12)
    b = np.random.default_rng(1).standard_normal(36)
    x, stats = cg(lambda v: d * v, None, b, SolveControl(1e-12, 50, 50))
    assert stats.converged and stats.iterations <= 3
    assert np.allclose(x, b / d, atol=1e-10)


def test_cg_random_spd_against_dense_solve():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((50, 50))
    mat = mat @ mat.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x, stats = cg(matop(mat), None, b, SolveControl(1e-10, 200, 50))
    assert stats.converged
    assert np.linalg.norm(x - np.linalg.solve(mat, b)) < 1e-8


def test_cg_indefiniteness_raises():
    d = np.array([1.0] * 10 + [-1.0] * 10)
    b = np.ones(20)
    with pytest.raises(IndefiniteOperatorError):
        cg(lambda v: d * v, None, b, SolveControl(1e-10, 50, 50))


def test_cg_zero_rhs_short_circuits():
    x, stats = cg(lambda v: v, None, np.zeros(8), SolveControl(1e-10, 50, 50))
    assert stats.converged and stats.iterations == 0
    assert np.all(x == 0.0)


# ---------------------------------------------------------------- gmres


def test_gmres_identity_one_iteration():
    b = np.random.default_rng(3).standard_normal(25)
    x, stats = gmres(lambda v: v, None, b, SolveControl(1e-10, 50, 50))
    assert stats.converged and stats.iterations == 1


def test_gmres_nonsymmetric_against_dense_solve():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((40, 40)) + 8 * np.eye(40)
    b = rng.standard_normal(40)
    x, stats = gmres(matop(mat), None, b, SolveControl(1e-10, 200, 60))
    assert stats.converged
    assert np.linalg.norm(x - np.linalg.solve(mat, b)) < 1e-8


def test_gmres_basis_accounting_thirty_iterations():
    # 30 iterations with restart >= 30 keep exactly 31 solver vectors live
    mat = laplacian_1d(200)
    b = np.zeros(200)
    b[0] = 1.0
    _, stats = gmres(matop(mat), None, b, SolveControl(1e-6, 30, 50))
    assert stats.iterations == 30
    assert stats.peak_vector_count == 31


def test_gmres_residual_monotone_within_cycle():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((60, 60)) + 9 * np.eye(60)
    b = rng.standard_normal(60)
    _, stats = gmres(matop(mat), None, b, SolveControl(1e-10, 60, 60))
    hist = np.array(stats.residual_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_gmres_precond_application_accounting():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((40, 40)) + 8 * np.eye(40)
    minv = np.diag(1.0 / np.diag(mat))
    b = rng.standard_normal(40)
    _, stats = gmres(matop(mat), matop(minv), b, SolveControl(1e-10, 39, 40))
    # one application per iteration plus one for the solution update
    assert stats.precond_applications <= stats.iterations + 1


def test_gmres_stagnation_flagged():
    # a rotation-like system on which restarted GMRES(2) cannot progress
    mat = np.eye(6, k=1)
    mat[-1, 0] = 1.0
    b = np.zeros(6)
    b[-1] = 1.0
    x, stats = gmres(matop(mat), None, b, SolveControl(1e-12, 40, 2))
    assert not stats.converged
    assert stats.flag == "stagnation" and stats.iterations == 2


@pytest.mark.parametrize("solver", [gmres, fgmres])
def test_gmres_flags_breakdown_on_zero_operator(solver):
    # the operator annihilates the first direction, so its Givens rotation
    # is undefined: the solve stops flagged before counting an iteration
    x, stats = solver(lambda v: np.zeros_like(v), None, np.ones(10), SolveControl(1e-8, 50, 50))
    assert stats.flag == "breakdown" and not stats.converged
    assert stats.iterations == 0 and stats.residual_history == []
    assert np.all(x == 0.0)


# ---------------------------------------------------------------- fgmres


def test_fgmres_matches_gmres_with_fixed_preconditioner():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((40, 40)) + 8 * np.eye(40)
    minv = np.diag(1.0 / np.diag(mat))
    b = rng.standard_normal(40)
    ctl = SolveControl(1e-10, 100, 50)
    x1, s1 = gmres(matop(mat), matop(minv), b, ctl)
    x2, s2 = fgmres(matop(mat), matop(minv), b, ctl)
    assert s1.iterations == s2.iterations
    assert np.linalg.norm(x1 - x2) < 1e-12 * np.linalg.norm(x1)
    assert np.allclose(s1.residual_history, s2.residual_history, rtol=1e-12, atol=1e-14)


def test_fgmres_two_vectors_per_iteration():
    # driven past the restart length of 50: 51 basis + 50 preconditioned
    # basis vectors = 101 live solver vectors, no constant overhead
    mat = laplacian_1d(400)
    b = np.random.default_rng(8).standard_normal(400)
    _, stats = fgmres(matop(mat), None, b, SolveControl(1e-6, 60, 50))
    assert stats.iterations >= 51
    assert stats.peak_vector_count == 101


def test_fgmres_tolerates_varying_preconditioner():
    # an inner solve with wildly varying accuracy: fgmres keeps its residual
    # bookkeeping truthful, gmres with the same varying operator does not
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((60, 60)) + 10 * np.eye(60)
    b = rng.standard_normal(60)

    def make_varying():
        state = {"k": 0}
        minv = np.linalg.inv(mat)

        def apply(v):
            state["k"] += 1
            if state["k"] % 2 == 0:
                return minv @ v
            return 0.05 * v  # badly scaled identity-ish application

        return apply

    ctl = SolveControl(1e-8, 40, 40)
    xf, sf = fgmres(matop(mat), make_varying(), b, ctl)
    xg, sg = gmres(matop(mat), make_varying(), b, ctl)
    rf = np.linalg.norm(b - mat @ xf) / np.linalg.norm(b)
    rg = np.linalg.norm(b - mat @ xg) / np.linalg.norm(b)
    assert sf.converged and rf <= 2e-8
    # gmres' claimed residual diverges from the truth once the
    # preconditioner changed between iterations
    claimed_g = sg.residual_history[-1] / np.linalg.norm(b)
    assert rg > 10 * claimed_g or not sg.converged


def _laplacian_case():
    # symmetric, driven past the restart length of 50
    b = np.random.default_rng(8).standard_normal(400)
    return laplacian_1d(400), b, None, SolveControl(1e-6, 60, 50)


def _nonsymmetric_case():
    # Jacobi-preconditioned, converging within one cycle: a restart from a
    # residual near 1e-8 recomputes it with a cancellation error of order
    # eps * |A| |x| / |r|, which no Gram-Schmidt variant controls
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((80, 80)) + 15 * np.eye(80)
    b = rng.standard_normal(80)
    return mat, b, np.diag(1.0 / np.diag(mat)), SolveControl(1e-10, 200, 40)


@pytest.mark.parametrize("case", [_laplacian_case, _nonsymmetric_case])
@pytest.mark.parametrize("solver", [gmres, fgmres])
def test_block_gram_schmidt_matches_mgs_reference(case, solver):
    # classical Gram-Schmidt applied twice gives the counts and residual
    # histories of modified Gram-Schmidt
    mat, b, minv, ctl = case()
    pc = None if minv is None else matop(minv)
    x, stats = solver(matop(mat), pc, b, ctl)
    x_ref, iters_ref, hist_ref = oracle.gmres_mgs(matop(mat), pc, b, ctl, solver is fgmres)
    assert stats.iterations == iters_ref
    if case is _laplacian_case:
        assert stats.iterations > ctl.restart_length
    hist, hist_ref = np.array(stats.residual_history), np.array(hist_ref)
    assert np.max(np.abs(hist - hist_ref) / hist_ref) <= 1e-10
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


# ---------------------------------------------------------------- idr(s)


def test_idr2_storage_is_eleven_vectors():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((60, 60)) + 10 * np.eye(60)
    b = rng.standard_normal(60)
    x, stats = idr_s(matop(mat), None, b, 2, SolveControl(1e-8, 200, 50))
    assert stats.converged
    assert stats.peak_vector_count == 5 + 3 * 2 == 11


@pytest.mark.parametrize("s", [1, 2, 4])
def test_idr_storage_rule(s):
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((50, 50)) + 10 * np.eye(50)
    b = rng.standard_normal(50)
    _, stats = idr_s(matop(mat), None, b, s, SolveControl(1e-8, 200, 50))
    assert stats.peak_vector_count == 5 + 3 * s


def test_idr_work_accounting():
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((60, 60)) + 10 * np.eye(60)
    b = rng.standard_normal(60)
    _, stats = idr_s(matop(mat), None, b, 2, SolveControl(1e-9, 300, 50))
    assert stats.converged
    assert abs(stats.precond_applications - 3 * stats.iterations) <= 1
    assert abs(stats.matvec_count - 3 * stats.iterations) <= 1


def test_idr_nonsymmetric_against_dense_solve():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((60, 60)) + 10 * np.eye(60)
    b = rng.standard_normal(60)
    x, stats = idr_s(matop(mat), None, b, 2, SolveControl(1e-9, 300, 50))
    assert stats.converged
    assert np.linalg.norm(x - np.linalg.solve(mat, b)) < 1e-7


def test_idr_determinism():
    rng = np.random.default_rng(14)
    mat = rng.standard_normal((50, 50)) + 9 * np.eye(50)
    b = rng.standard_normal(50)
    runs = [idr_s(matop(mat), None, b, 2, SolveControl(1e-9, 300, 50))[1] for _ in range(2)]
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].residual_history == runs[1].residual_history  # bit identical


def test_idr_flags_breakdown_after_one_redraw():
    # an operator that annihilates everything breaks the first inner step;
    # the shadow space is redrawn once, then the solve is flagged
    calls = []

    def zero_op(v):
        calls.append(1)
        return np.zeros_like(v)

    x, stats = idr_s(zero_op, None, np.ones(10), 2, SolveControl(1e-8, 50, 50))
    assert stats.flag == "breakdown" and not stats.converged
    assert stats.iterations == 0 and len(calls) == 2
    assert np.all(x == 0.0)


def test_idr_rejects_bad_s():
    with pytest.raises(ValueError):
        idr_s(lambda v: v, None, np.ones(4), 0, SolveControl(1e-6, 10, 10))


def _idr_case(seed, n, shift, jacobi):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n)) + shift * np.eye(n)
    if jacobi:
        mat[np.diag_indices(n)] *= rng.uniform(0.5, 4.0, n)
    pc = matop(np.diag(1.0 / np.diag(mat))) if jacobi else None
    return mat, rng.standard_normal(n), pc


@pytest.mark.parametrize("s", [1, 2, 4], ids=lambda s: f"s={s}")
def test_idr_block_matches_reference(s):
    # the block IDR(s) takes the counts, solutions and residual histories
    # of the list-of-vectors reference on three nonsymmetric problems
    for case in [(13, 60, 10.0, False), (21, 60, 10.0, True), (22, 80, 12.0, False)]:
        mat, b, pc = _idr_case(*case)
        ctl = SolveControl(1e-10, 300, 50)
        x, stats = idr_s(matop(mat), pc, b, s, ctl)
        x_ref, iters_ref, hist_ref = oracle.idr_s_lists(matop(mat), pc, b, s, ctl)
        assert stats.converged, case
        assert stats.iterations == iters_ref, case
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref), case
        hist, hist_ref = np.array(stats.residual_history), np.array(hist_ref)
        assert np.max(np.abs(hist - hist_ref) / hist_ref) <= 1e-5, case


# ---------------------------------------------------------------- storage


@pytest.mark.parametrize(
    "solver",
    [cg, gmres, fgmres, functools.partial(idr_s, s=2)],
    ids=["cg", "gmres", "fgmres", "idr2"],
)
def test_traced_peak_matches_vector_count(solver):
    # the bytes a solve allocates, in full-length vectors, lie between its
    # vector count and that count plus the solution and a few operator
    # outputs; 60 iterations drive GMRES and FGMRES past restart 50
    n = 20_000
    d = np.linspace(1.0, 1e3, n)
    b = np.random.default_rng(18).standard_normal(n)
    tracemalloc.start()
    try:
        _, stats = solver(lambda v: d * v, None, b, control=SolveControl(1e-10, 60, 50))
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert stats.iterations == 60
    assert stats.peak_vector_count <= peak <= stats.peak_vector_count + 4


def test_solver_determinism_across_runs():
    rng = np.random.default_rng(16)
    mat = rng.standard_normal((50, 50)) + 9 * np.eye(50)
    b = rng.standard_normal(50)
    for solver in (gmres, fgmres):
        s1 = solver(matop(mat), None, b, SolveControl(1e-9, 100, 30))[1]
        s2 = solver(matop(mat), None, b, SolveControl(1e-9, 100, 30))[1]
        assert s1.iterations == s2.iterations
        assert s1.residual_history == s2.residual_history


def test_control_validation():
    with pytest.raises(ValueError):
        SolveControl(reduction_target=2.0)
    with pytest.raises(ValueError):
        SolveControl(restart_length=0)
    with pytest.raises(ValueError):
        SolveControl(max_iters=0)
