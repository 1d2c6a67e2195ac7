"""Brute-force dense assembly used to cross-check the matrix-free kernels.

Classic finite element assembly: loop over cells, build the local element
matrix by quadrature, scatter into a dense global matrix, then impose the
identity-on-constrained-rows convention.  Deliberately structured unlike
the production gather/GEMM/scatter path.

The shape functions are evaluated one point and one function at a time
from the product form of the 1D Lagrange polynomials, independently of
the production tables.  Also pointwise evaluation and nodal interpolation
of scalar FE functions, the reference the transfer and interpolation tests
compare against, and the exact block preconditioners built from dense
factorizations of the matrix-free blocks.  And the Krylov references:
GMRES by modified Gram-Schmidt and IDR(s) on lists of vectors.  And the
pre-smoothing-only V-cycle, the adjoint of the production cycle.
"""

import numpy as np

from gmgstokes import krylov
from gmgstokes.fem import LevelDofs, QuadratureRule
from gmgstokes.mesh import MeshHierarchy
from gmgstokes.multigrid import chebyshev_smooth, prolongate, restrict
from gmgstokes.operators import apply_A, apply_Bt
from gmgstokes.precond import StokesPreconditioner


def lagrange_nodes(degree: int) -> tuple[float, ...]:
    return {1: (0.0, 1.0), 2: (0.0, 0.5, 1.0)}[degree]


def lagrange_value(nodes, i: int, x):
    """Product-form 1D Lagrange function i of ``nodes`` at x."""
    out = np.ones_like(np.asarray(x, dtype=float))
    for j, xj in enumerate(nodes):
        if j != i:
            out = out * (x - xj) / (nodes[i] - xj)
    return out


def lagrange_derivative(nodes, i: int, x):
    """Derivative of :func:`lagrange_value`: the sum over k != i of the
    products that leave out factor k."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, xk in enumerate(nodes):
        if k == i:
            continue
        term = np.ones_like(x) / (nodes[i] - xk)
        for j, xj in enumerate(nodes):
            if j != i and j != k:
                term = term * (x - xj) / (nodes[i] - xj)
        out = out + term
    return out


def shape_function(degree: int, i: int, x):
    """Value and reference gradient of tensor-product shape function i
    (local lexicographic order, x fastest) at one point x of [0,1]^dim."""
    nodes = lagrange_nodes(degree)
    n = len(nodes)
    dim = len(x)
    idx = [(i // n**a) % n for a in range(dim)]
    vals = [lagrange_value(nodes, idx[a], x[a]) for a in range(dim)]
    ders = [lagrange_derivative(nodes, idx[a], x[a]) for a in range(dim)]
    value = float(np.prod(vals))
    grad = np.array(
        [np.prod([ders[b]] + [vals[a] for a in range(dim) if a != b]) for b in range(dim)]
    )
    return value, grad


def local_basis(degree: int, dim: int, rule: QuadratureRule):
    """Shape values (n_q, n_loc) and gradients (n_q, n_loc, dim), one point
    and one function at a time."""
    n_loc = (degree + 1) ** dim
    vals = np.empty((rule.n, n_loc))
    grads = np.empty((rule.n, n_loc, dim))
    for q in range(rule.n):
        for i in range(n_loc):
            vals[q, i], grads[q, i] = shape_function(degree, i, rule.points[q])
    return vals, grads


def _mask_identity(mat: np.ndarray, rows: np.ndarray) -> None:
    mat[rows, :] = 0.0
    mat[:, rows] = 0.0
    mat[rows, rows] = 1.0


def velocity_indices(ld, dim: int) -> np.ndarray:
    offs = np.arange(dim) * ld.n_scalar
    return (ld.dirichlet_scalar[None, :] + offs[:, None]).ravel()


def assemble_A(mesh, ld: LevelDofs, level, mu_cells, rule, constrain=True):
    dim = mesh.dim
    h = mesh.h(level)
    _, grads = local_basis(2, dim, rule)
    l2 = grads.shape[1]
    n = dim * ld.n_scalar
    mat = np.zeros((n, n))
    for c in range(mesh.n_cells(level)):
        kloc = np.zeros((dim, l2, dim, l2))
        for q in range(rule.n):
            gph = grads[q] / h  # physical gradients, (l2, dim)
            eps = np.zeros((dim, l2, dim, dim))
            for a in range(dim):
                for i in range(l2):
                    t = np.zeros((dim, dim))
                    t[a, :] = gph[i]
                    eps[a, i] = 0.5 * (t + t.T)
            kloc += (2.0 * mu_cells[c] * rule.weights[q] * h**dim) * np.einsum(
                "aide,bjde->aibj", eps, eps
            )
        gidx = (np.arange(dim)[:, None] * ld.n_scalar + ld.q2_map[c][None, :]).ravel()
        mat[np.ix_(gidx, gidx)] += kloc.reshape(dim * l2, dim * l2)
    if constrain:
        _mask_identity(mat, velocity_indices(ld, dim))
    return mat


def assemble_B(mesh, ld: LevelDofs, level, rule, constrain=True):
    dim = mesh.dim
    h = mesh.h(level)
    _, grads2 = local_basis(2, dim, rule)
    vals1, _ = local_basis(1, dim, rule)
    l2 = grads2.shape[1]
    l1 = vals1.shape[1]
    mat = np.zeros((ld.n_p, dim * ld.n_scalar))
    for c in range(mesh.n_cells(level)):
        bloc = np.zeros((l1, dim, l2))
        for q in range(rule.n):
            gph = grads2[q] / h
            for a in range(dim):
                bloc[:, a, :] += (-rule.weights[q] * h**dim) * np.outer(
                    vals1[q], gph[:, a]
                )
        rows = ld.q1_map[c]
        cols = (np.arange(dim)[:, None] * ld.n_scalar + ld.q2_map[c][None, :]).ravel()
        mat[np.ix_(rows, cols)] += bloc.reshape(l1, dim * l2)
    if constrain:
        mat[:, velocity_indices(ld, dim)] = 0.0
    return mat


def assemble_Mp(mesh, ld: LevelDofs, level, mu_cells, rule):
    dim = mesh.dim
    h = mesh.h(level)
    vals1, _ = local_basis(1, dim, rule)
    mat = np.zeros((ld.n_p, ld.n_p))
    for c in range(mesh.n_cells(level)):
        mloc = np.zeros((vals1.shape[1],) * 2)
        for q in range(rule.n):
            mloc += (rule.weights[q] * h**dim / mu_cells[c]) * np.outer(
                vals1[q], vals1[q]
            )
        mat[np.ix_(ld.q1_map[c], ld.q1_map[c])] += mloc
    return mat


def assemble_rhs(mesh: MeshHierarchy, ld: LevelDofs, level, f, rule, constrain=True):
    dim = mesh.dim
    h = mesh.h(level)
    vals2, _ = local_basis(2, dim, rule)
    lat = mesh.cell_lattices(level)
    vec = np.zeros(dim * ld.n_scalar)
    for c in range(mesh.n_cells(level)):
        for q in range(rule.n):
            x = (lat[c] + rule.points[q]) * h
            fx = np.asarray(f(x[None, :]))[0]
            for a in range(dim):
                vec[a * ld.n_scalar + ld.q2_map[c]] += (
                    rule.weights[q] * h**dim * fx[a]
                ) * vals2[q]
    if constrain:
        vec[velocity_indices(ld, dim)] = 0.0
    return vec


def free_velocity_indices(ld, dim: int) -> np.ndarray:
    mask = np.ones(dim * ld.n_scalar, dtype=bool)
    mask[velocity_indices(ld, dim)] = False
    return np.nonzero(mask)[0]


def support_points(dim: int, level: int, degree: int) -> np.ndarray:
    """Physical coordinates of the scalar support points, in dof order."""
    n = 2**level
    m = degree * n + 1
    k = np.arange(m**dim)
    coords = np.stack([(k // m**a) % m for a in range(dim)], axis=1)
    return coords / (degree * n)


def evaluate_scalar(
    coeffs: np.ndarray,
    dofs: LevelDofs,
    dim: int,
    degree: int,
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate a scalar FE function at arbitrary points of [0,1]^dim."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = int(round(len(dofs.q1_map) ** (1.0 / dim)))
    lat = np.minimum(np.floor(points * n).astype(np.int64), n - 1)
    loc = points * n - lat
    cell = np.zeros(len(points), dtype=np.int64)
    for a in range(dim):
        cell += lat[:, a] * n**a
    cmap = dofs.q2_map if degree == 2 else dofs.q1_map
    vals = np.array(
        [[shape_function(degree, i, x)[0] for i in range(cmap.shape[1])] for x in loc]
    )
    return np.sum(coeffs[cmap[cell]] * vals, axis=1)


def interpolate_scalar(fn, dim: int, level: int, degree: int) -> np.ndarray:
    """Nodal interpolation of ``fn(points) -> values`` onto the FE space."""
    return np.asarray(fn(support_points(dim, level, degree)), dtype=float)


def chebyshev_smooth_reference(op, diag, b, lam_max, degree, smoothing_range, x0=None):
    """The Chebyshev smoother's recurrence written with a fresh array for
    every intermediate.  The buffered smoother performs the same
    operations in the same order, so the two agree bit for bit."""
    inv_d = 1.0 / diag
    low = lam_max / smoothing_range
    theta = 0.5 * (lam_max + low)
    delta = 0.5 * (lam_max - low)
    if x0 is None:
        r = b.copy()
        x = np.zeros_like(b)
    else:
        r = b - op(x0)
        x = x0.copy()
    sigma = theta / delta
    rho = 1.0 / sigma
    d = inv_d * r / theta
    x += d
    for _ in range(degree - 1):
        r -= op(d)
        rho_new = 1.0 / (2.0 * sigma - rho)
        d = (rho_new * rho) * d + (2.0 * rho_new / delta) * (inv_d * r)
        x += d
        rho = rho_new
    return x


def vcycle_pre_only(mg, b, level=None):
    """V(k,0) on the levels, transfers and coarse solve of the Multigrid
    ``mg``: smooth from zero, restrict the residual with the constrained
    entries zeroed, recurse, and add the prolongated correction.  It is the
    adjoint of ``mg.vcycle``'s V(0,k) on vectors that vanish on the
    constrained entries."""
    if level is None:
        level = len(mg.levels) - 1
    if level == 0:
        return mg.levels[0].solve(b, mg.coarse_control)[0]
    lv = mg.levels[level]
    x = chebyshev_smooth(lv, b)
    r = (b - lv.op(x)).reshape(lv.components, -1)
    r[:, lv.scalar_constrained] = 0.0
    rc = restrict(mg.plan, level, r)
    rc[:, mg.levels[level - 1].scalar_constrained] = 0.0
    ec = vcycle_pre_only(mg, rc.reshape(-1), level - 1).reshape(lv.components, -1)
    return x + prolongate(mg.plan, level, ec, lv.scalar_constrained).reshape(-1)


def gmres_mgs(op, precond, b, control, flexible):
    """Restarted, right-preconditioned GMRES (FGMRES when ``flexible``)
    whose Arnoldi step orthogonalizes by modified Gram-Schmidt, one basis
    vector at a time, from a zero initial guess.  The reference for the
    solvers' block Gram-Schmidt; returns the solution, the iteration count
    and the residual history."""
    pc = precond or (lambda v: v)
    m = control.restart_length
    x = np.zeros(b.size)
    r = b.copy()
    target = control.reduction_target * np.linalg.norm(r)
    iterations, history = 0, []
    while iterations < control.max_iters:
        cycle_start = np.linalg.norm(r)
        basis, zbasis = [r / cycle_start], []
        hmat = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = cycle_start
        cs, sn = np.zeros(m), np.zeros(m)
        k = 0
        for j in range(m):
            z = pc(basis[j])
            zbasis.append(z)
            w = op(z)
            for i in range(j + 1):
                hmat[i, j] = basis[i] @ w
                w = w - hmat[i, j] * basis[i]
            hmat[j + 1, j] = np.linalg.norm(w)
            lucky = hmat[j + 1, j] == 0.0
            if not lucky:
                basis.append(w / hmat[j + 1, j])
            for i in range(j):
                t = cs[i] * hmat[i, j] + sn[i] * hmat[i + 1, j]
                hmat[i + 1, j] = -sn[i] * hmat[i, j] + cs[i] * hmat[i + 1, j]
                hmat[i, j] = t
            denom = np.hypot(hmat[j, j], hmat[j + 1, j])
            cs[j], sn[j] = hmat[j, j] / denom, hmat[j + 1, j] / denom
            hmat[j, j], hmat[j + 1, j] = denom, 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            k = j + 1
            iterations += 1
            history.append(abs(g[j + 1]))
            if abs(g[j + 1]) <= target or lucky or iterations >= control.max_iters:
                break
        y = np.linalg.solve(np.triu(hmat[:k, :k]), g[:k])
        if flexible:
            x += sum(y[i] * zbasis[i] for i in range(k))
        else:
            x += pc(sum(y[i] * basis[i] for i in range(k)))
        r = b - op(x)
        if np.linalg.norm(r) <= target:
            break
    return x, iterations, history


def idr_s_lists(op, precond, b, s, control):
    """IDR(s) with biorthogonal residual updates (van Gijzen & Sonneveld,
    ACM TOMS 38, 2011), its spaces held as Python lists of vectors and
    every projection a loop of dot products, from a zero initial guess and
    without breakdown handling.  The reference for ``krylov.idr_s``, with
    its shadow seed and relaxation bound; returns the solution, the
    iteration count and the residual history."""
    pc = precond or (lambda v: v)
    n = b.size
    x = np.zeros(n)
    r = b.copy()
    target = control.reduction_target * np.linalg.norm(r)
    rng = np.random.default_rng(krylov.SHADOW_SEED)
    shadow = [rng.standard_normal(n) for _ in range(s)]
    for i, q in enumerate(shadow):
        for prev in shadow[:i]:
            q -= (prev @ q) * prev
        q /= np.linalg.norm(q)
    gspace = [np.zeros(n) for _ in range(s)]
    uspace = [np.zeros(n) for _ in range(s)]
    mmat = np.eye(s)
    omega = 1.0
    iterations, history = 0, []
    while iterations < control.max_iters:
        f = np.array([q @ r for q in shadow])
        for k in range(s):
            c = np.linalg.solve(mmat[k:, k:], f[k:])
            v = r.copy()
            for i, ci in enumerate(c):
                v -= ci * gspace[k + i]
            uhat = omega * pc(v)
            for i, ci in enumerate(c):
                uhat += ci * uspace[k + i]
            ghat = op(uhat)
            for i in range(k):
                alpha = (shadow[i] @ ghat) / mmat[i, i]
                ghat -= alpha * gspace[i]
                uhat -= alpha * uspace[i]
            for i in range(k, s):
                mmat[i, k] = shadow[i] @ ghat
            beta = f[k] / mmat[k, k]
            r -= beta * ghat
            x += beta * uhat
            f[k + 1 :] -= beta * mmat[k + 1 :, k]
            gspace[k], uspace[k] = ghat, uhat
        vhat = pc(r)
        ghat = op(vhat)
        tt, tr = ghat @ ghat, ghat @ r
        omega = tr / tt
        rho = abs(tr) / (np.sqrt(tt) * np.linalg.norm(r))
        if rho < krylov.KAPPA:
            omega *= krylov.KAPPA / rho
        x += omega * vhat
        r -= omega * ghat
        iterations += 1
        history.append(np.linalg.norm(r))
        if history[-1] <= target:
            break
    return x, iterations, history


def materialize(op, n_in: int, n_out: int | None = None) -> np.ndarray:
    """Dense matrix of a linear operator, column by column."""
    n_out = n_in if n_out is None else n_out
    cols = np.empty((n_out, n_in))
    e = np.zeros(n_in)
    for j in range(n_in):
        e[j] = 1.0
        cols[:, j] = op(e)
        e[j] = 0.0
    return cols


def exact_preconditioner(system, shape: str = "triangular") -> StokesPreconditioner:
    """The production block preconditioner with exact inner solves: a dense
    Cholesky solve of the matrix-free A, and the eigen-pseudo-inverse of the
    Schur complement S = B A^-1 B^T.  Applied exactly, the triangular shape
    makes GMRES converge in 2 iterations and the diagonal shape in 3
    (Murphy, Golub & Wathen, SIAM J. Sci. Comput. 21, 2000)."""
    pc = StokesPreconditioner(system, shape=shape, schur="diag")
    ctx = system.active
    chol = np.linalg.cholesky(materialize(lambda u: apply_A(ctx, u), ctx.n_u))

    def solve_a(rhs):
        y = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, y)

    bt = materialize(lambda p: apply_Bt(ctx, p), ctx.n_p, ctx.n_u)  # B^T columns
    schur = bt.T @ solve_a(bt)
    # the constant pressure spans the kernel; invert on its complement
    lam, vec = np.linalg.eigh(0.5 * (schur + schur.T))
    cut = 1e-10 * lam.max()
    inv = np.where(lam > cut, 1.0 / np.maximum(lam, cut), 0.0)
    s_pinv = (vec * inv) @ vec.T
    pc.a_apply = solve_a
    pc.schur_apply = lambda r_p: s_pinv @ r_p
    return pc
