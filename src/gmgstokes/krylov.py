"""Krylov solvers (CG, GMRES, FGMRES, IDR(s)) with exact storage counts.

All solvers are right-preconditioned, so the monitored residual is the
true residual of the original system, and convergence means reducing the
Euclidean residual norm below ``reduction_target`` times its initial
value.  Every solve starts from a zero initial guess.

Storage counts
--------------
Each solver keeps its full-length working vectors as the rows of
preallocated blocks, and ``SolverStats.peak_vector_count`` is the number
of rows it reached.  The returned solution vector and the caller's
right-hand side are application-owned and excluded, which makes the
counts match the usual hand accounting:

* ``gmres``   holds only the Arnoldi basis: j iterations -> j+1 vectors,
* ``fgmres``  holds basis plus preconditioned basis: 2j+1 vectors, or
  j+1 vectors plus j parts (``SolverStats.peak_part_count``) when the
  preconditioner names the part of its output that varies (:func:`fgmres`),
* ``idr_s``   holds exactly 5+3s vectors regardless of iteration count,
* ``cg``      holds 4 vectors.

Expression temporaries that die within a statement (operator and
preconditioner outputs that are immediately consumed) are not working
vectors and are not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# IDR(s): the seed of the PCG64 stream its shadow space is drawn from, and
# the least cosine between the residual and its image that the relaxation
# step keeps (van Gijzen & Sonneveld, ACM TOMS 38, 2011)
SHADOW_SEED = 20
KAPPA = 0.7


class IndefiniteOperatorError(RuntimeError):
    """CG observed a non-positive curvature direction."""


@dataclass
class SolveControl:
    reduction_target: float = 1e-6
    max_iters: int = 1000
    restart_length: int = 50

    def __post_init__(self):
        if not 0.0 < self.reduction_target < 1.0:
            raise ValueError("reduction_target must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restart_length < 1:
            raise ValueError("restart_length must be >= 1")


@dataclass
class SolverStats:
    iterations: int = 0
    precond_applications: int = 0
    matvec_count: int = 0
    peak_vector_count: int = 0
    # FGMRES rows of a preconditioner's stored parts; None when the solver
    # stores no parts
    peak_part_count: int | None = None
    residual_history: list = field(default_factory=list)
    converged: bool = False
    flag: str = ""


def _identity(x):
    return x


def _combine_rows(y, basis, stored):
    return y @ stored


def cg(op, precond, b, control: SolveControl):
    """Preconditioned conjugate gradients for SPD ``op`` and SPD ``precond``.

    Raises :class:`IndefiniteOperatorError` when a search direction has
    non-positive curvature.
    """
    stats = SolverStats(peak_vector_count=1)
    pc = precond or _identity
    n = b.size
    x = np.zeros(n)
    work = np.empty((4, n))
    r, z, p, q = work
    r[:] = b
    # the norms are what np.linalg.norm computes for a 1-D float array,
    # without its dispatch on every inner and coarse iteration
    ref = math.sqrt(r.dot(r))
    if ref == 0.0:
        stats.converged = True
        return x, stats
    target = control.reduction_target * ref
    stats.peak_vector_count = work.shape[0]

    z[:] = pc(r)
    stats.precond_applications += 1
    p[:] = z
    rz = float(r @ z)
    while stats.iterations < control.max_iters:
        q[:] = op(p)
        stats.matvec_count += 1
        curv = float(p @ q)
        if curv <= 0.0:
            raise IndefiniteOperatorError(
                f"non-positive curvature {curv:.3e} at iteration {stats.iterations}"
            )
        alpha = rz / curv
        x += alpha * p
        r -= alpha * q
        stats.iterations += 1
        res = math.sqrt(r.dot(r))
        stats.residual_history.append(res)
        if res <= target:
            stats.converged = True
            break
        z[:] = pc(r)
        stats.precond_applications += 1
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    if not stats.converged:
        stats.flag = "max_iters"
    return x, stats


def _gmres(op, precond, b, control, flexible):
    stats = SolverStats(peak_vector_count=1)
    pc = precond or _identity
    n = b.size
    m = control.restart_length
    x = np.zeros(n)

    # FGMRES stores the part of each preconditioned vector that its
    # preconditioner names, whole rows for a plain callable
    kept = getattr(pc, "stored", slice(None)) if flexible else slice(None)
    combine = getattr(pc, "combine", _combine_rows)
    # the Arnoldi basis, and FGMRES's stored preconditioned basis, as rows
    # of one block each; the pages of rows never reached stay unmapped
    basis = np.empty((m + 1, n))
    zbasis = np.empty((m if flexible else 0, b[kept].size))
    v_rows, z_rows = 1, 0  # rows of each block reached

    basis[0] = b
    ref = np.linalg.norm(basis[0])
    if ref == 0.0:
        stats.converged = True
        return x, stats
    target = control.reduction_target * ref

    res = ref
    while stats.iterations < control.max_iters:
        cycle_start = res
        basis[0] /= res
        hmat = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = res
        cs, sn = np.zeros(m), np.zeros(m)
        k = 0
        for j in range(m):
            z = pc(basis[j])
            stats.precond_applications += 1
            if flexible:
                zbasis[j] = z[kept]
                z_rows = max(z_rows, j + 1)
            w = op(z)
            stats.matvec_count += 1
            if np.may_share_memory(w, basis):
                w = w.copy()  # an identity op and preconditioner hand back a basis row
            # classical Gram-Schmidt, applied twice
            vj = basis[: j + 1]
            h = vj @ w
            w -= h @ vj
            h2 = vj @ w
            w -= h2 @ vj
            hmat[: j + 1, j] = h + h2
            hmat[j + 1, j] = np.linalg.norm(w)
            lucky = hmat[j + 1, j] == 0.0
            if not lucky:
                np.divide(w, hmat[j + 1, j], out=basis[j + 1])
                v_rows = max(v_rows, j + 2)
            # rotate the new column and update the residual recurrence
            for i in range(j):
                t = cs[i] * hmat[i, j] + sn[i] * hmat[i + 1, j]
                hmat[i + 1, j] = -sn[i] * hmat[i, j] + cs[i] * hmat[i + 1, j]
                hmat[i, j] = t
            denom = np.hypot(hmat[j, j], hmat[j + 1, j])
            if denom == 0.0:
                # the preconditioned operator annihilated this direction;
                # close the cycle with the columns gathered so far
                stats.flag = "breakdown"
                break
            cs[j] = hmat[j, j] / denom
            sn[j] = hmat[j + 1, j] / denom
            hmat[j, j] = denom
            hmat[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            k = j + 1
            stats.iterations += 1
            stats.residual_history.append(abs(g[j + 1]))
            if abs(g[j + 1]) <= target or lucky or stats.iterations >= control.max_iters:
                break
        if k == 0:
            break
        y = np.linalg.solve(np.triu(hmat[:k, :k]), g[:k])
        if flexible:
            x += combine(y, basis[:k], zbasis[:k])
        else:
            x += pc(y @ basis[:k])
            stats.precond_applications += 1
        np.subtract(b, op(x), out=basis[0])
        stats.matvec_count += 1
        res = np.linalg.norm(basis[0])
        if res <= target:
            stats.converged = True
            break
        if res >= cycle_start * (1.0 - 1e-12):
            stats.flag = "stagnation"
            break
    if not stats.converged and not stats.flag:
        stats.flag = "max_iters"
    if zbasis.shape[1] < n:
        stats.peak_vector_count, stats.peak_part_count = v_rows, z_rows
    else:
        stats.peak_vector_count = v_rows + z_rows
    return x, stats


def gmres(op, precond, b, control: SolveControl):
    """Restarted, right-preconditioned GMRES with a fixed preconditioner."""
    return _gmres(op, precond, b, control, False)


def fgmres(op, precond, b, control: SolveControl):
    """Flexible GMRES: the preconditioner may change between iterations,
    at the price of one stored preconditioned vector per iteration.

    A preconditioner whose output varies between applications only in a
    part may say so: its ``stored`` attribute is the index (a slice) of
    that part, and ``combine(y, basis, stored)`` rebuilds the sum over j
    of ``y[j]`` times its output on ``basis[j]`` from the basis rows and
    the stored parts of those outputs.  FGMRES then stores only that part
    of each preconditioned vector.  A plain callable keeps whole rows."""
    return _gmres(op, precond, b, control, True)


def idr_s(op, precond, b, s: int, control: SolveControl):
    """IDR(s) with biorthogonal residual updates and exactly 5+3s working
    vectors.

    One iteration is a full dimension-reduction cycle: s inner steps plus
    the relaxation step, i.e. s+1 operator and s+1 preconditioner
    applications.  Convergence is checked at cycle boundaries so the
    accounting stays exact.  The shadow space is drawn from a seeded
    PCG64 generator and orthonormalized.  On a singular inner system the
    shadow space is redrawn once, then the solve is flagged as failed.
    """
    if s < 1:
        raise ValueError("shadow-space dimension s must be >= 1")
    stats = SolverStats(peak_vector_count=1)
    pc = precond or _identity
    n = b.size
    x = np.zeros(n)

    # the shadow space, the spaces G and U, and five single vectors as
    # the rows of one block
    work = np.empty((5 + 3 * s, n))
    shadow, gspace, uspace = work[:s], work[s : 2 * s], work[2 * s : 3 * s]
    r, v, vhat, uhat, ghat = work[3 * s :]
    r[:] = b
    ref = np.linalg.norm(r)
    if ref == 0.0:
        stats.converged = True
        return x, stats
    target = control.reduction_target * ref
    stats.peak_vector_count = work.shape[0]

    rng = np.random.default_rng(SHADOW_SEED)

    def restart():
        # draw and orthonormalize the shadow space; empty G and U
        shadow[:] = rng.standard_normal((s, n))
        for i in range(s):
            for j in range(i):
                shadow[i] -= (shadow[j] @ shadow[i]) * shadow[j]
            shadow[i] /= np.linalg.norm(shadow[i])
        work[s : 3 * s] = 0.0
        return np.eye(s), 1.0

    mmat, omega = restart()
    redrawn = False

    while stats.iterations < control.max_iters:
        f = shadow @ r
        breakdown = False
        for k in range(s):
            try:
                c = np.linalg.solve(mmat[k:, k:], f[k:])
            except np.linalg.LinAlgError:
                breakdown = True
                break
            np.subtract(r, c @ gspace[k:], out=v)
            vhat[:] = pc(v)
            stats.precond_applications += 1
            np.multiply(omega, vhat, out=uhat)
            uhat += c @ uspace[k:]
            ghat[:] = op(uhat)
            stats.matvec_count += 1
            for i in range(k):
                alpha = (shadow[i] @ ghat) / mmat[i, i]
                ghat -= alpha * gspace[i]
                uhat -= alpha * uspace[i]
            mmat[k:, k] = shadow[k:] @ ghat
            if abs(mmat[k, k]) <= 1e-14 * np.linalg.norm(ghat):
                breakdown = True
                break
            beta = f[k] / mmat[k, k]
            r -= beta * ghat
            x += beta * uhat
            f[k + 1 :] -= beta * mmat[k + 1 :, k]
            gspace[k] = ghat
            uspace[k] = uhat
        if breakdown:
            if redrawn:
                stats.flag = "breakdown"
                break
            redrawn = True
            mmat, omega = restart()
            continue
        # relaxation step entering the next shadow space
        vhat[:] = pc(r)
        stats.precond_applications += 1
        ghat[:] = op(vhat)
        stats.matvec_count += 1
        tt = float(ghat @ ghat)
        tr = float(ghat @ r)
        if tt == 0.0 or tr == 0.0:
            stats.flag = "breakdown"
            break
        omega = tr / tt
        rho = abs(tr) / (np.sqrt(tt) * np.linalg.norm(r))
        if rho < KAPPA:
            omega *= KAPPA / rho
        x += omega * vhat
        r -= omega * ghat
        stats.iterations += 1
        res = np.linalg.norm(r)
        stats.residual_history.append(res)
        if res <= target:
            stats.converged = True
            break
    if not stats.converged and not stats.flag:
        stats.flag = "max_iters"
    return x, stats
