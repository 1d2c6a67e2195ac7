"""Krylov solvers (CG, GMRES, FGMRES, IDR(s)) with exact storage accounting.

All solvers are right-preconditioned, so the monitored residual is the
true residual of the original system, and convergence means reducing the
Euclidean residual norm below ``reduction_target`` times its initial
value.

Storage ledger
--------------
Every full-length working vector a solver keeps alive across statements
is allocated (or adopted) through a :class:`VectorLedger`; the high-water
mark of simultaneously live vectors is reported as
``SolverStats.peak_vector_count``.  The returned solution vector and the
caller's right-hand side are application-owned and excluded, which makes
the counts match the usual hand accounting:

* ``gmres``   holds only the Arnoldi basis: j iterations -> j+1 vectors,
* ``fgmres``  holds basis plus preconditioned basis: 2j+1 vectors,
* ``idr_s``   holds exactly 5+3s vectors regardless of iteration count,
* ``cg``      holds 4 vectors.

Expression temporaries that die within a statement (operator and
preconditioner outputs that are immediately consumed) are not working
vectors and are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class IndefiniteOperatorError(RuntimeError):
    """CG observed a non-positive curvature direction."""


class VectorLedger:
    """Tracks live solver-owned vectors; every take/adopt/release is logged
    so the peak can be recomputed independently from the event trail."""

    def __init__(self):
        self.live = 0
        self.peak = 0
        self.events: list[tuple[str, int]] = []

    def take(self, n: int) -> np.ndarray:
        arr = np.zeros(n)
        self._register()
        return arr

    def adopt(self, arr: np.ndarray) -> np.ndarray:
        self._register()
        return arr

    def release(self, count: int = 1) -> None:
        self.live -= count
        self.events.append(("release", self.live))

    def _register(self) -> None:
        self.live += 1
        self.peak = max(self.peak, self.live)
        self.events.append(("take", self.live))


@dataclass
class SolveControl:
    reduction_target: float = 1e-6
    max_iters: int = 1000
    restart_length: int = 50

    def __post_init__(self):
        if not 0.0 < self.reduction_target < 1.0:
            raise ValueError("reduction_target must lie in (0, 1)")
        if self.restart_length < 1:
            raise ValueError("restart_length must be >= 1")


@dataclass
class SolverStats:
    iterations: int = 0
    precond_applications: int = 0
    matvec_count: int = 0
    peak_vector_count: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    flag: str = ""


def _identity(x):
    return x


def cg(op, precond, b, control: SolveControl, ledger: VectorLedger | None = None, x0=None):
    """Preconditioned conjugate gradients for SPD ``op`` and SPD ``precond``.

    Raises :class:`IndefiniteOperatorError` when a search direction has
    non-positive curvature.
    """
    ledger = ledger or VectorLedger()
    stats = SolverStats()
    pc = precond or _identity
    n = b.size
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    r = ledger.take(n)
    if x0 is None:
        r[:] = b
    else:
        r[:] = b - op(x)
        stats.matvec_count += 1
    ref = np.linalg.norm(r)
    stats.peak_vector_count = ledger.peak
    if ref == 0.0:
        stats.converged = True
        ledger.release()
        return x, stats
    target = control.reduction_target * ref

    z = ledger.take(n)
    z[:] = pc(r)
    stats.precond_applications += 1
    p = ledger.adopt(z.copy())
    q = ledger.take(n)
    rz = float(r @ z)
    try:
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
            res = np.linalg.norm(r)
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
            stats.flag = stats.flag or "max_iters"
    finally:
        ledger.release(4)
        stats.peak_vector_count = ledger.peak
    return x, stats


def _gmres_core(op, precond, b, control, ledger, x0, flexible, stats):
    pc = precond or _identity
    n = b.size
    m = control.restart_length
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    # the Arnoldi basis, and FGMRES's preconditioned basis, as rows of one
    # block each; a row joins the ledger when it is first used, and the
    # pages of rows never reached stay unmapped
    basis = np.empty((m + 1, n))
    zbasis = np.empty((m if flexible else 0, n))
    adopted = {"v": 0, "z": 0}  # rows of each block in the ledger

    def row(block, key, j):
        while adopted[key] <= j:
            ledger.adopt(block[adopted[key]])
            adopted[key] += 1
        return block[j]

    r0 = row(basis, "v", 0)
    if x0 is None:
        r0[:] = b
    else:
        np.subtract(b, op(x), out=r0)
        stats.matvec_count += 1
    ref = np.linalg.norm(r0)
    if ref == 0.0:
        stats.converged = True
        ledger.release(adopted["v"])
        stats.peak_vector_count = ledger.peak
        return x, stats
    target = control.reduction_target * ref

    res = ref
    while stats.iterations < control.max_iters:
        cycle_start = res
        beta = np.linalg.norm(basis[0])
        if beta == 0.0:
            break
        basis[0] /= beta
        hmat = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = beta
        cs = np.zeros(m)
        sn = np.zeros(m)
        k = 0
        for j in range(m):
            if flexible:
                z = row(zbasis, "z", j)
                z[:] = pc(basis[j])
            else:
                z = pc(basis[j])
            stats.precond_applications += 1
            w = op(z)
            stats.matvec_count += 1
            if np.may_share_memory(w, basis) or np.may_share_memory(w, zbasis):
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
                np.divide(w, hmat[j + 1, j], out=row(basis, "v", j + 1))
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
            x += y @ zbasis[:k]
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
    ledger.release(adopted["v"] + adopted["z"])
    stats.peak_vector_count = ledger.peak
    return x, stats


def gmres(op, precond, b, control: SolveControl, ledger: VectorLedger | None = None, x0=None):
    """Restarted, right-preconditioned GMRES with a fixed preconditioner."""
    stats = SolverStats()
    return _gmres_core(op, precond, b, control, ledger or VectorLedger(), x0, False, stats)


def fgmres(op, precond, b, control: SolveControl, ledger: VectorLedger | None = None, x0=None):
    """Flexible GMRES: the preconditioner may change between iterations,
    at the price of one extra stored vector per iteration."""
    stats = SolverStats()
    return _gmres_core(op, precond, b, control, ledger or VectorLedger(), x0, True, stats)


def idr_s(
    op,
    precond,
    b,
    s: int,
    control: SolveControl,
    ledger: VectorLedger | None = None,
    x0=None,
    shadow_seed: int = 20,
    kappa: float = 0.7,
):
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
    ledger = ledger or VectorLedger()
    stats = SolverStats()
    pc = precond or _identity
    n = b.size
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    r = ledger.take(n)
    if x0 is None:
        r[:] = b
    else:
        r[:] = b - op(x)
        stats.matvec_count += 1
    ref = np.linalg.norm(r)
    if ref == 0.0:
        stats.converged = True
        ledger.release()
        stats.peak_vector_count = ledger.peak
        return x, stats
    target = control.reduction_target * ref

    rng = np.random.default_rng(shadow_seed)
    shadow = [ledger.take(n) for _ in range(s)]
    gspace = [ledger.take(n) for _ in range(s)]
    uspace = [ledger.take(n) for _ in range(s)]
    v = ledger.take(n)
    vhat = ledger.take(n)
    uhat = ledger.take(n)
    ghat = ledger.take(n)

    def draw_shadow():
        for q in shadow:
            q[:] = rng.standard_normal(n)
        for i, q in enumerate(shadow):
            for prev in shadow[:i]:
                q -= (prev @ q) * prev
            q /= np.linalg.norm(q)

    def reset_space():
        for arr in gspace + uspace:
            arr[:] = 0.0

    draw_shadow()
    reset_space()
    mmat = np.eye(s)
    omega = 1.0
    redrawn = False

    while stats.iterations < control.max_iters:
        f = np.array([q @ r for q in shadow])
        breakdown = False
        for k in range(s):
            try:
                c = np.linalg.solve(mmat[k:, k:], f[k:])
            except np.linalg.LinAlgError:
                breakdown = True
                break
            v[:] = r
            for i, ci in enumerate(c):
                v -= ci * gspace[k + i]
            vhat[:] = pc(v)
            stats.precond_applications += 1
            uhat[:] = omega * vhat
            for i, ci in enumerate(c):
                uhat += ci * uspace[k + i]
            ghat[:] = op(uhat)
            stats.matvec_count += 1
            for i in range(k):
                alpha = (shadow[i] @ ghat) / mmat[i, i]
                ghat -= alpha * gspace[i]
                uhat -= alpha * uspace[i]
            for i in range(k, s):
                mmat[i, k] = shadow[i] @ ghat
            if abs(mmat[k, k]) <= 1e-14 * np.linalg.norm(ghat):
                breakdown = True
                break
            beta = f[k] / mmat[k, k]
            r -= beta * ghat
            x += beta * uhat
            if k + 1 < s:
                f[k + 1 :] -= beta * mmat[k + 1 :, k]
            gspace[k], ghat = ghat, gspace[k]
            uspace[k], uhat = uhat, uspace[k]
        if breakdown:
            if redrawn:
                stats.flag = "breakdown"
                break
            redrawn = True
            draw_shadow()
            reset_space()
            mmat = np.eye(s)
            omega = 1.0
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
        if rho < kappa:
            omega *= kappa / rho
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
    ledger.release(5 + 3 * s)
    stats.peak_vector_count = ledger.peak
    return x, stats
