"""Delay-equation dynamics behind oscillating wave tails.

Covers the scaled profile equation eps*y'' + y' = y(t-tau)(1-y(t)) and its
eps = 0 limit: method-of-steps integration, periodic orbits (Fourier
collocation Newton with unknown period), Floquet spectra of the linearized
period map, the normalized periodic adjoint, and eps-continued connecting
orbits (zero-to-one and periodic-to-point) with asymptotic-rate fits.  The
zero-to-one connection is one collocation system for eps = 0 and eps > 0:
the lag is a fixed sparse operator on the unknowns, so residual and Newton
Jacobian come from the same difference, average and lag matrices.  The
periodic orbit's residual and analytic Jacobian likewise come from dense
Fourier derivative and delay matrices.

Both method-of-steps integrators (the forward run and the Floquet period
map) step RK4 one block of steps at a time, with the block shorter than
the delay: the cubic delayed lookups of a whole block read rows written
before it and are evaluated in one call, and with the lag known each RK4
step is affine in the current state, so only that recurrence runs step by
step.  Histories and orbit coefficients are evaluated once, on arrays of
times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .spectral import DomainError, NoConvergence
from .profiles import Profile

HOPF_TAU = 1.5 * math.pi


def hopf_amplitude(tau: float) -> float:
    """First-order amplitude sqrt(20 delta / (9 pi/2 + 1)) of the small
    periodic orbit born at tau = 3 pi / 2, delta = tau - 3 pi / 2."""
    delta = tau - HOPF_TAU
    if delta <= 0:
        raise DomainError(f"no small orbit below tau = 3 pi/2, got tau={tau}")
    return math.sqrt(20.0 * delta / (4.5 * math.pi + 1.0))


def growth_rate(tau: float, eps: float = 0.0) -> float:
    """Real positive root of eps z^2 + z - e^(-tau z) = 0: the monotone
    escape rate from the zero state."""
    return brentq(lambda z: eps * z * z + z - math.exp(-tau * z), 1e-9, 2.0,
                  xtol=1e-14)


# -- trigonometric interpolation -------------------------------------------

def _trig_eval(vals: np.ndarray, period: float, t, order: int = 0):
    """Evaluate the trigonometric interpolant of uniform periodic samples
    (or its derivative) at arbitrary times."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    n = vals.size
    coef = np.fft.rfft(vals) / n
    k = np.arange(coef.size)
    w = 2j * np.pi * k / period
    fac = np.full(coef.size, 2.0)
    fac[0] = 1.0
    if n % 2 == 0:
        fac[-1] = 1.0
    ph = np.exp(np.outer(np.atleast_1d(t), w))
    out = (ph @ (coef * fac * w ** order)).real
    return float(out[0]) if scalar else out


# -- periodic orbits -------------------------------------------------------

@dataclass
class PeriodicOrbit:
    """Slowly oscillating periodic solution with period, samples over one
    period, and (once computed) Floquet multipliers and adjoint."""

    tau: float
    eps: float
    period: float
    values: np.ndarray
    residual: float
    gamma: float = 0.0
    amplitude: float = 0.0
    multipliers: list | None = None
    adjoint: np.ndarray | None = None
    unstable_mode: tuple | None = None

    def p(self, t, order: int = 0):
        return _trig_eval(self.values, self.period, t, order)

    @property
    def mesh(self) -> np.ndarray:
        """(n+1, 3) samples (t, p, p') over one closed period."""
        t = np.linspace(0.0, self.period, self.values.size + 1)
        return np.column_stack([t, self.p(t), self.p(t, 1)])

    def critical_points(self, n_samples: int = 2048) -> int:
        """Number of sign changes of p' over one period."""
        t = self.period * np.arange(n_samples) / n_samples
        dp = self.p(t, 1)
        return int(np.sum(np.sign(dp[1:]) != np.sign(dp[:-1])))

    def delay_window_sign_changes(self, n_t: int = 40, n_s: int = 400):
        """Range of sign-change counts of p over the trailing delay window,
        across a sweep of base times (slow-oscillation diagnostic)."""
        counts = []
        for t0 in self.period * np.arange(n_t) / n_t:
            s = np.linspace(t0 - self.tau, t0, n_s)
            v = self.p(s)
            counts.append(int(np.sum(np.sign(v[1:]) != np.sign(v[:-1]))))
        return min(counts), max(counts)


def _orbit_system(tau, eps, n, p0, om0):
    """Fourier-collocation system for uniform period samples p and the
    period om: eps p'' + p' - p(t - tau)(1 - p) = 0 at the samples, plus an
    orthogonality phase condition against the seed's derivative.

    Derivative and delay are dense Fourier-multiplier matrices built from
    one batched rfft of the identity, so residual and analytic Jacobian
    (period column included) come from the same operators.  Returns the
    residual and Jacobian maps of x = (p, om)."""
    k = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    basis = np.fft.rfft(np.eye(n), axis=0)

    def op(mult):
        return np.fft.irfft(basis * mult[:, None], n=n, axis=0)

    def ops(om):
        # d/dt, d^2/dt^2, the delay and the delay's derivative in om
        shift = np.exp(-k * tau / om)
        return (op(k / om), op((k / om) ** 2), op(shift),
                op(shift * k * tau / om ** 2))

    dref = op(k / om0) @ p0

    def resid(x):
        p, om = x[:-1], x[-1]
        d1, d2, s, _ = ops(om)
        r = d1 @ p - (s @ p) * (1.0 - p)
        if eps > 0:
            r = eps * (d2 @ p) + r
        return np.append(r, np.sum(p * dref) / n)

    def jac(x):
        p, om = x[:-1], x[-1]
        d1, d2, s, ds = ops(om)
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] = d1 - (1.0 - p)[:, None] * s + np.diag(s @ p)
        out[:n, n] = -(d1 @ p) / om - (1.0 - p) * (ds @ p)
        if eps > 0:
            out[:n, :n] += eps * d2
            out[:n, n] -= 2.0 * eps * (d2 @ p) / om
        out[n, :n] = dref / n
        return out

    return resid, jac


def _orbit_newton(tau, eps, n, p0, om0, tol, max_iter):
    """Newton solve of `_orbit_system` from the seed (p0, om0)."""
    resid, jac = _orbit_system(tau, eps, n, p0, om0)
    x = np.append(p0, om0)
    step = math.inf
    for _ in range(max_iter):
        f = resid(x)
        if np.linalg.norm(f, np.inf) < tol and step < 1e-9:
            break
        dx = np.linalg.solve(jac(x), f)
        step = float(np.linalg.norm(dx, np.inf))
        x = x - dx
    else:
        raise NoConvergence(
            f"periodic-orbit Newton did not converge; last correction {step}")
    return x[:-1], float(x[-1]), float(np.linalg.norm(resid(x), np.inf))


def find_periodic(tau: float, eps: float = 0.0, n: int = 64,
                  tol: float = 1e-12, max_iter: int = 60,
                  eps_steps: int = 4) -> PeriodicOrbit:
    """Periodic orbit for tau > 3 pi/2, continued in eps from the eps = 0
    solve; seeded from the small-amplitude cosine."""
    if tau <= HOPF_TAU:
        raise DomainError(f"periodic orbit needs tau > 3 pi/2, got {tau}")
    amp = hopf_amplitude(tau)
    th = 2 * np.pi * np.arange(n) / n
    p, om, res = _orbit_newton(tau, 0.0, n, amp * np.cos(th), 2 * np.pi,
                               tol, max_iter)
    om0 = om
    if eps > 0:
        for ej in np.linspace(0.0, eps, eps_steps + 1)[1:]:
            p, om, res = _orbit_newton(tau, float(ej), n, p, om, tol, max_iter)
    orbit = PeriodicOrbit(tau=tau, eps=eps, period=om, values=p, residual=res,
                          gamma=om / om0 - 1.0,
                          amplitude=0.5 * float(p.max() - p.min()))
    return orbit


# -- Floquet spectrum ------------------------------------------------------

def _cubic_rows(z: np.ndarray, idx):
    """Rows of z at an array of fractional indices by cubic Lagrange
    interpolation on the rows i0-1 .. i0+2 around each (i0 = floor(idx)); an
    index within 1e-12 above a node reads that row alone."""
    idx = np.asarray(idx, dtype=float)
    i0 = np.floor(idx).astype(np.intp)
    f = idx - i0
    node = f < 1e-12
    # a node reads its own row four times, so it may be the last row
    s = np.where(node, 0, 1)
    w = (-f * (f - 1) * (f - 2) / 6, (f * f - 1) * (f - 2) / 2,
         -f * (f + 1) * (f - 2) / 2, f * (f * f - 1) / 6)
    w = [wj.reshape(wj.shape + (1,) * (z.ndim - 1)) for wj in w]
    node = node.reshape(w[0].shape)
    val = (w[0] * z[i0 - s] + w[1] * z[i0] + w[2] * z[i0 + s]
           + w[3] * z[i0 + 2 * s])
    return np.where(node, z[i0], val)


def _rk4_increment(a0, ah, a1, dt):
    """Stacked matrices D with u <- u + D u for one classical RK4 step of
    the linear system u' = A(t) u, from stacked A at t, t + dt/2, t + dt."""
    eye = np.eye(a0.shape[-1])
    k2 = ah @ (eye + dt / 2 * a0)
    k3 = ah @ (eye + dt / 2 * k2)
    k4 = a1 @ (eye + dt * k3)
    return dt / 6 * (a0 + 2 * k2 + 2 * k3 + k4)


def _period_map(a, b, period, tau, n_disc, steps):
    """Matrix of the time-period map of z'(t) = a(t) z(t) + b(t) z(t-tau)
    on a history mesh of n_disc+1 nodes (unit-impulse columns); `a` and `b`
    hold the coefficients at the 2*steps+1 half-step times.

    With the lagged rows L0, Lh, L1 of a step known, its RK4 step is
    z <- R z + c0 L0 + ch Lh + c1 L1: the first row of the RK4 increment of
    the augmented system (z, L0, Lh, L1), in which each lag enters only at
    its own stage.  Blocks of floor(tau/dt) - 2 steps read only rows written
    before the block, so their lagged rows come from three `_cubic_rows`
    calls and only z <- R z + F runs step by step."""
    m = n_disc + 1
    hist_s = np.linspace(-tau, 0.0, m)
    dt = period / steps
    nback = int(math.ceil(tau / dt)) + 4
    tpast = -dt * np.arange(nback)[::-1]
    z = np.zeros((nback + steps + 1, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        z[:nback, j] = np.interp(tpast, hist_s, e)
    lag = tau / dt
    stage = np.zeros((3, steps, 4, 4))
    for j in range(3):
        stage[j, :, 0, 0] = a[j:j + 2 * steps:2]
        stage[j, :, 0, j + 1] = b[j:j + 2 * steps:2]
    coef = _rk4_increment(*stage, dt)[:, 0]
    blk = int(lag) - 2
    for s0 in range(0, steps, blk):
        c = coef[s0:s0 + blk]
        i = nback - 1 + s0 + np.arange(c.shape[0])
        z[i + 1] = sum(c[:, [j + 1]] * _cubic_rows(z, i + off - lag)
                       for j, off in enumerate((0.0, 0.5, 1.0)))
        for k, r in zip(i.tolist(), (1.0 + c[:, 0]).tolist()):
            z[k + 1] += r * z[k]
    out = _cubic_rows(z, (nback - 1) + (steps * dt + hist_s) / dt)
    return out, hist_s


def floquet(orbit: PeriodicOrbit, n_disc: int = 100,
            steps: int = 2000) -> np.ndarray:
    """Floquet multipliers of the orbit's linearized period map,
    z'(t) = -p(t-tau) z(t) + (1-p(t)) z(t-tau), sorted by modulus; stores
    them (and the dominant history-mode) on the orbit.  The coefficients
    come from one evaluation of p at every half-step time; `steps` must
    leave at least three steps per delay."""
    if orbit.eps > 0:
        raise DomainError("period-map discretization covers eps = 0 orbits")
    if n_disc < 100:
        raise DomainError(f"need n_disc >= 100, got {n_disc}")
    tau, om = orbit.tau, orbit.period
    dt = om / steps
    if not tau / dt >= 3:
        raise DomainError(
            f"need at least 3 steps per delay, got tau/dt = {tau / dt}")
    th = dt / 2 * np.arange(2 * steps + 1)
    pv = orbit.p(np.concatenate([th - tau, th]))
    a, b = -pv[:th.size], 1.0 - pv[th.size:]
    mat, hist_s = _period_map(a, b, om, tau, n_disc, steps)
    ev, vec = np.linalg.eig(mat)
    order = np.argsort(-np.abs(ev))
    ev, vec = ev[order], vec[:, order]
    orbit.multipliers = list(ev)
    top = np.real(vec[:, 0])
    orbit.unstable_mode = (hist_s, top / np.max(np.abs(top)))
    return ev


def adjoint_periodic(orbit: PeriodicOrbit, gap_tol: float = 1e-4) -> np.ndarray:
    """Periodic solution of the formal adjoint
    v'(t) = p(t-tau) v(t) - (1-p(t+tau)) v(t+tau), normalized so the period
    integral of p'(t) v(t) equals 1; computed from the null direction of the
    Fourier-collocated adjoint operator."""
    n = orbit.values.size
    om, tau = orbit.period, orbit.tau
    t = om * np.arange(n) / n
    k = np.fft.rfftfreq(n, d=1.0 / n)
    p_back = orbit.p(t - tau)
    p_fwd = orbit.p(t + tau)

    def apply(v):
        dv = np.fft.irfft(np.fft.rfft(v) * (1j * k * 2 * np.pi / om), n=n)
        v_fwd = np.fft.irfft(np.fft.rfft(v) * np.exp(1j * k * 2 * np.pi * tau / om),
                             n=n)
        return dv - p_back * v + (1.0 - p_fwd) * v_fwd

    mat = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = apply(e)
    _, sv, vt = np.linalg.svd(mat)
    if sv[-2] < gap_tol * sv[0]:
        raise NoConvergence(
            "periodic adjoint is not unique: second singular value "
            f"{sv[-2]} is below the gap tolerance")
    v = vt[-1]
    dp = orbit.p(t, 1)
    scale = float(np.sum(dp * v)) * om / n
    if abs(scale) < 1e-12:
        raise NoConvergence("adjoint normalization integral vanished")
    v = v / scale
    orbit.adjoint = np.column_stack([t, v])
    return orbit.adjoint


def resonance_pairing(orbit: PeriodicOrbit) -> float:
    """Period integral of p'(t) p*(t): equals 1 after normalization, and a
    nonzero value flags resonant forcing along the orbit derivative."""
    if orbit.adjoint is None:
        adjoint_periodic(orbit)
    t, v = orbit.adjoint[:, 0], orbit.adjoint[:, 1]
    dp = orbit.p(t, 1)
    return float(np.sum(dp * v)) * orbit.period / t.size


# -- forward integration ---------------------------------------------------

@dataclass
class Trajectory:
    """Dense forward run: times, values, optional derivative channel, and a
    divergence report."""

    t: np.ndarray
    y: np.ndarray
    yp: np.ndarray | None = None
    escaped: bool = False
    escape_time: float | None = None


def integrate_wright(tau: float, eps: float, history, t_end: float,
                     dt: float = None, dhistory=None,
                     blowup: float = 1e6) -> Trajectory:
    """Method-of-steps integration of eps y'' + y' = y(t-tau)(1-y(t)) (first
    order in y for eps = 0) with classical fourth-order stepping and cubic
    delayed lookup.  `history` is called once, on the array of past mesh
    times in [-tau, 0] (a constant return value broadcasts); for eps > 0 the
    initial derivative comes from `dhistory(0)` or a finite difference.  The
    step dt must be below the delay.  Stops early with a divergence report
    when |y| exceeds `blowup`.

    With the lag known, v = 1 - y (and w = y') obeys a linear system, so an
    RK4 step is v <- v + D v with D from `_rk4_increment`.  Blocks of
    nlag - 1 steps read only rows written before the block; y is updated by
    its increment, since rebuilding it as 1 - v rounds to 1."""
    if tau <= 0 or t_end <= 0:
        raise DomainError("need tau > 0 and t_end > 0")
    if dt is None:
        dt = tau / 50.0 if eps == 0 else min(tau / 50.0, eps / 10.0)
    if not 0 < dt < tau:
        raise DomainError(f"need 0 < dt < tau, got dt={dt}, tau={tau}")
    nlag = int(math.ceil(tau / dt))
    dt = tau / nlag
    steps = int(math.ceil(t_end / dt))
    nback = nlag + 4
    y = np.empty(nback + steps)
    tpast = dt * np.arange(-(nback - 1), 1)
    y[:nback] = history(np.maximum(tpast, -tau))
    w = 0.0
    if eps > 0:
        if dhistory is not None:
            w = float(dhistory(0.0))
        else:
            w = float(y[nback - 1] - y[nback - 2]) / dt
    lag = tau / dt
    escaped = False
    esc_t = None
    for s0 in range(0, steps, nlag - 1):
        i = nback - 1 + s0 + np.arange(min(nlag - 1, steps - s0))
        la = _cubic_rows(y, np.stack([i - lag, i + 0.5 - lag, i + 1.0 - lag]))
        a = np.zeros(la.shape + (2, 2))
        if eps == 0:
            a[..., 0, 0] = -la
        else:
            a[..., 0, 1] = -1.0
            a[..., 1, 0] = la / eps
            a[..., 1, 1] = -1.0 / eps
        coef = _rk4_increment(*a, dt).reshape(-1, 4).tolist()
        yv = float(y[i[0]])
        new = []
        for d00, d01, d10, d11 in coef:
            v = 1.0 - yv
            yv -= d00 * v + d01 * w
            w += d10 * v + d11 * w
            new.append(yv)
            if not abs(yv) <= blowup:
                break
        y[i[0] + 1:i[0] + 1 + len(new)] = new
        if not abs(yv) <= blowup:
            escaped = True
            esc_t = (s0 + len(new)) * dt
            y = y[:i[0] + 1 + len(new)]
            break
    vals = y[nback - 1:]
    tgrid = dt * np.arange(vals.size)
    return Trajectory(t=tgrid, y=vals, escaped=escaped, escape_time=esc_t)


# -- connecting orbits -----------------------------------------------------

@dataclass
class ConnectionRun:
    """Family of connecting solutions along an eps ladder."""

    tau: float
    kind: str
    eps_ladder: list
    solutions: list
    decay_fits: list = field(default_factory=list)


def _zero_to_one_system(tau, eps, n_per_delay=50, warm=None):
    """Collocation BVP for the zero-to-one connection: trapezoid boxes on a
    uniform mesh whose step divides the delay, left tail projected on the
    growth direction with free scale kappa, phase y(0) = 1/2.

    The unknowns are x = (y, kappa) for eps = 0 and x = (y, w = y', kappa)
    for eps > 0.  The lag y(t - tau) = lag @ x is linear in x, so residual
    and Jacobian are both built from the same fixed sparse operators.
    Returns the mesh, the growth rate, the starting point (the warm profile
    interpolated, else the logistic at the growth rate) and the residual and
    Jacobian maps."""
    z1 = growth_rate(tau, eps)
    h = tau / n_per_delay
    half = math.ceil(max(20.0 * tau, 12.0 / z1) / h)
    n = 2 * half + 1
    tg = h * (np.arange(n) - half)
    m = n_per_delay
    nch = 1 if eps == 0 else 2
    nvar = nch * n + 1
    ik = nvar - 1
    tail_w = np.exp(z1 * (tg[:m] - tau - tg[0]))

    lag = sparse.csr_matrix(
        (np.concatenate([tail_w, np.ones(n - m)]),
         (np.arange(n), np.concatenate([np.full(m, ik), np.arange(n - m)]))),
        shape=(n, nvar))
    pick = sparse.identity(nvar, format="csr")
    p_y, p_w = pick[:n], pick[n:2 * n]
    dif = sparse.block_diag(
        [sparse.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n - 1, n))] * nch)
    avg = sparse.block_diag(
        [sparse.diags([0.5, 0.5], [0, 1], shape=(n - 1, n))] * nch)
    dif_s = dif @ pick[:nch * n]
    # y(-T) = kappa, w(-T) = z1 kappa (eps > 0), y(0) = 1/2
    bc_rows = [pick[0] - pick[ik]]
    if eps > 0:
        bc_rows.append(pick[n] - z1 * pick[ik])
    bc = sparse.vstack(bc_rows + [pick[half]])
    bc_rhs = np.zeros(bc.shape[0])
    bc_rhs[-1] = 0.5

    def resid(x):
        y = x[:n]
        f = (lag @ x) * (1.0 - y)
        if eps > 0:
            w = x[n:2 * n]
            f = np.concatenate([w, (f - w) / eps])
        return np.concatenate([dif_s @ x - avg @ f, bc @ x - bc_rhs])

    def jac(x):
        df = sparse.diags(1.0 - x[:n]) @ lag - sparse.diags(lag @ x) @ p_y
        if eps > 0:
            df = sparse.vstack([p_w, (df - p_w) / eps])
        return sparse.vstack([dif_s - avg @ df, bc], format="csc")

    x = np.empty(nvar)
    if warm is not None:
        x[:n] = np.interp(tg, warm[0], warm[1])
    else:
        x[:n] = 1.0 / (1.0 + np.exp(-z1 * tg))
    if eps > 0:
        x[n:2 * n] = np.gradient(x[:n], h)
    x[ik] = max(x[0], 1e-14)
    return tg, z1, x, resid, jac


def _solve_zero_to_one(tau, eps, n_per_delay=50, warm=None):
    """Newton solve of the zero-to-one collocation BVP, with a fit of the
    left-tail growth rate."""
    tg, z1, x, resid, jac = _zero_to_one_system(tau, eps, n_per_delay, warm)
    res = math.inf
    for _ in range(40):
        r = resid(x)
        res = float(np.max(np.abs(r)))
        if res < 1e-12:
            break
        x = x - spsolve(jac(x), r)
    else:
        raise NoConvergence(
            f"connection Newton stalled at residual {res} (eps={eps})")
    y = x[:tg.size]
    sel = (y > 1e-8) & (y < 1e-3)
    rate = float(np.polyfit(tg[sel], np.log(y[sel]), 1)[0]) if sel.sum() > 5 else math.nan
    return {"eps": eps, "t": tg, "y": y, "kappa": float(x[-1]),
            "residual": res, "decay_rate": rate, "rate_target": z1}


def _ladder(eps: float) -> list:
    if eps <= 0:
        return [0.0]
    steps = [0.0]
    e = min(1e-3, eps)
    while e < eps - 1e-15:
        steps.append(e)
        e *= 2.0
    steps.append(eps)
    return steps


def heteroclinic(tau: float, eps: float = 0.0, kind: str = "zero-to-one",
                 n_per_delay: int = 50, delta: float = 1e-4,
                 t_max: float = 400.0) -> ConnectionRun:
    """Connecting orbits of the scaled profile equation.

    zero-to-one: warm-started Newton continuation along an eps ladder, with
    step bisection (down to 1e-6) on failure.  periodic-to-point: forward
    runs from the orbit perturbed along its dominant history mode, both
    perturbation signs tried; succeeds when y settles at 1.
    """
    if kind == "zero-to-one":
        ladder = _ladder(eps)
        solutions = []
        warm = None
        i = 0
        prev_eps = 0.0
        while i < len(ladder):
            ej = ladder[i]
            try:
                sol = _solve_zero_to_one(tau, ej, n_per_delay, warm)
            except NoConvergence:
                if ej - prev_eps <= 1e-6:
                    raise
                ladder.insert(i, 0.5 * (prev_eps + ej))
                continue
            solutions.append(sol)
            warm = (sol["t"], sol["y"])
            prev_eps = ej
            i += 1
        run = ConnectionRun(tau=tau, kind=kind,
                            eps_ladder=[s["eps"] for s in solutions],
                            solutions=solutions)
        run.decay_fits = [(s["decay_rate"], s["rate_target"]) for s in solutions]
        return run

    if kind != "periodic-to-point":
        raise DomainError(f"unknown connection kind {kind!r}")

    orbit = find_periodic(tau, eps)
    base = find_periodic(tau, 0.0) if eps > 0 else orbit
    floquet(base)
    hist_s, mode = base.unstable_mode
    p_fun = orbit.p

    last_err = None
    for sign in (+1.0, -1.0):
        def hist(s, sign=sign):
            return p_fun(s) + sign * delta * np.interp(s, hist_s, mode)

        def dhist(s, sign=sign):
            return p_fun(s, 1)

        traj = integrate_wright(tau, eps, hist, t_max, dhistory=dhist)
        if traj.escaped:
            last_err = f"sign {sign:+.0f} diverged at t={traj.escape_time}"
            continue
        # settled at 1: the final stretch of five delays stays within 1e-3
        win = traj.t >= traj.t[-1] - 5 * tau
        if np.max(np.abs(traj.y[win] - 1.0)) < 1e-3:
            # trim to the settling time plus one window
            good = np.abs(traj.y - 1.0) < 1e-3
            idx = np.nonzero(~good)[0]
            t_settle = traj.t[idx[-1]] if idx.size else 0.0
            sol = {"eps": eps, "t": traj.t, "y": traj.y, "delta": sign * delta,
                   "orbit": orbit, "settle_time": float(t_settle),
                   "residual": 0.0}
            # approach rate to 1 after settling; the linearized slow rate
            # is the larger root of eps r^2 + r + 1 = 0 (-1 at eps = 0)
            dev = np.abs(traj.y - 1.0)
            fit_sel = (traj.t > t_settle) & (dev > 1e-10)
            if fit_sel.sum() > 10:
                sol["decay_rate"] = float(
                    np.polyfit(traj.t[fit_sel], np.log(dev[fit_sel]), 1)[0])
            rate_target = (-1.0 if eps == 0
                           else (-1.0 + math.sqrt(1.0 - 4.0 * eps)) / (2.0 * eps))
            sol["rate_target"] = rate_target
            run = ConnectionRun(tau=tau, kind=kind, eps_ladder=[eps],
                                solutions=[sol])
            run.decay_fits = [(sol.get("decay_rate", math.nan), rate_target)]
            return run
        last_err = f"sign {sign:+.0f} did not settle at 1 within t={t_max}"
    raise NoConvergence(f"periodic-to-point run failed: {last_err}")


def to_wavefront(run: ConnectionRun, c: float) -> Profile:
    """Map a y-variable connection back to the wave profile
    phi(t) = 1 - y(-t/c); periodic-to-point runs produce a profile with a
    periodic tail of period c * (orbit period)."""
    sol = run.solutions[-1]
    eps = sol["eps"]
    if eps == 0:
        raise DomainError("the eps = 0 connection has no finite wave speed")
    if abs(c - 1.0 / math.sqrt(eps)) > 1e-8 * c:
        raise DomainError(
            f"speed mismatch: eps={eps} corresponds to c={1.0/math.sqrt(eps)}")
    t_y = sol["t"]
    y = sol["y"]
    phi_t = -c * t_y[::-1]
    vals = 1.0 - y[::-1]
    dt = float(phi_t[1] - phi_t[0])
    if run.kind == "zero-to-one":
        prof = Profile(float(phi_t[0]), dt, vals, left_limit=0.0,
                       right_limit=1.0, left_rate=sol["rate_target"] / c)
        prof.diagnostics.update({"speed": c, "eps": eps})
        return prof
    orbit = sol["orbit"]
    period = c * orbit.period
    s = np.linspace(0.0, period, 257)
    tail = 1.0 - orbit.p(-s / c)
    prof = Profile(float(phi_t[0]), dt, vals, left_limit=0.0,
                   right_tail="periodic", tail_mesh=tail, tail_period=period,
                   left_rate=1.0 / c)
    prof.diagnostics.update({"speed": c, "eps": eps, "tail_period": period,
                             "orbit_period": orbit.period})
    return prof
