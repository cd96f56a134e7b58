"""Delay-equation dynamics behind oscillating wave tails.

Covers the scaled profile equation eps*y'' + y' = y(t-tau)(1-y(t)) and its
eps = 0 limit: method-of-steps integration, periodic orbits, Floquet
spectra of the linearized period map, the normalized periodic adjoint, and
connecting orbits (zero-to-one and periodic-to-point) with asymptotic-rate
fits.  The orbit (`_orbit_system`, Fourier collocation with unknown period)
and the zero-to-one connection (`_zero_to_one_system`, one sparse lag
operator for eps = 0 and eps > 0) are maps x -> (residual, Jacobian thunk);
one Newton loop, `_newton`, solves both with the same guards, and one
eps-ladder, `_continue`, continues both from eps = 0.  An orbit Newton that
lands on a flat equilibrium is a numeric failure.  The adjoint (eps v''
term included) is the left null vector of the orbit Jacobian.

Both method-of-steps integrators (the forward run and the Floquet period
map) step RK4 one block shorter than the delay at a time: the cubic
delayed lookups of a block read rows written before it and are evaluated
in one call, and with the lag known each RK4 step is affine in the current
state, so only that recurrence runs step by step.  Histories and orbit
coefficients are evaluated once, on arrays of times.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .spectral import DomainError, NoConvergence
from .profiles import Profile

HOPF_TAU = 1.5 * math.pi
# forward runs stop once |y| exceeds WRIGHT_BLOWUP; zero-to-one collocation
# steps per delay; periodic-to-point history perturbation and run horizon
WRIGHT_BLOWUP = 1e6
CONNECT_N_PER_DELAY = 50
P2P_DELTA = 1e-4
P2P_T_MAX = 400.0
# Newton: sup-norm residual tolerance and iteration cap; eps-ladder: first
# nonzero rung (then doubling) and the smallest step a bisection may take
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 40
EPS_START = 1e-3
EPS_MIN_STEP = 1e-6


def hopf_amplitude(tau: float) -> float:
    """First-order amplitude sqrt(20 delta / (9 pi/2 + 1)) of the small
    periodic orbit born at tau = 3 pi / 2, delta = tau - 3 pi / 2."""
    delta = tau - HOPF_TAU
    if delta <= 0:
        raise DomainError(f"no small orbit below tau = 3 pi/2, got tau={tau}")
    return math.sqrt(20.0 * delta / (4.5 * math.pi + 1.0))


def _newton(system, x):
    """Newton on a map x -> (residual, Jacobian thunk) to a sup-norm residual
    below NEWTON_TOL; returns (x, residual).  A step builds the Jacobian and
    solves dense or sparse by its type.  A non-finite residual, a singular
    Jacobian or NEWTON_MAX_ITER steps raise NoConvergence."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        for _ in range(NEWTON_MAX_ITER):
            r, jac = system(x)
            res = float(np.max(np.abs(r)))
            if not math.isfinite(res):
                raise NoConvergence("Newton diverged: residual not finite")
            if res < NEWTON_TOL:
                return x, res
            j = jac()
            try:
                x = x - (spsolve(j, r) if sparse.issparse(j)
                         else np.linalg.solve(j, r))
            except (np.linalg.LinAlgError, MatrixRankWarning) as e:
                raise NoConvergence(f"Newton diverged: {e}") from e
    raise NoConvergence(f"Newton stalled at residual {res}")


def _continue(solve, eps):
    """Solutions `solve(e, previous solution or None)` along the eps-ladder
    0, EPS_START, 2 EPS_START, 4 EPS_START, ..., eps, each warm-started from
    the rung below.  A failed rung halves its step, down to EPS_MIN_STEP."""
    if not 0 <= eps < math.inf:
        raise DomainError(f"need finite eps >= 0, got eps={eps}")
    ladder = [0.0]
    while ladder[-1] < eps:
        e = max(2.0 * ladder[-1], EPS_START)
        ladder.append(e if e < eps - 1e-15 else eps)
    sols = []
    while len(sols) < len(ladder):
        i = len(sols)
        try:
            sols.append(solve(ladder[i], sols[-1] if sols else None))
        except NoConvergence as err:
            prev = ladder[i - 1] if i else 0.0
            if ladder[i] - prev <= EPS_MIN_STEP:
                raise NoConvergence(f"{err} (eps={ladder[i]})") from err
            ladder.insert(i, 0.5 * (prev + ladder[i]))
    return sols


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

# orbit collocation: samples per period, the spread below which the samples
# are a flat equilibrium, and the adjoint's singular-value gap; orbit
# diagnostics: samples per period for the critical points of p', base
# times per period and samples per delay window for the sign changes
ORBIT_NODES = 64
ORBIT_FLAT = 1e-8
ADJOINT_GAP_TOL = 1e-4
CRITICAL_SAMPLES = 2048
WINDOW_TIMES = 40
WINDOW_SAMPLES = 400


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

    def critical_points(self) -> int:
        """Number of sign changes of p' over one period."""
        t = self.period * np.arange(CRITICAL_SAMPLES) / CRITICAL_SAMPLES
        dp = self.p(t, 1)
        return int(np.sum(np.sign(dp[1:]) != np.sign(dp[:-1])))

    def delay_window_sign_changes(self):
        """Range of sign-change counts of p over the trailing delay window,
        across a sweep of base times (slow-oscillation diagnostic)."""
        counts = []
        for t0 in self.period * np.arange(WINDOW_TIMES) / WINDOW_TIMES:
            s = np.linspace(t0 - self.tau, t0, WINDOW_SAMPLES)
            v = self.p(s)
            counts.append(int(np.sum(np.sign(v[1:]) != np.sign(v[:-1]))))
        return min(counts), max(counts)


def _orbit_system(tau, eps, p0, om0):
    """Fourier-collocation system for uniform period samples p and the
    period om: eps p'' + p' - p(t - tau)(1 - p) = 0 at the samples, plus an
    orthogonality phase condition against the seed's derivative.

    Derivative and delay are dense Fourier-multiplier matrices built from
    one batched rfft of the identity, so residual and analytic Jacobian
    (period column included) come from the same operators.  Returns the map
    x = (p, om) -> (residual, Jacobian thunk)."""
    n = p0.size
    k = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    basis = np.fft.rfft(np.eye(n), axis=0)

    def op(mult):
        return np.fft.irfft(basis * mult[:, None], n=n, axis=0)

    dref = op(k / om0) @ p0

    def system(x):
        p, om = x[:-1], x[-1]
        # d/dt, d^2/dt^2 and the delay
        shift = np.exp(-k * tau / om)
        d1, d2, s = op(k / om), op((k / om) ** 2), op(shift)
        dp, sp, d2p = d1 @ p, s @ p, d2 @ p
        r = dp - sp * (1.0 - p)
        if eps > 0:
            r = eps * d2p + r

        def jac():
            j = np.zeros((n + 1, n + 1))
            j[:n, :n] = d1 - (1.0 - p)[:, None] * s + np.diag(sp)
            # the delay's derivative in om
            ds = op(shift * k * tau / om ** 2)
            j[:n, n] = -dp / om - (1.0 - p) * (ds @ p)
            if eps > 0:
                j[:n, :n] += eps * d2
                j[:n, n] -= 2.0 * eps * d2p / om
            j[n, :n] = dref / n
            return j

        return np.append(r, np.sum(p * dref) / n), jac

    return system


def find_periodic(tau: float, eps: float = 0.0) -> PeriodicOrbit:
    """Periodic orbit for tau > 3 pi/2 on ORBIT_NODES samples: Newton from
    the small-amplitude cosine at eps = 0, continued along the eps-ladder.
    Samples that spread less than ORBIT_FLAT, a flat equilibrium, are
    NoConvergence."""
    if tau <= HOPF_TAU:
        raise DomainError(f"periodic orbit needs tau > 3 pi/2, got {tau}")
    th = 2 * np.pi * np.arange(ORBIT_NODES) / ORBIT_NODES

    def solve(e, prev):
        p, om = ((hopf_amplitude(tau) * np.cos(th), 2 * np.pi)
                 if prev is None else (prev.values, prev.period))
        x, res = _newton(_orbit_system(tau, e, p, om), np.append(p, om))
        p, om, spread = x[:-1], float(x[-1]), float(np.ptp(x[:-1]))
        if not spread >= ORBIT_FLAT:
            raise NoConvergence(
                f"Newton collapsed onto p = {round(p.mean())}")
        return PeriodicOrbit(tau=tau, eps=e, period=om, values=p,
                             residual=res, amplitude=0.5 * spread)

    try:
        orbits = _continue(solve, eps)
    except NoConvergence as err:
        raise NoConvergence(f"periodic-orbit {err}") from err
    orbits[-1].gamma = orbits[-1].period / orbits[0].period - 1.0
    return orbits[-1]


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


def adjoint_periodic(orbit: PeriodicOrbit) -> np.ndarray:
    """Periodic solution of the formal adjoint
    eps v'' - v' + p(t-tau) v - (1-p(t+tau)) v(t+tau) = 0, normalized so the
    period integral of p'(t) v(t) equals 1: the left null vector of the
    `_orbit_system` Jacobian block in p at the orbit, whose transpose turns
    the collocated derivative into its negative and the delay into the
    advance.  A second singular value below ADJOINT_GAP_TOL of the largest
    raises NoConvergence."""
    n, om = orbit.values.size, orbit.period
    jac = _orbit_system(orbit.tau, orbit.eps, orbit.values, om)(
        np.append(orbit.values, om))[1]()
    u, sv, _ = np.linalg.svd(jac[:n, :n])
    if sv[-2] < ADJOINT_GAP_TOL * sv[0]:
        raise NoConvergence(
            "periodic adjoint is not unique: second singular value "
            f"{sv[-2]} is below the gap tolerance")
    v = u[:, -1]
    t = om * np.arange(n) / n
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
    """Dense forward run: times, values and a divergence report."""

    t: np.ndarray
    y: np.ndarray
    escaped: bool = False
    escape_time: float | None = None


def integrate_wright(tau: float, eps: float, history, t_end: float,
                     dt: float = None, dhistory=None) -> Trajectory:
    """Method-of-steps integration of eps y'' + y' = y(t-tau)(1-y(t)) (first
    order in y for eps = 0) with classical fourth-order stepping and cubic
    delayed lookup.  `history` is called once, on the array of past mesh
    times in [-tau, 0] (a constant return value broadcasts); for eps > 0 the
    initial derivative comes from `dhistory(0)` or a finite difference.  The
    step dt must be below the delay.  Stops early with a divergence report
    when |y| exceeds WRIGHT_BLOWUP.

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
            if not abs(yv) <= WRIGHT_BLOWUP:
                break
        y[i[0] + 1:i[0] + 1 + len(new)] = new
        if not abs(yv) <= WRIGHT_BLOWUP:
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


def _zero_to_one_system(tau, eps, n_per_delay=CONNECT_N_PER_DELAY, warm=None):
    """Collocation BVP for the zero-to-one connection: trapezoid boxes on a
    uniform mesh whose step divides the delay, left tail projected on the
    growth direction with free scale kappa, phase y(0) = 1/2.

    The unknowns are x = (y, kappa) for eps = 0 and x = (y, w = y', kappa)
    for eps > 0.  The lag y(t - tau) = lag @ x is linear in x, so residual
    and Jacobian are both built from the same fixed sparse operators.
    Returns the mesh, the growth rate, the starting point (the `warm`
    solution's profile interpolated, else the logistic at the growth rate)
    and the map x -> (residual, Jacobian thunk)."""
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

    def system(x):
        y, la = x[:n], lag @ x
        f = la * (1.0 - y)
        if eps > 0:
            w = x[n:2 * n]
            f = np.concatenate([w, (f - w) / eps])

        def jac():
            df = sparse.diags(1.0 - y) @ lag - sparse.diags(la) @ p_y
            if eps > 0:
                df = sparse.vstack([p_w, (df - p_w) / eps])
            return sparse.vstack([dif_s - avg @ df, bc], format="csc")

        return np.concatenate([dif_s @ x - avg @ f, bc @ x - bc_rhs]), jac

    x = np.empty(nvar)
    x[:n] = (1.0 / (1.0 + np.exp(-z1 * tg)) if warm is None
             else np.interp(tg, warm["t"], warm["y"]))
    if eps > 0:
        x[n:2 * n] = np.gradient(x[:n], h)
    x[ik] = max(x[0], 1e-14)
    return tg, z1, x, system


def _solve_zero_to_one(tau, eps, warm):
    """Newton solve of the zero-to-one collocation BVP warm-started from the
    solution `warm` (or None), with a fit of the left-tail growth rate."""
    tg, z1, x, system = _zero_to_one_system(tau, eps, warm=warm)
    try:
        x, res = _newton(system, x)
    except NoConvergence as err:
        raise NoConvergence(f"connection {err}") from err
    y = x[:tg.size]
    sel = (y > 1e-8) & (y < 1e-3)
    rate = float(np.polyfit(tg[sel], np.log(y[sel]), 1)[0]) if sel.sum() > 5 else math.nan
    return {"eps": eps, "t": tg, "y": y, "kappa": float(x[-1]),
            "residual": res, "decay_rate": rate, "rate_target": z1}


def heteroclinic(tau: float, eps: float = 0.0,
                 kind: str = "zero-to-one") -> ConnectionRun:
    """Connecting orbits of the scaled profile equation.

    zero-to-one: warm-started Newton continuation along the eps-ladder of
    `_continue`.  periodic-to-point: forward runs from the orbit perturbed
    along its dominant history mode, both perturbation signs tried;
    succeeds when y settles at 1.
    """
    if tau <= 0:
        raise DomainError(f"connecting orbits need tau > 0, got tau={tau}")
    if kind == "zero-to-one":
        sols = _continue(lambda e, warm: _solve_zero_to_one(tau, e, warm), eps)
        return ConnectionRun(
            tau=tau, kind=kind, eps_ladder=[s["eps"] for s in sols],
            solutions=sols,
            decay_fits=[(s["decay_rate"], s["rate_target"]) for s in sols])

    if kind != "periodic-to-point":
        raise DomainError(f"unknown connection kind {kind!r}")

    orbit = find_periodic(tau, eps)
    base = find_periodic(tau, 0.0) if eps > 0 else orbit
    floquet(base)
    hist_s, mode = base.unstable_mode

    last_err = None
    for sign in (+1.0, -1.0):
        def hist(s, sign=sign):
            return orbit.p(s) + sign * P2P_DELTA * np.interp(s, hist_s, mode)

        traj = integrate_wright(tau, eps, hist, P2P_T_MAX,
                                dhistory=lambda s: orbit.p(s, 1))
        if traj.escaped:
            last_err = f"sign {sign:+.0f} diverged at t={traj.escape_time}"
            continue
        # settled at 1: the final stretch of five delays stays within 1e-3
        win = traj.t >= traj.t[-1] - 5 * tau
        if np.max(np.abs(traj.y[win] - 1.0)) < 1e-3:
            # settling time: the last time y is 1e-3 or more away from 1
            dev = np.abs(traj.y - 1.0)
            idx = np.nonzero(dev >= 1e-3)[0]
            t_settle = traj.t[idx[-1]] if idx.size else 0.0
            sol = {"eps": eps, "t": traj.t, "y": traj.y,
                   "delta": sign * P2P_DELTA, "orbit": orbit,
                   "settle_time": float(t_settle), "residual": 0.0}
            # approach rate to 1 after settling; the linearized slow rate
            # is the larger root of eps r^2 + r + 1 = 0 (-1 at eps = 0)
            fit_sel = (traj.t > t_settle) & (dev > 1e-10)
            if fit_sel.sum() > 10:
                sol["decay_rate"] = float(
                    np.polyfit(traj.t[fit_sel], np.log(dev[fit_sel]), 1)[0])
            rate_target = (-1.0 if eps == 0
                           else (-1.0 + math.sqrt(1.0 - 4.0 * eps)) / (2.0 * eps))
            sol["rate_target"] = rate_target
            return ConnectionRun(
                tau=tau, kind=kind, eps_ladder=[eps], solutions=[sol],
                decay_fits=[(sol.get("decay_rate", math.nan), rate_target)])
        last_err = f"sign {sign:+.0f} did not settle at 1 within t={P2P_T_MAX}"
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
