"""Delay-equation dynamics behind oscillating wave tails.

Covers the scaled profile equation eps*y'' + y' = y(t-tau)(1-y(t)) and its
eps = 0 limit: method-of-steps integration, periodic orbits, Floquet
spectra of the linearized period map, the normalized periodic adjoint,
the two connecting orbits, `zero_to_one` (its eps-ladder of rungs) and
`periodic_to_point` (one forward run), with asymptotic-rate fits, and
`semiwave`, the semi-wavefront of K = delta(s + tau c) at speed c
and the one place where eps = 1/c^2 is set.  Orbits are frozen: one at
eps > 0 keeps its eps = 0 rung as `base`, and the Floquet and adjoint
routines return their results instead of storing them.

The orbit (`_orbit_system`, Fourier collocation with unknown period)
and the zero-to-one connection (`_zero_to_one_system`, trapezoid boxes
with unknowns and equations ordered node by node, for eps = 0 and
eps > 0) are maps x -> (residual, Jacobian thunk).  The package's one
Newton loop, `profiles.newton`, solves both (`_direct`), linearizing
afresh at every step: the orbit's dense Jacobian by LAPACK; the
connection's, block lower triangular node by node with a kappa border, as
a `_ConnectionJacobian` whose solve runs forward one delay block at a time
(one dgbmv for the lags, one dtbsv for the block).  One eps-ladder,
`_continue`, continues both from eps = 0.  An orbit Newton that lands on a
flat equilibrium is a numeric failure.  The adjoint (eps v'' term
included) is the left null vector of the orbit Jacobian.

Both method-of-steps integrators (the forward run and the Floquet period
map) step RK4 one block shorter than the delay at a time: the cubic
delayed lookups of a block read rows written before it, and every row
sits at the same fractional lag, so they are one fixed-tap stencil on
row slices (`_lag_taps`).  With the lag known each RK4 step is an affine
map of the current state, its coefficients in closed form
(`_rk4_gains`, `_rk4_wright`), so a block is one prefix composition of
its steps' maps (`_scan`: log2 of the block length rounds of array
operations, no Python loop per step).  Histories and orbit coefficients
are evaluated once, on arrays of times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv, dtbsv

from . import DomainError, NoConvergence
from .profiles import Profile, newton
from .spectral import brentq, quad_roots

HOPF_TAU = 1.5 * math.pi
# forward runs stop once |y| exceeds WRIGHT_BLOWUP and take at most
# WRIGHT_MAX_STEPS steps (history included); zero-to-one collocation steps
# per delay; periodic-to-point history perturbation and run horizon
WRIGHT_BLOWUP = 1e6
WRIGHT_MAX_STEPS = 10 ** 7
CONNECT_N_PER_DELAY = 50
# zero-to-one collocation nodes: 121,197 (tau = 0.01) peak at 85 MB, and
# Newton stalls there at residual 2e-12 (2-core x86-64 VM, one BLAS thread)
CONNECT_MAX_NODES = 2 * 10 ** 5
P2P_DELTA = 1e-4
P2P_T_MAX = 400.0
# a periodic-to-point run has settled once |y - 1| < P2P_SETTLE_TOL over the
# last P2P_SETTLE_DELAYS delays; its decay fit reads |y - 1| down to
# P2P_FIT_FLOOR, and the run stops one delay after it stays below that
P2P_SETTLE_TOL = 1e-3
P2P_SETTLE_DELAYS = 5
P2P_FIT_FLOOR = 1e-10
# Newton: sup-norm residual tolerance; eps-ladder: first nonzero rung (then
# doubling) and the smallest step a bisection may take
NEWTON_TOL = 1e-12
EPS_START = 1e-3
EPS_MIN_STEP = 1e-6
# the connection solve's kappa response z = T^-1 c (`_ConnectionJacobian`)
# grows with the left tail (about e^{z1 T}: 1e11 at tau 5, 1e20 at tau 25),
# and x = u - kappa z cancels.  At the logistic start a solve leaves J dx - r
# at 3e-16 to 7e-15 |r| at tau 5 and 8, but 1.4e-9 to 1.5e-8 |r| at tau 25
# and 2e-5 to 1.9e-4 |r| at tau 50; one above REFINE_TOL |r| takes a
# refinement step, which brings it to 7e-16 |r| or below
REFINE_TOL = 1e-13


def hopf_amplitude(tau: float) -> float:
    """First-order amplitude sqrt(20 delta / (9 pi/2 + 1)) of the small
    periodic orbit born at tau = 3 pi / 2, delta = tau - 3 pi / 2."""
    delta = tau - HOPF_TAU
    if delta <= 0:
        raise DomainError(f"no small orbit below tau = 3 pi/2, got tau={tau}")
    return math.sqrt(20.0 * delta / (4.5 * math.pi + 1.0))


def _direct(system):
    """`newton`'s map for a map x -> (residual, Jacobian thunk): LAPACK
    solves a dense Jacobian, a `_ConnectionJacobian` its own `solve`, with
    one refinement step against `J @ dx` if J dx - r > REFINE_TOL |r|."""
    def linearize(j):
        if isinstance(j, np.ndarray):
            return lambda r: np.linalg.solve(j, r)

        def solve(r):
            dx = j.solve(r)
            rr = r - j @ dx
            if np.max(np.abs(rr)) > REFINE_TOL * np.max(np.abs(r)):
                dx = dx + j.solve(rr)
            return dx

        return solve

    def newton_map(x):
        r, jac = system(x)
        return r, lambda: linearize(jac())

    return newton_map


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
    escape rate from the zero state; one below 1e-9 (tau above about
    2e10) is refused."""
    g = lambda z: eps * z * z + z - math.exp(-tau * z)
    if not g(1e-9) < 0:
        raise DomainError(f"the growth rate at tau={tau} is below 1e-9")
    return brentq(g, 1e-9, 2.0, xtol=1e-14)


# -- trigonometric interpolation -------------------------------------------

def _trig_coefs(vals: np.ndarray, period: float, order: int = 0):
    """Rates w and weights a with interpolant^(order)(t) = Re sum a e^{w t}
    for the trigonometric interpolant of uniform periodic samples."""
    n = vals.size
    coef = np.fft.rfft(vals) / n
    w = 2j * np.pi * np.arange(coef.size) / period
    fac = np.full(coef.size, 2.0)
    fac[0] = 1.0
    if n % 2 == 0:
        fac[-1] = 1.0
    return w, coef * fac * w ** order


def _trig_eval(vals: np.ndarray, period: float, t, order: int = 0):
    """Evaluate the trigonometric interpolant of uniform periodic samples
    (or its derivative) at arbitrary times."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    w, a = _trig_coefs(vals, period, order)
    out = (np.exp(np.outer(np.atleast_1d(t), w)) @ a).real
    return float(out[0]) if scalar else out


def _trig_grid(vals: np.ndarray, period: float, base, offsets,
               order: int = 0) -> np.ndarray:
    """The interpolant (or its derivative) at base[i] + offsets[j], as a
    (base.size, offsets.size) array.  e^{w (b + o)} = e^{w b} e^{w o}, so
    this takes base.size + offsets.size exponentials per rate, not their
    product."""
    w, a = _trig_coefs(vals, period, order)
    return ((np.exp(np.outer(base, w)) * a)
            @ np.exp(np.outer(offsets, w)).T).real


def _trig_steps(vals: np.ndarray, period: float, starts, step: float,
                n: int, order: int = 0) -> np.ndarray:
    """The interpolant (or its derivative) at starts[m] + k step, k < n, as
    a (len(starts), n) array: one `_trig_grid` with k = i nof + j split
    into base times and about sqrt(n) offsets."""
    nof = math.isqrt(n - 1) + 1
    base = step * nof * np.arange(-(-n // nof))
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    out = _trig_grid(vals, period, (starts[:, None] + base).ravel(),
                     step * np.arange(nof), order)
    return out.reshape(starts.size, -1)[:, :n]


def _trig_past(vals: np.ndarray, period: float, s: np.ndarray) -> np.ndarray:
    """The interpolant on `integrate_wright`'s past mesh s = max(k dt, -tau),
    k = 1 - s.size, ..., 0: uniform at step dt = s[-1] - s[-2] but for its
    head clipped at -tau, which takes the value at s[0]."""
    dt = s[-1] - s[-2]
    out = _trig_steps(vals, period, s[-1] - dt * (s.size - 1), dt,
                      s.size)[0]
    out[s == s[0]] = _trig_eval(vals, period, s[0])
    return out


# -- periodic orbits -------------------------------------------------------

# orbit collocation: samples per period, the spread below which the samples
# are a flat equilibrium, and the adjoint's singular-value gap; orbit
# diagnostics: samples per period for the critical points of p' (taken as
# blocks of CRITICAL_BLOCK consecutive samples), base times per period and
# samples per delay window for the sign changes
ORBIT_NODES = 64
ORBIT_FLAT = 1e-8
ADJOINT_GAP_TOL = 1e-4
CRITICAL_SAMPLES = 2048
CRITICAL_BLOCK = 64
WINDOW_TIMES = 40
WINDOW_SAMPLES = 400


@dataclass(frozen=True)
class PeriodicOrbit:
    """Slowly oscillating periodic solution: period and samples over one
    period, and `base`, the eps = 0 orbit it was continued from (None at
    eps = 0)."""

    tau: float
    eps: float
    period: float
    values: np.ndarray
    residual: float
    amplitude: float = 0.0
    base: PeriodicOrbit | None = None

    @property
    def gamma(self) -> float:
        """Relative period shift from the eps = 0 orbit (0 at eps = 0)."""
        return 0.0 if self.base is None else self.period / self.base.period - 1.0

    def p(self, t, order: int = 0):
        return _trig_eval(self.values, self.period, t, order)

    @property
    def mesh(self) -> np.ndarray:
        """(n+1, 3) samples (t, p, p') over one closed period."""
        t = np.linspace(0.0, self.period, self.values.size + 1)
        return np.column_stack([t, self.p(t), self.p(t, 1)])

    def critical_points(self) -> int:
        """Number of sign changes of p' over one period."""
        step = self.period / CRITICAL_SAMPLES
        dp = _trig_grid(self.values, self.period,
                        step * CRITICAL_BLOCK * np.arange(
                            CRITICAL_SAMPLES // CRITICAL_BLOCK),
                        step * np.arange(CRITICAL_BLOCK), 1).ravel()
        return int(np.sum(np.sign(dp[1:]) != np.sign(dp[:-1])))

    def delay_window_sign_changes(self):
        """Range of sign-change counts of p over the trailing delay window,
        across a sweep of base times (slow-oscillation diagnostic)."""
        v = np.sign(_trig_grid(
            self.values, self.period,
            self.period * np.arange(WINDOW_TIMES) / WINDOW_TIMES,
            np.linspace(-self.tau, 0.0, WINDOW_SAMPLES)))
        counts = np.sum(v[:, 1:] != v[:, :-1], axis=1)
        return int(counts.min()), int(counts.max())


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
    NoConvergence, and so is an orbit that is not slowly oscillating: two
    critical points per period and one or two sign changes of p in every
    delay window."""
    if tau <= HOPF_TAU:
        raise DomainError(f"periodic orbit needs tau > 3 pi/2, got {tau}")
    th = 2 * np.pi * np.arange(ORBIT_NODES) / ORBIT_NODES

    def solve(e, prev):
        p, om = ((hopf_amplitude(tau) * np.cos(th), 2 * np.pi)
                 if prev is None else (prev.values, prev.period))
        x, counts = newton(_direct(_orbit_system(tau, e, p, om)),
                           np.append(p, om), NEWTON_TOL)
        p, om, spread = x[:-1], float(x[-1]), float(np.ptp(x[:-1]))
        if not spread >= ORBIT_FLAT:
            raise NoConvergence(
                f"Newton collapsed onto p = {round(p.mean())}")
        return PeriodicOrbit(tau=tau, eps=e, period=om, values=p,
                             residual=counts["residual"],
                             amplitude=0.5 * spread,
                             base=None if prev is None else prev.base or prev)

    try:
        orbit = _continue(solve, eps)[-1]
    except NoConvergence as err:
        raise NoConvergence(f"periodic-orbit {err}") from err
    crit = orbit.critical_points()
    lo, hi = orbit.delay_window_sign_changes()
    if crit != 2 or not 1 <= lo <= hi <= 2:
        raise NoConvergence(
            f"periodic-orbit Newton found an orbit that is not slowly "
            f"oscillating: {crit} critical points per period, {lo}-{hi} "
            f"sign changes per delay window (need 2 and 1-2)")
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


def _lag_taps(lag: float):
    """Row offset r0 and weights W, a 3 x (at most 5) array, of the cubic
    delayed lookups at offsets 0, 1/2 and 1 less `lag` from any row i:
    lookup j is sum_q W[j, q] z[i + r0 + q].  Each is the cubic Lagrange
    stencil on rows k-1 .. k+2 around k = floor(offset - lag), as
    `_cubic_rows` reads it, and an offset whose fraction is below 1e-12
    reads row k alone.  Every row shares the three fractions, so the
    weights are computed once and a block's lookups are sums of shifted
    row slices.  Rows no lookup weighs are left out of the window: at a
    whole lag the last would be the block's first unwritten row."""
    x = np.array([0.0, 0.5, 1.0]) - lag
    k = np.floor(x)
    f = x - k
    w = np.column_stack([-f * (f - 1) * (f - 2) / 6, (f * f - 1) * (f - 2) / 2,
                         -f * (f + 1) * (f - 2) / 2, f * (f * f - 1) / 6])
    w[f < 1e-12] = (0.0, 1.0, 0.0, 0.0)
    taps = np.zeros((3, 5))
    # 1 - lag = -lag + 1 exactly, so the offsets' k differ by 0 or 1
    for j, sh in enumerate((k - k[0]).astype(int)):
        taps[j, sh:sh + 4] = w[j]
    used = np.flatnonzero(taps.any(axis=0))
    return int(k[0]) - 1 + used[0], taps[:, used[0]:used[-1] + 1]


def _rk4_gains(ah, a1, dt):
    """Gains (G1, Gh) of one classical RK4 step of z' = a(t) z + g(t):
    z <- (1 + d) z + G1 g(t) + Gh g(t + dt/2) + dt/6 g(t + dt), with
    d = G1 a(t) + Gh a(t + dt/2) + dt/6 a(t + dt); the stages' inputs enter
    through u = a(t + dt/2) dt/2 and v = a(t + dt) dt."""
    u, v = dt / 2 * ah, dt * a1
    return (dt / 6 * (1.0 + u * (2.0 + u * (2.0 + v))),
            dt / 6 * (2.0 + (1.0 + u) * (2.0 + v)))


def _rk4_wright(la0, lah, la1, eps, dt):
    """Entries (D00, D01, D10, D11) of the RK4 increment s <- (I + D) s of
    s' = A(t) s, A = [[0, -1], [la/eps, -1/eps]], from the lag la at t,
    t + dt/2 and t + dt, on component arrays: k1 = A(t) and each later
    stage A (I + c k) has the first row -(I + c k)'s second row."""
    e = 1.0 / eps

    def stage(la, k, c):
        p00, p01, p10, p11 = 1.0 + c * k[0], c * k[1], c * k[2], 1.0 + c * k[3]
        g = la / eps
        return -p10, -p11, g * p00 - e * p10, g * p01 - e * p11

    k1 = (0.0, -1.0, la0 / eps, -e)
    k2 = stage(lah, k1, dt / 2)
    k3 = stage(lah, k2, dt / 2)
    k4 = stage(la1, k3, dt)
    return [dt / 6 * (q1 + 2 * q2 + 2 * q3 + q4)
            for q1, q2, q3, q4 in zip(k1, k2, k3, k4)]


def _scan(maps, n, compose):
    """Inclusive prefix composition, in place, of n maps m_0, ..., m_{n-1}
    held in `maps`: entry k becomes m_k o ... o m_0.  Hillis-Steele (Kogge
    & Stone 1973): round r composes every entry with the one 2^r steps
    before it, so log2 n rounds of array operations replace the n
    sequential steps.  `compose(maps, shift)` is one round."""
    shift = 1
    while shift < n:
        compose(maps, shift)
        shift *= 2
    return maps


def _compose_2x2(p, shift):
    """One round on 2x2 matrices p of shape (2, 2, steps):
    p_k <- p_k p_{k - shift}."""
    p[..., shift:] = np.einsum("ijk,jlk->ilk", p[..., shift:], p[..., :-shift])


def _compose_affine(maps, shift):
    """One round on affine maps z -> r z + F, maps = (r, F) with r of shape
    (steps,) and F (steps, z.size): (r, F)_k <- (r_k r_{k - shift},
    r_k F_{k - shift} + F_k)."""
    r, f = maps
    f[shift:] += r[shift:, None] * f[:-shift]
    r[shift:] *= r[:-shift]


def _period_map(a, b, period, tau, n_disc, steps):
    """Matrix of the time-period map of z'(t) = a(t) z(t) + b(t) z(t-tau)
    on a history mesh of n_disc+1 nodes (unit-impulse columns); `a` and `b`
    hold the coefficients at the 2*steps+1 half-step times.

    With the lagged rows L0, Lh, L1 of a step known, its RK4 step is
    z <- R z + c0 L0 + ch Lh + c1 L1 (`_rk4_gains`, the lags as the
    input).  The three lookups are one stencil of at most five rows
    (`_lag_taps`), so a step's lagged input is sum_q C_q z[i + r0 + q]
    with C = (c0, ch, c1) W.  Blocks of floor(tau/dt) - 2 steps read only
    rows written before the block, so a block's inputs are a few scaled
    row slices, and its maps z <- R z + F, the first applied to the
    block's first row, compose in one `_scan`."""
    m = n_disc + 1
    hist_s = np.linspace(-tau, 0.0, m)
    dt = period / steps
    nback = int(math.ceil(tau / dt)) + 4
    tpast = -dt * np.arange(nback)[::-1]
    z = np.zeros((nback + steps + 1, m))
    # np.interp of every unit impulse at once: a past time in mesh cell j
    # weighs nodes j and j + 1 by 1 - r and r, one before -tau node 0 alone
    # and the last, t = 0, node m - 1 alone
    j = np.clip(np.searchsorted(hist_s, tpast, side="right") - 1, 0, m - 2)
    r = np.clip((1.0 / np.diff(hist_s))[j] * (tpast - hist_s[j]), 0.0, 1.0)
    r[-1] = 1.0
    rows = np.arange(nback)
    z[rows, j], z[rows, j + 1] = 1.0 - r, r
    a0, ah, a1 = a[:-1:2], a[1::2], a[2::2]
    g1, gh = _rk4_gains(ah, a1, dt)
    rs = 1.0 + (g1 * a0 + gh * ah + dt / 6 * a1)
    r0, taps = _lag_taps(tau / dt)
    cz = np.column_stack([g1 * b[:-1:2], gh * b[1::2], dt / 6 * b[2::2]]) @ taps
    blk = int(tau / dt) - 2
    for s0 in range(0, steps, blk):
        c = cz[s0:s0 + blk]
        n, i0 = c.shape[0], nback - 1 + s0
        f = c[:, 0, None] * z[i0 + r0:i0 + r0 + n]
        for q in range(1, c.shape[1]):
            f += c[:, q, None] * z[i0 + r0 + q:i0 + r0 + q + n]
        # step 0 applied to the block's first row: its F is then that row's
        # successor, and entry k's F after the scan is row k's
        r = rs[s0:s0 + n]
        f[0] += r[0] * z[i0]
        z[i0 + 1:i0 + 1 + n] = _scan((r, f), n, _compose_affine)[1]
    out = _cubic_rows(z, (nback - 1) + (steps * dt + hist_s) / dt)
    return out, hist_s


def floquet(orbit: PeriodicOrbit, n_disc: int = 100, steps: int = 2000):
    """Floquet multipliers of the orbit's linearized period map,
    z'(t) = -p(t-tau) z(t) + (1-p(t)) z(t-tau), sorted by modulus, and the
    dominant history mode: returns (multipliers, (mesh, mode)), the mode
    scaled to sup-norm 1 on the history mesh over [-tau, 0].  The
    coefficients are p at the 2 steps + 1 half-step times and at the same
    times less tau, from one `_trig_steps`; `steps` must leave at least
    three steps per delay."""
    if orbit.eps > 0:
        raise DomainError("period-map discretization covers eps = 0 orbits")
    if n_disc < 100:
        raise DomainError(f"need n_disc >= 100, got {n_disc}")
    tau, om = orbit.tau, orbit.period
    dt = om / steps
    if not tau / dt >= 3:
        raise DomainError(
            f"need at least 3 steps per delay, got tau/dt = {tau / dt}")
    pv = _trig_steps(orbit.values, om, [-tau, 0.0], dt / 2, 2 * steps + 1)
    a, b = -pv[0], 1.0 - pv[1]
    mat, hist_s = _period_map(a, b, om, tau, n_disc, steps)
    ev, vec = np.linalg.eig(mat)
    order = np.argsort(-np.abs(ev))
    ev, vec = ev[order], vec[:, order]
    top = np.real(vec[:, 0])
    return ev, (hist_s, top / np.max(np.abs(top)))


def adjoint_periodic(orbit: PeriodicOrbit) -> np.ndarray:
    """Periodic solution of the formal adjoint
    eps v'' - v' + p(t-tau) v - (1-p(t+tau)) v(t+tau) = 0, normalized so the
    period integral of p'(t) v(t) equals 1: the left null vector of the
    `_orbit_system` Jacobian block in p at the orbit, whose transpose turns
    the collocated derivative into its negative and the delay into the
    advance.  Returns the samples (t, v) as an (n, 2) array.  A second
    singular value below ADJOINT_GAP_TOL of the largest raises
    NoConvergence."""
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
    return np.column_stack([t, v / scale])


def resonance_pairing(orbit: PeriodicOrbit) -> float:
    """Period integral of p'(t) p*(t) for the orbit's normalized adjoint p*.
    It re-evaluates on the same samples the integral `adjoint_periodic`
    divides by, so it is 1 to rounding on every orbit; only that function's
    singular-value gap and vanishing-normalization guards can fail."""
    t, v = adjoint_periodic(orbit).T
    dp = orbit.p(t, 1)
    return float(np.sum(dp * v)) * orbit.period / t.size


# -- forward integration ---------------------------------------------------

@dataclass
class Trajectory:
    """Dense forward run: times, values and the blow-up time (or None)."""

    t: np.ndarray
    y: np.ndarray
    escape_time: float | None = None


def integrate_wright(tau: float, eps: float, history, t_end: float,
                     dt: float = None, dhistory=None,
                     stop=None) -> Trajectory:
    """Method-of-steps integration of eps y'' + y' = y(t-tau)(1-y(t)) (first
    order in y for eps = 0) with classical fourth-order stepping and cubic
    delayed lookup.  `history` is called once, on the array of past mesh
    times in [-tau, 0] (a constant return value broadcasts); for eps > 0 the
    initial derivative comes from `dhistory(0)` or a finite difference.  The
    step dt must be below the delay.  Stops early with a divergence report
    when |y| exceeds WRIGHT_BLOWUP, and at the end of the first block after
    which `stop(values, dt)` is true; `values` holds y at t = 0, dt, 2 dt,
    ... up to that block's end.

    With the lag known, s = (v, w), v = 1 - y (w = y'), obeys a linear
    system, so an RK4 step is s <- (I + D) s with D in closed form
    (`_rk4_gains` for eps = 0, `_rk4_wright` for eps > 0).  The lag in
    steps is nlag up to rounding, so the lookups at offsets 0 and 1 read
    a row or nearly a row and the one at 1/2 is a 4-tap stencil
    (`_lag_taps`).  Blocks of nlag - 1 steps read only rows written before
    the block, so a block's states are prefix products of the identity and
    its maps I + D: a `cumprod` of 1 + D00 for eps = 0, a `_scan` of the
    2x2 matrices for eps > 0.  y is the running sum of y0 and the steps'
    decrements D s (the first row), since rebuilding it as 1 - v rounds
    to 1.  Overflow past the blow-up
    within a block is silenced there; the run is cut at the first step
    whose |y| exceeds WRIGHT_BLOWUP."""
    if tau <= 0 or t_end <= 0:
        raise DomainError("need tau > 0 and t_end > 0")
    if dt is None:
        dt = tau / 50.0 if eps == 0 else min(tau / 50.0, eps / 10.0)
    if not 0 < dt < tau:
        raise DomainError(f"need 0 < dt < tau, got dt={dt}, tau={tau}")
    if not (tau + t_end) / dt <= WRIGHT_MAX_STEPS:
        raise DomainError(
            f"integration over [-{tau}, {t_end}] at dt={dt} needs "
            f"{(tau + t_end) / dt:.3g} steps, more than {WRIGHT_MAX_STEPS}")
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
    r0, taps = _lag_taps(tau / dt)
    esc_t = None
    for s0 in range(0, steps, nlag - 1):
        n, i0 = min(nlag - 1, steps - s0), nback - 1 + s0
        j0 = i0 + r0
        la0, lah, la1 = taps @ np.stack([y[j0 + q:j0 + q + n]
                                         for q in range(taps.shape[1])])
        v0 = 1.0 - y[i0]
        with np.errstate(over="ignore", invalid="ignore"):
            # the states before each step of the block and after it, from
            # the prefix products of the identity and the maps I + D, and
            # each step's decrement of y, D s's first entry
            if eps == 0:
                g1, gh = _rk4_gains(-lah, -la1, dt)
                d00 = -(g1 * la0 + gh * lah + dt / 6 * la1)
                v = v0 * np.cumprod(np.append(1.0, 1.0 + d00))
                dec = d00 * v[:-1]
            else:
                d00, d01, d10, d11 = _rk4_wright(la0, lah, la1, eps, dt)
                p = np.empty((2, 2, n + 1))   # steps last, contiguous
                p[..., 0] = np.eye(2)
                p[0, 0, 1:], p[0, 1, 1:] = 1.0 + d00, d01
                p[1, 0, 1:], p[1, 1, 1:] = d10, 1.0 + d11
                p = _scan(p, n + 1, _compose_2x2)
                v, ws = p[:, 0] * v0 + p[:, 1] * w
                dec = d00 * v[:-1] + d01 * ws[:-1]
                w = ws[-1]
            # y less each step's decrement, summed in step order
            new = np.cumsum(np.append(y[i0], -dec))[1:]
            far = np.flatnonzero(~(np.abs(new) <= WRIGHT_BLOWUP))
        if far.size:
            new = new[:far[0] + 1]
            y = y[:i0 + 1 + new.size]
            y[i0 + 1:] = new
            esc_t = (s0 + new.size) * dt
            break
        y[i0 + 1:i0 + 1 + n] = new
        if stop is not None and stop(y[nback - 1:i0 + n + 1], dt):
            y = y[:i0 + n + 1]
            break
    vals = y[nback - 1:]
    tgrid = dt * np.arange(vals.size)
    return Trajectory(t=tgrid, y=vals, escape_time=esc_t)


# -- connecting orbits -----------------------------------------------------

def _zero_to_one_mesh(tau, eps, n_per_delay=CONNECT_N_PER_DELAY):
    """Growth rate z1, step h and half-width in steps of the zero-to-one
    mesh over +-max(20 tau, 12 / z1), which grows with eps as z1 falls; over
    CONNECT_MAX_NODES nodes, DomainError."""
    z1 = growth_rate(tau, eps)
    h = tau / n_per_delay
    span = max(20.0 * tau, 12.0 / z1)
    if not span <= 0.5 * (CONNECT_MAX_NODES - 1) * h:
        raise DomainError(
            f"a connection mesh over [-{span:g}, {span:g}] at step {h:g} "
            f"needs more than {CONNECT_MAX_NODES} nodes; raise tau")
    return z1, h, math.ceil(span / h)


def _connection_rows(x, f, h, eps, z1, half):
    """The zero-to-one connection's equations at x = (y_0, [w_0,] y_1,
    ..., kappa) but for the phase row's -1/2: y(-T) - kappa, [w(-T) -
    z1 kappa,] each box's rows and y(0).  They are linear in x and in the
    boxes' right-hand side f, so the residual reads f = lag (1 - y) and
    the Jacobian's product f's linearization."""
    nch = 1 if eps == 0 else 2
    ik, ih = x.size - 1, 1.0 / h
    y, kappa = x[:ik:nch], x[ik]
    r = np.empty(ik + 1)
    r[0], r[ik] = y[0] - kappa, y[half]
    pairs = [(y, f)]
    if eps > 0:
        w = x[1:ik:nch]
        r[1] = w[0] - z1 * kappa
        pairs = [(y, w), (w, (f - w) / eps)]
    # each box: the difference quotient less the trapezoid average
    for k, (u, v) in enumerate(pairs):
        r[nch + k:ik:nch] = ((-ih * u[:-1] + ih * u[1:])
                             - (0.5 * v[:-1] + 0.5 * v[1:]))
    return r


class _ConnectionJacobian:
    """The zero-to-one connection's Jacobian J (`_zero_to_one_system`)
    from the derivatives fy and fl of its boxes' f = lag (1 - y) in y_j
    and in node j's lag variable (y_{j-m}, or kappa with the tail weight
    in fl): an O(n) product `J @ x` and a solve.  a = -fy/2 and b = -fl/2
    (both over eps when eps > 0) are the coefficients of a node's last
    row.

    Node by node J is block lower triangular with a border.  Node j's rows
    hold its diagonal block D_j (the scalar 1/h + a_j at eps = 0, else
    [[1/h, -1/2], [a_j, 1/h + 1/(2 eps)]]; node 0's is the identity), a
    block on node j - 1, the lags of nodes j - m and j - 1 - m in its last
    row, and kappa's column c (y(-T) = kappa, the lags of the first m
    boxes); the phase row y(0) = 1/2 closes it.  Rows scaled by D_j^-1
    (closed form, det = (1/h)(1/h + 1/(2 eps)) + a_j / 2) leave a unit
    lower-triangular T: its local part a Fortran-ordered dtbsv band
    (kl = 1 or 3), its lag part a dgbmv band, both on vectors padded with
    a zero node in front and zero nodes up to a whole number of blocks
    behind.  z = T^-1 D^-1 c is solved once.  m must be at least 2: f2py's
    dgbmv wants at least kl + ku + 1 = 2 nch rows.

    A solve is forward substitution one delay block of m nodes at a time
    (the method of steps): the block's lag terms read finished blocks (one
    dgbmv), then one dtbsv runs from the node before the block, whose unit
    rows pass through, so the coupling to the last block is in the band.
    The border gives kappa = (u_half - r_phase) / z_half and x = u - kappa
    z.  Every array has O(n) entries."""

    def __init__(self, fy, fl, h, eps, z1, m, half):
        n = fy.size
        nch = 1 if eps == 0 else 2
        self.fy, self.fl, self.h, self.eps, self.z1 = fy, fl, h, eps, z1
        self.n, self.m, self.half, self.nch = n, m, half, nch
        a, b = -0.5 * fy, -0.5 * fl
        if eps > 0:
            a, b = a / eps, b / eps
        # padded length: the zero node in front, then whole delay blocks
        self.width = nch * (-(-n // m) * m + 1)
        ih = 1.0 / h
        self.local = np.zeros((2 * nch, self.width), order="F")
        if eps == 0:
            q = 1.0 / np.append(1.0, ih + a[1:])
            self.local[1, 1:n] = (a[:-1] - ih) * q[1:]
            # D^-1's columns, node by node: dinv[c, j] = D_j^-1 e_c
            self.dinv = q[None, :, None]
        else:
            e2 = 0.5 * (1.0 / eps)
            det = ih * (ih + e2) + 0.5 * a[1:]
            dinv = self.dinv = np.empty((2, n, 2))
            dinv[:, 0] = np.eye(2)
            dinv[0, 1:, 0], dinv[0, 1:, 1] = (ih + e2) / det, -a[1:] / det
            dinv[1, 1:, 0], dinv[1, 1:, 1] = 0.5 / det, ih / det
            # D_j^-1 times node j's block on node j - 1, entry (r, c) at
            # band row 2 + r - c of column 2 j + c
            self.local[2, 2:2 * n:2] = (0.5 * a[:-1] - (ih + e2) * ih) / det
            self.local[3, 2:2 * n:2] = ih * (a[1:] + a[:-1]) / det
            self.local[1, 3:2 * n:2] = -ih / det
            self.local[2, 3:2 * n:2] = (0.5 * a[1:] + ih * (e2 - ih)) / det
        # node k's y feeds the last rows of nodes k + m and k + m + 1
        # (D^-1 spreads them over the node), both through b_{k+m}: band
        # rows :nch and nch: of its column, for the block's window that
        # starts at node k0 - 1 - m
        dl = self.dinv[-1]
        self.lag = np.zeros((2 * nch, self.width), order="F")
        self.lag[:nch, nch:nch * (n - m) + 1:nch] = (dl[m:] * b[m:, None]).T
        self.lag[nch:, nch:nch * (n - m - 1) + 1:nch] = (
            dl[m + 1:] * b[m:-1, None]).T
        # kappa's column: the lags of boxes j - 1 and j in node j's last
        # row for j - 1 < m, node 0's boundary rows
        cl = np.zeros(n)
        cl[:m] += b[:m]
        cl[1:m + 1] += b[:m]
        z = np.zeros(self.width)
        z[nch:nch * (n + 1)] = (dl * cl[:, None]).ravel()
        z[nch:2 * nch] = (-1.0, -z1)[:nch]
        self.z = self._forward(z)

    def _forward(self, u):
        """T^-1 u in place on a padded vector, one delay block at a time."""
        nch = self.nch
        rows, kl = nch * self.m, 2 * nch - 1
        # f2py parses positional arguments in about half the time of
        # keywords: dgbmv's (incx, offx, beta, y, incy, offy, trans,
        # overwrite_y) and dtbsv's (incx, offx, lower, trans, diag,
        # overwrite_x)
        for i0 in range(0, self.width - nch, rows):
            if i0:
                dgbmv(rows, rows + nch, nch - 1, nch, -1.0,
                      self.lag[:, i0 - rows:i0 + nch], u, 1, i0 - rows, 1.0,
                      u, 1, i0 + nch, 0, 1)
            dtbsv(kl, self.local[:, i0:i0 + rows + nch], u, 1, i0, 1, 0, 1, 1)
        return u

    def solve(self, r):
        """J^-1 r."""
        nch, end = self.nch, self.nch * (self.n + 1)
        u = np.empty(self.width)
        u[:nch], u[end:] = 0.0, 0.0
        rn, s = r[:-1].reshape(-1, nch), u[nch:end].reshape(-1, nch)
        np.multiply(self.dinv[0], rn[:, :1], out=s)
        if nch == 2:
            s += self.dinv[1] * rn[:, 1:]
        self._forward(u)
        hy = nch * (self.half + 1)
        kappa = (u[hy] - r[-1]) / self.z[hy]
        return np.append(u[nch:end] - kappa * self.z[nch:end], kappa)

    def __matmul__(self, x):
        """J x: the connection's rows at x with f's linearization."""
        y, m = x[:-1:self.nch], self.m
        df = self.fy * y + self.fl * np.concatenate([np.full(m, x[-1]),
                                                     y[:-m]])
        return _connection_rows(x, df, self.h, self.eps, self.z1, self.half)


def _zero_to_one_system(tau, eps, n_per_delay=CONNECT_N_PER_DELAY, warm=None):
    """Collocation BVP for the zero-to-one connection: trapezoid boxes on a
    uniform mesh whose step divides the delay, left tail projected on the
    growth direction with free scale kappa, phase y(0) = 1/2.

    Unknowns and equations run node by node: x = (y_0, y_1, ..., kappa)
    for eps = 0 and x = (y_0, w_0, y_1, w_1, ..., kappa), w = y', for
    eps > 0; the residual holds the left boundary rows (node 0's), then
    each box's rows (its right node's), then the phase row (kappa's).  So
    the Jacobian's diagonal holds each node's own pivots, the lag y(t - tau)
    sits one band m = tau/h nodes left of it, and kappa's column reaches the
    first m boxes.  The Jacobian is a `_ConnectionJacobian` on two vectors
    in y, w and the lag, a and b, and the mesh's constants.  Returns the
    mesh, the growth rate, the starting point (the `warm` solution's
    profile interpolated, else the logistic at the growth rate) and the
    map x -> (residual, Jacobian thunk)."""
    z1, h, half = _zero_to_one_mesh(tau, eps, n_per_delay)
    n = 2 * half + 1
    tg = h * (np.arange(n) - half)
    m = n_per_delay
    nch = 1 if eps == 0 else 2
    ik = nch * n
    # node j's lag is y_{j-m}, or kappa times the growth tail for j < m
    lag_w = np.concatenate([np.exp(z1 * (tg[:m] - tau - tg[0])),
                            np.ones(n - m)])

    def system(x):
        y, kappa = x[:ik:nch], x[ik]
        la = np.concatenate([lag_w[:m] * kappa, y[:n - m]])
        r = _connection_rows(x, la * (1.0 - y), h, eps, z1, half)
        r[ik] -= 0.5
        # f's derivatives in y_j and in the lag variable (y_{j-m}, or kappa)
        return r, lambda: _ConnectionJacobian(-la, (1.0 - y) * lag_w, h, eps,
                                              z1, m, half)

    x = np.empty(ik + 1)
    x[:ik:nch] = (1.0 / (1.0 + np.exp(-z1 * tg)) if warm is None
                  else np.interp(tg, warm["t"], warm["y"]))
    if eps > 0:
        x[1:ik:nch] = np.gradient(x[:ik:nch], h)
    x[ik] = max(x[0], 1e-14)
    return tg, z1, x, system


def _solve_zero_to_one(tau, eps, warm):
    """Newton solve of the zero-to-one collocation BVP warm-started from the
    solution `warm` (or None), with a fit of the left-tail growth rate."""
    tg, z1, x, system = _zero_to_one_system(tau, eps, warm=warm)
    try:
        x, counts = newton(_direct(system), x, NEWTON_TOL)
    except NoConvergence as err:
        raise NoConvergence(f"connection {err}") from err
    y = x[:-1:1 if eps == 0 else 2]
    sel = (y > 1e-8) & (y < 1e-3)
    rate = float(np.polyfit(tg[sel], np.log(y[sel]), 1)[0]) if sel.sum() > 5 else math.nan
    return {"eps": eps, "t": tg, "y": y, "kappa": float(x[-1]),
            "decay_rate": rate, "rate_target": z1, **counts}


def _settle_test(tau):
    """Stop test for `integrate_wright` on a run toward y = 1: true once
    |y - 1| < P2P_SETTLE_TOL over the last P2P_SETTLE_DELAYS delays and
    < P2P_FIT_FLOOR over the last delay.  It keeps the last index at or
    above each bound, so a call reads only the values new since the last."""
    last = [-1, -1]
    seen = 0

    def stop(y, dt):
        nonlocal seen
        dev = np.abs(y[seen:] - 1.0)
        for j, bound in enumerate((P2P_SETTLE_TOL, P2P_FIT_FLOOR)):
            far = np.flatnonzero(dev >= bound)
            if far.size:
                last[j] = seen + int(far[-1])
        seen = y.size
        t_end = dt * (y.size - 1)
        return (dt * last[0] < t_end - P2P_SETTLE_DELAYS * tau
                and dt * last[1] < t_end - tau)

    return stop


def zero_to_one(tau: float, eps: float = 0.0) -> list:
    """Zero-to-one connections along the eps-ladder of `_continue`, each
    warm-started from the rung below; returns the rungs, the last at eps."""
    if tau <= 0:
        raise DomainError(f"connecting orbits need tau > 0, got tau={tau}")
    # the target rung has the largest mesh: refuse it before the climb
    if 0 <= eps < math.inf:
        _zero_to_one_mesh(tau, eps)
    return _continue(lambda e, warm: _solve_zero_to_one(tau, e, warm), eps)


def periodic_to_point(tau: float, eps: float = 0.0) -> dict:
    """Periodic-to-point connection: forward runs from the orbit perturbed
    along its dominant history mode, both perturbation signs tried, until y
    settles at 1.  A run stops by `_settle_test`, about one delay after
    |y - 1| falls below P2P_FIT_FLOOR, or at P2P_T_MAX.  The approach rate
    to 1, `decay_rate`, is nan below 11 fit points."""
    if tau <= 0:
        raise DomainError(f"connecting orbits need tau > 0, got tau={tau}")
    if not eps <= 0.25:
        raise DomainError(f"periodic-to-point needs eps <= 1/4 (speed c >= 2), "
                          f"got eps={eps}")
    orbit = find_periodic(tau, eps)
    _, (hist_s, mode) = floquet(orbit.base or orbit)
    for sign in (+1.0, -1.0):
        def hist(s, sign=sign):
            return (_trig_past(orbit.values, orbit.period, s)
                    + sign * P2P_DELTA * np.interp(s, hist_s, mode))

        traj = integrate_wright(tau, eps, hist, P2P_T_MAX,
                                dhistory=lambda s: orbit.p(s, 1),
                                stop=_settle_test(tau))
        # settle time: the last time |y - 1| >= P2P_SETTLE_TOL; the run has
        # settled at 1 if that is before its last P2P_SETTLE_DELAYS delays
        dev = np.abs(traj.y - 1.0)
        far = np.flatnonzero(dev >= P2P_SETTLE_TOL)
        t_settle = float(traj.t[far[-1]]) if far.size else 0.0
        if traj.escape_time is not None:
            err = f"sign {sign:+.0f} diverged at t={traj.escape_time}"
        elif far.size and t_settle >= traj.t[-1] - P2P_SETTLE_DELAYS * tau:
            err = f"sign {sign:+.0f} did not settle at 1 within t={P2P_T_MAX}"
        else:
            # the linearized slow rate is the larger root of
            # eps r^2 + r + 1 = 0, c f(c, -1) at c = 1/sqrt(eps) (-1 at eps 0)
            fit = (traj.t > t_settle) & (dev > P2P_FIT_FLOOR)
            rate = (float(np.polyfit(traj.t[fit], np.log(dev[fit]), 1)[0])
                    if fit.sum() > 10 else math.nan)
            return {"eps": eps, "t": traj.t, "y": traj.y, "orbit": orbit,
                    "delta": sign * P2P_DELTA, "settle_time": t_settle,
                    "decay_rate": rate,
                    "rate_target": -2.0 / (1.0 + math.sqrt(1.0 - 4.0 * eps))}
    raise NoConvergence(f"periodic-to-point run failed: {err}")


def semiwave(tau: float, c: float, proper: bool = False):
    """Semi-wavefront of K = delta(s + tau c) at speed c: the delay
    equation's connection at eps = 1/c^2 (`periodic_to_point` if `proper`,
    else the last rung of `zero_to_one`) as phi(t) = 1 - y(-t/c); returns
    (solution, profile).  phi leaves 0 at lam(c) = quad_roots(c)[0] and
    continues right of its grid as 1, or as the orbit's tail of period
    c * (orbit period).  Refused below c = 2 (the zero-to-one profile goes
    negative, and periodic-to-point needs eps <= 1/4) and where 1/c^2
    rounds to 0."""
    if not c >= 2:
        raise DomainError("semiwave needs --c >= 2, i.e. eps <= 1/4 with "
                          f"eps = 1/c^2, got c={c}")
    eps = 1.0 / (c * c)
    if eps == 0:
        raise DomainError("the eps = 0 connection has no finite wave speed")
    sol = periodic_to_point(tau, eps) if proper else zero_to_one(tau, eps)[-1]
    phi_t = -c * sol["t"][::-1]
    if proper:
        period = c * sol["orbit"].period
        s = np.linspace(0.0, period, 257)
        tail = {"tail_mesh": 1.0 - sol["orbit"].p(-s / c),
                "tail_period": period}
    else:
        tail = {"right_limit": 1.0}
    return sol, Profile(float(phi_t[0]), float(phi_t[1] - phi_t[0]),
                        1.0 - sol["y"][::-1], left_limit=0.0,
                        left_rate=quad_roots(c)[0], **tail)
