"""Wave-profile construction: closed-form upper/lower solutions, the
integral fixed-point operator between them (a 3-tap right-hand side and
its two exponential recurrences as two unit-diagonal BLAS band solves, on
one per-grid `_SumOperator`), the Newton-Krylov front solver (the
package's one Newton loop, `solver.newton`, on `_FrontSystem`'s equations
and their GMRES solve; started from a coarse damped Picard front where
the front oscillates), residual diagnostics, and the piecewise toy model's
three fronts as closed forms with their report (`toy_fronts`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import DomainError, InvariantViolation, NoConvergence
from .kernels import Kernel, convolve, exp_moment, stencil
from .solver import dgttrf, dgttrs, dtbsv, newton
from .spectral import f_func, monotone_front_root, quad_roots, toy_steady_roots
from .regimes import wave_constants


# -- profile container -----------------------------------------------------

class Profile:
    """Grid values with declared asymptotic tails.

    The tails are data for the grid operators that realize them
    (`kernels.convolve`, `_two_sided_sum`): left of the grid the
    profile is left_limit + (v[0] - left_limit) e^{left_rate (t - t0)} when
    left_rate is set, else the constant left_limit; right of it, periodic by
    `tail_mesh` (one period, uniform) when `tail_period` is given, else the
    constant right_limit (the last value if None).  No solver evaluates a
    profile between or beyond its grid points.
    """

    def __init__(self, t0, dt, values, left_limit=0.0, right_limit=None,
                 tail_mesh=None, tail_period=None, left_rate=None):
        self.t0 = float(t0)
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 5:
            raise DomainError("profile needs at least 5 grid values")
        if (tail_mesh is None) != (tail_period is None) or not (
                tail_period is None or tail_period > 0):
            raise DomainError("a periodic tail needs both tail_mesh and "
                              "tail_period > 0")
        self.left_limit = left_limit
        self.right_limit = right_limit
        self.tail_mesh = None if tail_mesh is None else np.asarray(tail_mesh, float)
        self.tail_period = tail_period
        self.left_rate = left_rate
        self.diagnostics = {}

    @property
    def grid(self):
        return self.t0 + self.dt * np.arange(self.values.size)


@dataclass(frozen=True)
class WaveContext:
    """Speed c with its rates and solver constants; U(c, K), beta (derived
    unless given) and b come from `regimes.wave_constants`, so a U(c, K)
    that overflows, or a beta it refuses, raises when the context is built."""

    c: float
    kernel: Kernel
    beta: float = None
    U: float = field(init=False)
    b: float = field(init=False)
    lam: float = field(init=False)
    mu: float = field(init=False)
    z1: float = field(init=False)
    z2: float = field(init=False)
    z12: float = field(init=False)

    def __post_init__(self):
        lam, mu = quad_roots(self.c)
        U, beta, b = wave_constants(self.c, self.kernel, self.beta)
        z1 = -f_func(self.c, b)
        z2 = self.c - z1
        for name, value in dict(U=U, beta=beta, b=b, lam=lam, mu=mu, z1=z1,
                                z2=z2, z12=z2 - z1).items():
            object.__setattr__(self, name, value)


def g_beta(u, beta: float):
    """Piecewise-linear saturation: identity on [0, beta], descending to 0,
    as min(u, max(0, 2 beta - u)) in three passes."""
    u_arr = np.asarray(u, dtype=float)
    out = np.subtract(2.0 * beta, u_arr, out=np.empty(u_arr.shape))
    np.maximum(out, 0.0, out=out)
    np.minimum(u_arr, out, out=out)
    return float(out) if out.ndim == 0 else out


# largest front grid, in steps; the tests, workloads and scripts stay below
# 10^5
MAX_FRONT_GRID = 10 ** 6


def default_grid(ctx: WaveContext, dt: float = 0.02):
    """Front grid [-40/lam, 40 + 8 * kernel radius] at step dt, as
    (t_lo, dt, n); dt <= 0 or more than MAX_FRONT_GRID steps raise
    DomainError."""
    lam = ctx.lam
    lo, hi = ctx.kernel.support()
    rad = max(abs(lo), abs(hi))
    t_lo = -40.0 / lam
    t_hi = 40.0 + 8.0 * rad
    if not dt > 0:
        raise DomainError(f"front grid needs dt > 0, got dt={dt}")
    steps = (t_hi - t_lo) / dt
    if not steps <= MAX_FRONT_GRID:
        raise DomainError(
            f"front grid of {steps:.3g} steps exceeds {MAX_FRONT_GRID} at "
            f"c={ctx.c}, dt={dt}; raise dt")
    return t_lo, dt, int(math.ceil(steps)) + 1


# -- closed-form upper front ----------------------------------------------

def kpp_upper_front(ctx: WaveContext, dt: float = 0.02) -> Profile:
    """Monotone front of phi'' - c phi' + g_beta(phi) = 0, connecting 0 to
    2 beta, in closed form.

    Below the junction the profile is e^{lam t} - C e^{mu t} (or (a-t)e^t at
    c = 2); above it 2 beta - D e^{nu t} with nu the negative root of
    z^2 - c z - 1 = 0.  C^1 matching fixes all constants.
    """
    c, beta, lam, mu = ctx.c, ctx.beta, ctx.lam, ctx.mu
    nu = -f_func(c, 1.0)
    t_lo, dt, n = default_grid(ctx, dt)
    t = t_lo + dt * np.arange(n)
    if mu - lam > 1e-10:
        eT = beta * (mu + nu) / (mu - lam)
        T = math.log(eT) / lam
        # C e^{mu t} = (eT - beta) e^{mu (t - T)}: e^{mu T} alone overflows
        # when U(c, K), and so beta, is large
        tm = np.minimum(t, T)
        low = np.exp(lam * tm) - (eT - beta) * np.exp(mu * (tm - T))
    else:
        # c = 2: lam = mu = 1, front (a - t) e^t below the junction
        T = math.log(beta * (1.0 + nu))
        a = T + beta * math.exp(-T)
        tm = np.minimum(t, T)
        low = (a - tm) * np.exp(tm)
    D = beta * math.exp(-nu * T)
    vals = np.where(t <= T, low, 2.0 * beta - D * np.exp(nu * t))
    prof = Profile(t_lo, dt, vals, left_limit=0.0, right_limit=2.0 * beta,
                   left_rate=lam)
    prof.diagnostics.update({"junction": T, "monotone": True})
    return prof


def lower_solution(ctx: WaveContext, upper: Profile) -> Profile:
    """Lower solution max{0, e^{lam t}(1 - M e^{eps t})} on the grid of
    `upper`, for c > 2 (lam < mu).  eps = min(lam, mu - lam)/2 and
    M = max(2 M_min, 1.5, 1.05 M_geom) meet the admissibility inequalities
    0 < eps < lam, lam + eps < mu and M >= M_min by construction."""
    c, lam, mu = ctx.c, ctx.lam, ctx.mu
    if mu - lam <= 1e-10:
        raise DomainError("lower solution ansatz needs c > 2 (lam < mu)")
    eps = min(lam / 2.0, (mu - lam) / 2.0)
    tg = upper.grid
    L = float(np.max(upper.values * np.exp(-eps * tg)))
    chi = (lam + eps) ** 2 - c * (lam + eps) + 1.0  # = eps*(lam+eps-mu) < 0
    M_min = L * exp_moment(ctx.kernel, -eps, "both") / (-chi)
    # M_geom: phi_minus <= phi_plus pointwise, and vanishing before t = 0
    ratio = (1.0 - upper.values * np.exp(-lam * tg)) * np.exp(-eps * tg)
    M = max(2.0 * M_min, 1.5, 1.05 * float(np.max(ratio)))
    vals = np.maximum(0.0, np.exp(lam * tg) * (1.0 - M * np.exp(eps * tg)))
    prof = Profile(upper.t0, upper.dt, vals, left_limit=0.0, right_limit=0.0,
                   left_rate=lam)
    prof.diagnostics.update({"eps": eps, "M": M, "M_min": M_min,
                             "vanish_after": -math.log(M) / eps})
    return prof


# -- the integral fixed-point operator ------------------------------------

def _exp_weights(z: float, h: float):
    """Closed-form cell integrals int_0^h e^{z(h-u)} (1, u/h) du."""
    ezh = math.exp(z * h)
    J0 = (ezh - 1.0) / z
    J1 = (h * (ezh - 1.0) / z - (ezh * (z * h - 1.0) + 1.0) / (z * z)) / h
    return J0, J1


class _CellWeights(NamedTuple):
    """Constants of the two one-step recurrences on a grid of step h: the
    factors E1 = e^{z1 h}, E2 = e^{-z2 h} and the weights of a linear cell's
    end values r[i], r[i+1] in its forward (q) and backward (p) integral."""

    z1: float
    z2: float
    E1: float
    q0: float
    q1: float
    E2: float
    p0: float
    p1: float


def _cell_weights(z1: float, z2: float, h: float) -> _CellWeights:
    J0, J1 = _exp_weights(z1, h)
    # int_0^h e^{-z2 u} r du is the e^{z(h-u)} form with z = -z2 and the
    # cell reversed (u -> h - u), which swaps the roles of the endpoints
    J0b, J1b = _exp_weights(-z2, h)
    return _CellWeights(z1, z2, math.exp(z1 * h), J0 - J1, J1,
                        math.exp(-z2 * h), J1b, J0b - J1b)


class _SumOperator:
    """What `_two_sided_sum` needs on a grid of n points, built once: the
    cell weights w, the taps t0, t1, t2 of the interior right-hand side,
    and the factors of (1 - E1 Z^-)(1 - E2 Z^+) as dtbsv bands, Z^-/Z^+
    the shifts to the previous/next point.  L is unit lower bidiagonal
    with -E1 below its diagonal and U unit upper bidiagonal with -E2 above
    it; between the two solves the last entry is divided by 1 - E1 E2.
    The bands are Fortran-ordered (2, n) arrays, since f2py copies any
    other layout on every call.  `lift_taps` is the interior row of
    z12 (1 - E1 Z^-)(1 - E2 Z^+), for `_FrontSystem.lift`.  Fewer than 3
    points raise DomainError: the stencil has no interior row, and
    np.correlate swaps its arguments when the signal is shorter than the
    taps."""

    def __init__(self, w: _CellWeights, n: int):
        if n < 3:
            raise DomainError(f"the integral operator needs a grid of at "
                              f"least 3 points, got {n}")
        E1, E2 = w.E1, w.E2
        self.w, self.n = w, n
        self.taps = np.array([w.q0 - E1 * w.p0,
                              w.q1 - E2 * w.q0 + w.p0 - E1 * w.p1,
                              w.p1 - E2 * w.q1])
        self.lower = np.ones((2, n), order="F")
        self.lower[1, :-1] = -E1
        self.upper = np.ones((2, n), order="F")
        self.upper[0, 1:] = -E2
        self.lift_taps = (w.z2 - w.z1) * np.array([-E1, 1.0 + E1 * E2, -E2])


def _two_sided_sum(r: np.ndarray, r_left: float, r_right: float,
                   op: _SumOperator, left_rate: float = None):
    """S = I_minus + I_plus on a uniform grid of piecewise-linear r, with
    I_minus(t_i) = int_{-inf}^{t_i} e^{z1(t_i-s)} r(s) ds and
    I_plus(t_i) = int_{t_i}^{inf} e^{z2(t_i-s)} r(s) ds, on the grid's
    `_SumOperator` op.

    Each integral is an exact one-step recurrence, forward
    I_minus[i] = E1 I_minus[i-1] + Q[i] and backward
    I_plus[i] = E2 I_plus[i+1] + P[i], with Q[i] = q0 r[i-1] + q1 r[i] and
    P[i] = p0 r[i] + p1 r[i+1] the closed-form cell integrals.  So
    (1 - E1 Z^-)(1 - E2 Z^+) S = f, f[i] = Q[i] - E2 Q[i+1] + P[i]
    - E1 P[i-1] = t0 r[i-1] + t1 r[i] + t2 r[i+1] but for the end rows,
    which carry the tail integrals I_minus[0] and I_plus[n-1]: two dtbsv
    solves on the known factors run both recurrences.  The left tail is
    r(t0) e^{left_rate (s - t0)} when a rate is given (decaying profile),
    else the constant r_left; the right tail is the constant r_right."""
    w = op.w
    E1, E2 = w.E1, w.E2
    if left_rate is not None:
        im0 = r[0] / (left_rate - w.z1)
    else:
        im0 = r_left / (-w.z1)
    ip_last = r_right / w.z2
    d = 1.0 - E1 * E2
    f = np.empty(r.size)
    f[1:-1] = np.correlate(r, op.taps, "valid")
    f[0] = d * im0 + (w.p0 - E2 * w.q0) * r[0] + op.taps[2] * r[1]
    f[-1] = op.taps[0] * r[-2] + (w.q1 - E1 * w.p1) * r[-1] + d * ip_last
    f = dtbsv(1, op.lower, f, lower=1, diag=1, overwrite_x=1)
    f[-1] /= d
    return dtbsv(1, op.upper, f, diag=1, overwrite_x=1)


def _constant_r(phi_val: float, ctx: WaveContext) -> float:
    """r at a constant profile value (a tail limit), in float arithmetic."""
    phi_val = float(phi_val)
    return ctx.b * phi_val + g_beta(phi_val, ctx.beta) * (1.0 - phi_val)


def am_core(vals: np.ndarray, conv: np.ndarray, phi_left: float,
            phi_right: float, ctx: WaveContext, op: _SumOperator,
            left_rate: float = None) -> np.ndarray:
    """Apply the operator to raw arrays given the precomputed convolution
    and the grid's `_SumOperator` on the cell weights
    `_cell_weights(ctx.z1, ctx.z2, h)`."""
    r = 1.0 - conv
    r *= g_beta(vals, ctx.beta)
    r += ctx.b * vals
    S = _two_sided_sum(r, _constant_r(phi_left, ctx),
                       _constant_r(phi_right, ctx), op,
                       left_rate=left_rate)
    S /= ctx.z12
    return S


def _grid_conv(phi: Profile, k: Kernel):
    """K * phi on the grid of phi, with its tails; returns it together with
    the constant limits (the end values where no limit is declared)."""
    if phi.tail_period is not None:
        raise DomainError("the grid convolution needs a constant right tail")
    left = phi.left_limit
    right = phi.right_limit if phi.right_limit is not None else phi.values[-1]
    conv = convolve(stencil(k, phi.dt), phi.values, left, right,
                    left_rate=phi.left_rate)
    return conv, left, right


def am_apply(phi: Profile, ctx: WaveContext) -> Profile:
    """One application of the integral operator
    (A phi)(t) = (1/z12)[int_-inf^t e^{z1(t-s)} r(phi)(s) ds
                       + int_t^inf e^{z2(t-s)} r(phi)(s) ds],
    r(phi) = b phi + g_beta(phi)(1 - K*phi); fixes the constants 0, 1, 2b."""
    if np.any(phi.values < -1e-12) or np.any(phi.values > 2 * ctx.beta + 1e-9):
        raise DomainError("operator input must satisfy 0 <= phi <= 2 beta")
    conv, phi_left, phi_right = _grid_conv(phi, ctx.kernel)
    rate = phi.left_rate if (phi.left_rate is not None and phi_left == 0.0) else None
    w = _cell_weights(ctx.z1, ctx.z2, phi.dt)
    out = am_core(phi.values, conv, phi_left, phi_right, ctx,
                  _SumOperator(w, phi.values.size), left_rate=rate)
    new_left = _constant_r(phi_left, ctx) / ctx.b
    new_right = _constant_r(phi_right, ctx) / ctx.b
    return Profile(phi.t0, phi.dt, out, left_limit=new_left,
                   right_limit=new_right, left_rate=phi.left_rate)


# -- residual --------------------------------------------------------------

def residual(phi: Profile, c: float, k: Kernel) -> float:
    """Sup-norm defect of phi'' - c phi' + phi (1 - K*phi) = 0 on the
    interior grid, with centered second-order differences."""
    v = phi.values
    h = phi.dt
    conv, _, _ = _grid_conv(phi, k)
    d1 = (v[2:] - v[:-2]) / (2 * h)
    d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    res = d2 - c * d1 + v[1:-1] * (1.0 - conv[1:-1])
    return float(np.max(np.abs(res)))


# -- front solvers ---------------------------------------------------------

PICARD_MAX_ITER = 5000
PICARD_RELAX = 0.9
# update size at which the coarse Picard start of an oscillating front hands
# over to Newton-Krylov.  On K = delta(s - 5), c = 2.5, dt 0.005 the start
# takes 390 sweeps at step 2 dt and beta 4 (1,130 at the default beta
# 13.18); at the default beta, Newton also converges from the 1,067 sweeps
# of tol 5e-2, but its first step fails from the 1,031 of tol 1e-1
START_TOL = 1e-2
# first rung of the start's beta ladder START_BETA 2^k, capped at ctx.beta.
# A Picard sweep is a pseudo-time step of about 0.9 / b, b = 2 beta + 3, and
# the start wears the upper front's 2 beta plateau down to the front, so a
# small beta takes fewer sweeps; a front that oscillates up to 3.22
# (delta(s - 5), c = 2.5) starts at beta 4
START_BETA = 4.0


def solve_front(ctx: WaveContext, tol: float = 1e-9,
                dt: float = 0.0025) -> Profile:
    """Front at speed ctx.c, translated so phi(0) = 1/2.

    Newton-Krylov solves for every front.  Where the paper's criterion
    finds a monotone front (a negative root of
    z^2 - c z - int K(s) e^{-zs} ds), it starts from min(upper, 1).
    Elsewhere the front oscillates about 1, and it starts from the Picard
    front at tolerance START_TOL, resampled onto the grid of step dt by
    linear interpolation.  That start runs on the ladder
    beta_k = min(START_BETA 2^k, ctx.beta) at step 2 dt, and at step dt
    from the first start that escapes its envelope on.
    A start that peaks above its beta_k, where g_beta is not the identity,
    climbs to the next rung; the last rung, ctx.beta, is taken as it is.
    Any other start failure raises at once, with its rung's reason.  Newton
    solves at ctx.beta, so the front does not depend on the rung.
    diagnostics["iterations"] counts the sweeps of every start that
    returned, and diagnostics["start_beta"] is the rung taken (None for a
    monotone front).  A start or Newton solve that fails raises
    NoConvergence or InvariantViolation.
    """
    root, _ = monotone_front_root(ctx.c, ctx.kernel)
    upper = kpp_upper_front(ctx, dt)
    sweeps, beta = 0, None
    if root is not None:
        start = np.minimum(upper.values, 1.0)
    else:
        beta, h = min(START_BETA, ctx.beta), 2.0 * dt
        while True:
            try:
                coarse = picard_front(
                    WaveContext(ctx.c, ctx.kernel, beta=beta), START_TOL, h)
            except InvariantViolation:
                if h == dt:
                    raise
                h = dt  # the start escapes its envelope at coarse steps
                continue
            sweeps += coarse.diagnostics["iterations"]
            if beta == ctx.beta or coarse.values.max() <= beta:
                break
            beta = min(2.0 * beta, ctx.beta)
        # the coarse grid starts where the fine one does, so fine point i
        # sits at coarse offset dt i; past the coarse end np.interp holds
        # the last value, as the front's constant right tail does
        start = np.interp(dt * np.arange(upper.values.size),
                          h * np.arange(coarse.values.size), coarse.values)
    vals, stats = _newton_front(ctx, start, dt, tol,
                                monotone=root is not None)
    return _front_profile(ctx, upper, vals, {
        "solver": "newton-krylov", "iterations": sweeps,
        "start_beta": beta, **stats})


def picard_front(ctx: WaveContext, tol: float = 1e-9,
                 dt: float = 0.0025) -> Profile:
    """Damped Picard iteration on the integral operator, started from the
    closed-form upper front; converged output is translated so phi(0) = 1/2.
    It iterates `_FrontSystem.apply`, Newton-Krylov's operator, as the
    oscillating front's start and the tests' reference.

    The discrete operator carries an O(dt^2) bias along the neutral
    translation mode, so the iteration is also stopped once the update size
    stagnates at a small value (steady sub-grid drift, not divergence).
    """
    upper = kpp_upper_front(ctx, dt)
    h = upper.dt
    system = _FrontSystem(ctx, h)
    vals = upper.values.copy()
    # the order interval [lower, upper] with a mixed tolerance: the sub-grid
    # translation drift produces tiny relative excursions past the
    # closed-form envelopes
    envelope = None
    if ctx.mu - ctx.lam > 1e-10:
        lower = lower_solution(ctx, upper)
        envelope = (upper.values * 1.005 + 1e-6,
                    lower.values * 0.995 - 1e-6)
    # the discrete operator drifts along the neutral translation mode, so the
    # update size plateaus at a small positive value, about 2.5e-3 dt^2;
    # detect the plateau with a 200-iteration improvement window (robust to
    # oscillatory decay) and accept it below a limit that scales with dt^2
    plateau = max(1e-6, 0.01 * h * h)
    diff_hist = []
    where = f"Picard iteration at beta={ctx.beta:g}, dt={h:g}"
    for it in range(PICARD_MAX_ITER):
        new = system.apply(vals)
        new *= PICARD_RELAX
        new += (1.0 - PICARD_RELAX) * vals
        step = new - vals
        diff = float(np.max(np.abs(step, out=step)))
        if envelope is not None and (np.any(new > envelope[0])
                                     or np.any(new < envelope[1])):
            raise InvariantViolation(
                f"{where} escaped the [lower, upper] order interval at "
                f"sweep {it + 1}")
        vals = new
        if diff < tol:
            break
        diff_hist.append(diff)
        if (it >= 200 and diff < 10.0 * plateau
                and diff > 0.9 * diff_hist[it - 200]):
            if diff < plateau:
                break
            raise NoConvergence(
                f"{where} stagnated at diff={diff} (tol={tol}) at sweep "
                f"{it + 1}")
    else:
        raise NoConvergence(
            f"{where} did not reach tol={tol} in {PICARD_MAX_ITER} sweeps; "
            f"last diff={diff}")
    return _front_profile(ctx, upper, vals, {
        "solver": "picard", "iterations": it + 1, "last_diff": diff})


def _monotone(v: np.ndarray) -> bool:
    """Nondecreasing to rounding: diagnostics["monotone"] and Newton's check."""
    return bool(np.all(np.diff(v) > -1e-10))


def _front_profile(ctx: WaveContext, upper: Profile, vals: np.ndarray,
                   diagnostics: dict) -> Profile:
    """The solved grid values on the upper front's grid as a Profile,
    translated so phi(0) = 1/2 (first upward crossing), with the tail
    extremes, monotonicity and residual added to `diagnostics`."""
    h = upper.dt
    tg = upper.t0 + h * np.arange(vals.size)
    above = np.nonzero(vals >= 0.5)[0]
    if above.size == 0:
        raise NoConvergence("converged profile never reaches 1/2")
    i = above[0]
    if i == 0:
        t_half = tg[0]
    else:
        f0, f1 = vals[i - 1], vals[i]
        t_half = tg[i - 1] + h * (0.5 - f0) / (f1 - f0)
    prof = Profile(upper.t0 - t_half, h, vals, left_limit=0.0,
                   right_limit=float(vals[-1]), left_rate=ctx.lam)
    tail = vals[2 * vals.size // 3:]
    prof.diagnostics.update(diagnostics)
    prof.diagnostics.update({
        "monotone": _monotone(vals),
        "p": float(tail.min()), "P": float(tail.max()),
        "residual_sup": residual(prof, ctx.c, ctx.kernel),
    })
    return prof


# GMRES's relative tolerance per Newton step (Eisenstat & Walker 1996,
# choice 2): GMRES_ETA_MAX at the first step, then
# 0.9 (res_k / res_{k-1})^2 clamped to [GMRES_RTOL, GMRES_ETA_MAX], with
# res the max|G| the step linearizes at.  So a step far from the front is
# solved only as far as its Newton step can use, and the last steps are
# solved to the floor GMRES_RTOL.  A cap of 3e-2 or 1e-1 costs delta(s - 5),
# c 2.05, dt 0.01 a fourth Newton step and moves the delta(s - 5), c 2.5
# front by over 1e-12; so does a floor raised to 0.5 tol / res.  The floor:
# the reference fronts and the c = 14.14, K = delta(s + 68) front take 4
# Newton steps at every fixed rtol from 1e-4 to 1e-8.  Restart length and
# cycles: the GMRES basis is restart + 1 grid vectors, restart 30 raised
# the benchmark's peak RSS by 12%, and 10 is as fast on the reference fronts
GMRES_RTOL = 1e-6
GMRES_ETA_MAX = 1e-2
GMRES_RESTART = 10
GMRES_MAX_CYCLES = 20


def _g_prime(v, beta: float):
    """Derivative of g_beta (one-sided at the kinks beta and 2 beta)."""
    return np.where(v <= beta, 1.0, np.where(v <= 2.0 * beta, -1.0, 0.0))


class _FrontSystem:
    """The front's grid operator A on a grid of step h, with its stencil
    and cell weights built once and its `_SumOperator` built at the first
    vector (again when the grid size changes), and the Newton-Krylov
    equations on it."""

    def __init__(self, ctx: WaveContext, h: float):
        self.ctx = ctx
        self.st = stencil(ctx.kernel, h)
        self.w = _cell_weights(ctx.z1, ctx.z2, h)
        self.op = None
        # per Newton step: GMRES's residual norms, and its rtol
        self.gmres_trace, self.gmres_rtols = [], []
        self._res = None  # max|G| at the last linearization

    def tridiagonal(self, rp):
        """(sub, diag, super) of P = z12 L1 L2 - (L2 R1 + L1 R2) diag(rp).

        L1 I_minus = R1 r and L2 I_plus = R2 r are the operator's
        recurrences, so A r = (L1^-1 R1 + L2^-1 R2) r / z12: L1 is lower
        bidiagonal (1, -E1; row 0 lam - z1), R1 lower (q1, q0; row 0 1), L2
        upper (1, -E2; last row z2), R2 upper (p0, p1; last row 1).  Up to
        a rank-2 corner term, z12 L1 L2 (I - A R') = P for R' = diag(rp).
        The products are constant but for their first and last rows: the
        interior rows are the `_SumOperator`'s `lift_taps` less its `taps`
        times R'.
        """
        w, z12 = self.w, self.ctx.z12
        E1, E2, q0, q1, p0, p1 = w.E1, w.E2, w.q0, w.q1, w.p0, w.p1
        a0, z2 = self.ctx.lam - w.z1, w.z2
        op = self._sums(rp.size)
        lift, taps = op.lift_taps, op.taps
        sub = lift[0] - taps[0] * rp[:-1]
        diag = lift[1] - taps[1] * rp
        sup = lift[2] - taps[2] * rp[1:]
        sub[-1] = lift[0] - (z2 * q0 - E1 * p0) * rp[-2]
        diag[0] = z12 * a0 - (1.0 - E2 * q0 + a0 * p0) * rp[0]
        diag[-1] = (z12 * (z2 + E1 * E2)
                    - (z2 * q1 + 1.0 - E1 * p1) * rp[-1])
        sup[0] = -z12 * a0 * E2 - (a0 * p1 - E2 * q1) * rp[1]
        return sub, diag, sup

    def _conv(self, v):
        return convolve(self.st, v, 0.0, v[-1], left_rate=self.ctx.lam)

    def _sums(self, n):
        if self.op is None or self.op.n != n:
            self.op = _SumOperator(self.w, n)
        return self.op

    def apply(self, v):
        """A(v) with the front's tails: e^{lam t} decay to 0 on the left,
        the constant v[-1] on the right."""
        return am_core(v, self._conv(v), 0.0, v[-1], self.ctx,
                       self._sums(v.size), left_rate=self.ctx.lam)

    def equations(self, x, i0):
        """G(v, sigma) = v - A(v) - sigma e_0 and its linearization for
        `newton`, in the unknowns' layout: x holds v with sigma in slot i0,
        where v[i0] = 1/2 is pinned.  G is a function of x alone.  A
        linearization solves by preconditioned GMRES to the forcing term
        eta, set from its max|G| and the previous linearization's (see
        GMRES_RTOL), and appends eta to `gmres_rtols` and GMRES's trace to
        `gmres_trace`."""
        v = x.copy()
        v[i0] = 0.5
        G = v - self.apply(v)
        G[0] -= x[i0]

        def linearize():
            # the front is scipy.sparse's one user: loaded at its first solve
            from scipy.sparse.linalg import LinearOperator, gmres
            res, last = float(np.max(np.abs(G))), self._res
            self._res = res
            eta = GMRES_ETA_MAX if last is None else min(
                GMRES_ETA_MAX, max(GMRES_RTOL, 0.9 * (res / last) ** 2))
            # a declared dtype spares scipy a probe product of each on zeros
            a, m = (LinearOperator((v.size,) * 2, matvec=f, dtype=float)
                    for f in self.linearize(v, i0))
            trace = []
            self.gmres_trace.append(trace)
            self.gmres_rtols.append(eta)

            def solve(r):
                step, info = gmres(a, r, rtol=eta, atol=0.0, M=m,
                                   restart=GMRES_RESTART,
                                   maxiter=GMRES_MAX_CYCLES,
                                   callback=trace.append,
                                   callback_type="pr_norm")
                if info != 0:
                    raise NoConvergence(
                        f"GMRES did not reach rtol={eta:.3g} in "
                        f"Newton-Krylov step {len(self.gmres_trace)}")
                return step

            return solve

        return G, linearize

    def lift(self, y):
        """z12 L1 L2 y: the 3-tap stencil z12 (-E1, 1 + E1 E2, -E2) of the
        `_SumOperator` but for the end rows, z12 (lam - z1)(y[0] - E2 y[1])
        and z12 (z2 y[-1] - E1 (y[-2] - E2 y[-1]))."""
        w, z12 = self.w, self.ctx.z12
        t = np.empty(y.size)
        t[1:-1] = np.correlate(y, self._sums(y.size).lift_taps, "valid")
        t[0] = (y[0] - w.E2 * y[1]) * (self.ctx.lam - w.z1) * z12
        t[-1] = (w.z2 * y[-1] - w.E1 * (y[-2] - w.E2 * y[-1])) * z12
        return t

    def linearize(self, v, i0):
        """(u -> J u, y -> M y) at v with v[i0] pinned: the exact
        Jacobian-vector product and the preconditioner, both in the
        unknowns' layout (sigma at i0).  M lifts y by z12 L1 L2 and solves
        P_s (P with the sigma column in place of column i0) by its blocks
        either side of i0.  That is not P_s^-1: left of i0 lam and mu both
        decay, so that block is singular to rounding and only the sigma
        column makes P_s regular."""
        ctx, w = self.ctx, self.w
        beta = ctx.beta
        neg_gv = -g_beta(v, beta)
        loc = ctx.b + _g_prime(v, beta) * (1.0 - self._conv(v))
        vn = v[-1]
        tail = ctx.b + _g_prime(vn, beta) * (1.0 - vn) - g_beta(vn, beta)
        op = self._sums(v.size)

        def jv(u):
            # in place where it can be: these vectors span the whole grid
            u = np.array(u, dtype=float)
            s, u[i0] = u[i0], 0.0
            r = self._conv(u)
            r *= neg_gv
            r += loc * u
            S = _two_sided_sum(r, 0.0, tail * u[-1], op, left_rate=ctx.lam)
            S /= ctx.z12
            u -= S
            u[0] -= s
            return u

        # P with R' the local part of the source's derivative (K lumped to
        # the identity) and the lifted sigma column in place of column i0:
        # the rows and columns below i0 and above i0 are two tridiagonal
        # blocks, coupled through row i0 and the sigma column
        sub, diag, sup = self.tridiagonal(loc + neg_gv)
        blocks = (dgttrf(sub[:i0 - 1], diag[:i0], sup[:i0 - 1]),
                  dgttrf(sub[i0 + 1:], diag[i0 + 1:], sup[i0 + 1:]))
        if blocks[0][-1] != 0 or blocks[1][-1] != 0:
            raise NoConvergence("singular Newton-Krylov preconditioner")

        # the lifted sigma column, z12 L1 L2 (-e_0), has rows 0 and 1 only
        # (i0 > 1), so it enters the lower block alone
        col = np.zeros((i0, 1))
        col[0, 0] = -ctx.z12 * (ctx.lam - w.z1)
        col[1, 0] = ctx.z12 * w.E1
        cl = dgttrs(*blocks[0][:5], col)[0][:, 0]
        a_l, a_r = sub[i0 - 1], sup[i0]

        def precondition(y):
            # both block solves run in place in the lifted vector: its
            # (m, 1) slices are Fortran-contiguous, so dgttrs copies none
            z = self.lift(y)
            dgttrs(*blocks[0][:5], z[:i0, None], overwrite_b=1)
            dgttrs(*blocks[1][:5], z[i0 + 1:, None], overwrite_b=1)
            s = (a_l * z[i0 - 1] + a_r * z[i0 + 1] - z[i0]) / (a_l * cl[-1])
            z[:i0] -= s * cl
            z[i0] = s
            return z

        return jv, precondition


def _newton_front(ctx: WaveContext, v: np.ndarray, h: float, tol: float,
                  monotone: bool) -> tuple[np.ndarray, dict]:
    """Front by Newton-Krylov with a phase condition and one unfolding
    parameter (Beyn & Thuemmler 2004; Knoll & Keyes 2004), from the start
    values v on the front grid of step h.

    Unknowns are the grid values v, with v[i0] = 1/2 pinned at the start's
    half-level index i0, and a scalar sigma in the slot of v[i0].  The
    equations are G(v, sigma) = v - A(v) - sigma e_0 = 0, with A the Picard
    operator (`_FrontSystem.apply`).  sigma is a defect at the first
    grid point: at a monotone front both decay rates lam and mu of the
    leading edge are admissible, so the left tail condition in row 0 is
    redundant once the phase is fixed, and only weakly posed.  (A speed
    unfolding sigma A_lin(v') in its place leaves the bordered Jacobian
    singular to rounding, along the speed family c -> phi_c.)  sigma
    converges to the order of v[0], about e^{-40}.

    `newton` solves to max|G| <= tol by exact Jacobian-vector products and
    preconditioned GMRES (`_FrontSystem.equations`), an inexact Newton: each
    step's GMRES stops at its forcing term, 1e-2 at the first step and down
    to GMRES_RTOL as max|G| falls.  Its failure is raised prefixed "front".
    A result that is not positive or above U(c, K), or with `monotone` not
    monotone, raises NoConvergence.  Returns the front and its stats:
    `newton`'s counts, GMRES iterations in all and per step, each step's
    GMRES rtol, and sigma (None where no step ran).
    """
    i0 = int(np.argmax(v >= 0.5))
    # the preconditioner factors the rows either side of i0 by dgttrf,
    # whose scipy wrapper takes 3 or more rows
    if not 2 < i0 < v.size - 3:
        raise NoConvergence("start has no interior half-level")
    system = _FrontSystem(ctx, h)
    x = v.copy()
    x[i0] = 0.0  # sigma
    try:
        v, stats = newton(lambda x: system.equations(x, i0), x, tol)
    except NoConvergence as err:
        raise NoConvergence(f"front {err}") from err
    per_step = [len(t) for t in system.gmres_trace]
    stats.update(gmres_iters=sum(per_step), gmres_per_step=per_step,
                 gmres_rtols=system.gmres_rtols,
                 sigma=v[i0] if stats["newton_steps"] else None)
    v[i0] = 0.5
    if monotone and not _monotone(v):
        raise NoConvergence("Newton-Krylov front is not monotone")
    if not v.min() > 0.0:
        raise NoConvergence("Newton-Krylov front is not positive")
    if not v.max() <= ctx.U:
        raise NoConvergence(
            f"Newton-Krylov front exceeds U(c, K) = {ctx.U}")
    return v, stats


# -- toy model -------------------------------------------------------------

TOY_C = 2.5
TOY_CTAU = 2.0 * math.log(1.5)


def toy_fronts():
    """The three toy fronts in closed form and their report.

    Each front is f(t, order): the order-th derivative of 1/2 e^{lam t} for
    t <= 0 and of 1 + Re sum a e^{z t} for t > 0.  The report holds the
    derived constants and, per front, its C^0/C^1 mismatch at the junction
    t = 0 and the sup defect against the piecewise equation
    phi'' - c phi' = -phi where phi < 1/2, else -(1 - phi(t - c tau)), on
    the lag window (0, c tau] and outside it on [-12, 12].  Returns
    ((f1, f2, f3), report)."""
    z4 = toy_steady_roots(TOY_C, TOY_CTAU, -4.0 + 0j).real
    zc = toy_steady_roots(TOY_C, TOY_CTAU, -6.0 + 10.0j)
    x0, y0 = zc.real, abs(zc.imag)
    # phi2 junction: a + b = 0.5, 0.5 a + |z4| b = 1
    A = np.array([[1.0, 1.0], [0.5, abs(z4)]])
    a, bb = np.linalg.solve(A, np.array([0.5, 1.0]))
    # phi3 junction: ahat cos z0 = -1/2, ahat (x0 cos z0 - y0 sin z0) = 1
    sin_term = -(1.0 + 0.5 * x0) / y0
    ahat = math.sqrt(0.25 + sin_term ** 2)
    z0 = math.atan2(sin_term / ahat, -0.5 / ahat)

    def front(lam, terms):
        def f(t, order=0):
            t = np.asarray(t, dtype=float)
            right, tr = float(order == 0), np.maximum(t, 0.0)
            for amp, z in terms:
                right = right + (amp * z ** order * np.exp(z * tr)).real
            return np.where(t <= 0, 0.5 * lam ** order
                            * np.exp(lam * np.minimum(t, 0.0)), right)
        return f

    def defect(f, t):
        phi = f(t)
        rhs = np.where(phi < 0.5, -phi, -(1.0 - f(t - TOY_CTAU)))
        return float(np.max(np.abs(f(t, 2) - TOY_C * f(t, 1) - rhs)))

    f1 = front(0.5, [(-0.5, -0.5)])
    f2 = front(2.0, [(-a, -0.5), (-bb, z4)])
    # ahat e^{x0 t} cos(y0 t + z0) = Re(ahat e^{i z0} e^{(x0 + i y0) t})
    f3 = front(2.0, [(ahat * np.exp(1j * z0), complex(x0, y0))])
    funcs = (f1, f2, f3)
    report = {"z4": z4, "x0": x0, "y0": y0, "a": float(a), "b": float(bb),
              "ahat": ahat, "z0": z0,
              # previously reported values for the oscillating profile; the
              # matching system above does not reproduce them exactly
              "ahat_reported": 0.546, "z0_reported": 2.727}
    window = np.linspace(1e-9, TOY_CTAU, 4001)
    outside = np.concatenate([np.linspace(-12.0, -1e-6, 2001),
                              np.linspace(TOY_CTAU + 1e-9, 12.0, 2001)])
    for name, f in zip(("phi1", "phi2", "phi3"), funcs):
        report[name + "_diagnostics"] = {
            "c0_mismatch": abs(float(f(-1e-12)) - float(f(1e-12))),
            "c1_mismatch": abs(float(f(-1e-12, 1)) - float(f(1e-12, 1))),
            "residual_outside_window": defect(f, outside),
            "residual_window_sup": defect(f, window)}
    return funcs, report
