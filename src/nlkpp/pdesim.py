"""Method-of-lines simulator for u_t = u_xx + u(1 - K*u).

Second-order central diffusion on a uniform mesh with Neumann (zero-flux)
ghost cells at both ends; the nonlocal term is the kernels' grid operator in
the u(x + s) orientation, with edge extension by the boundary values.  Used
to cross-validate front speeds and wave shapes.

`run` steps by IMEX (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 1995):
Crank-Nicolson diffusion, factored once per run, and a Heun
predictor-corrector for the reaction u(1 - K*u).  A step evaluates no
Laplacian: with M = I - (dt/2) lap, u + (dt/2) lap(u) = 2u - M u, so each
stage is one solve b -> 2 M^-1 b less u.  Unless a dt is given it takes
dt = max(0.4 dx^2, min(0.05, 5 dx^2)): never more steps than the explicit
rule dt = 0.4 dx^2, dt/dx^2 never above 5, and halved where it breaks
positivity, dt <= 0.5 / max|1 - K*u|.  `step` (explicit midpoint) is the
oracle the tests compare `run` against; they check `step` in turn against
a local Fisher-KPP step of their own.
`measure_speed` is the one run from settings to report, the one
`simulate` writes, under the limits MAX_SIM_NODES, MAX_SIM_STEPS and
MAX_SNAPSHOT_ROWS.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import DomainError, NoConvergence
from .kernels import Kernel, Stencil, convolve, dirac, stencil
from .solver import dpttrf, dpttrs


@dataclass
class SimState:
    """Mutable simulator state on a uniform mesh over [0, X].

    `times`/`fronts` form the recorded history of level-crossing positions
    used by front_speed; `dt` and `dt_halvings` are the step the last `run`
    ended at and how often it halved its default step.
    """
    x: np.ndarray
    u: np.ndarray
    t: float
    kernel: Kernel
    times: list = field(default_factory=list)
    fronts: list = field(default_factory=list)
    dt: float | None = field(default=None, init=False)
    dt_halvings: int = field(default=0, init=False)
    stencil: Stencil | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # K*u in the u(x + s) orientation; None for delta(s), where K*u = u
        k = self.kernel
        if not (k.nodes.size == 1 and k.nodes[0] == 0.0
                and k.masses[0] == 1.0):
            self.stencil = stencil(k, self.dx).reversed()

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


# width of the initial exponential ramp, the level whose crossing is the
# front position, and the share of the recorded time range dropped as
# transient before the speed fit
INITIAL_RAMP = 1.0
FRONT_LEVEL = 0.5
TRANSIENT_SKIP = 0.25

# the default IMEX step is the longest of the explicit step 0.4 dx^2 and
# min(DEFAULT_DT, RINGING_RATIO dx^2).  No dt may exceed RINGING_RATIO dx^2:
# Crank-Nicolson is not L-stable, and a step datum at dx = 0.05 rang to
# u_max = 1.13 at dt/dx^2 = 125, with no ringing at 5 or 20
DEFAULT_DT = 0.05
RINGING_RATIO = 5.0

# largest run in grid cells and steps (the workloads take 4,000 and 1,600)
MAX_SIM_NODES = 10 ** 6
MAX_SIM_STEPS = 10 ** 6
# largest snapshot record in rows (snapshot count times grid points), which
# the CLI writes 8,192 rows at a time: `simulate --snap 0.1` to T 20
# (400,200 rows) peaked at 82 MB and to T 49.9 (998,499) at 100 MB, where
# one `%` call over the table peaked at 147 and 273 MB (2-core x86-64 VM)
MAX_SNAPSHOT_ROWS = 10 ** 6


def initial_state(kernel: Kernel, X: float = 400.0, dx: float = 0.2,
                  front_at: float = 20.0, u0=None) -> SimState:
    """Fresh state: u = 1 for x < front_at, exponential ramp after, unless an
    explicit callable u0(x) is given."""
    if X <= 0 or dx <= 0 or X < 10 * dx:
        raise DomainError(f"need X > 0, dx > 0 and X >= 10 dx, got ({X}, {dx})")
    if not X <= MAX_SIM_NODES * dx:
        raise DomainError(f"a grid of X / dx = {X / dx:.3g} cells exceeds "
                          f"{MAX_SIM_NODES}; raise dx or lower X")
    n = int(round(X / dx))
    if u0 is None and not 0.0 <= front_at < n * dx:
        raise DomainError(f"front_at {front_at} is off the grid [0, {n * dx:g})")
    x = np.linspace(0.0, n * dx, n + 1)
    if u0 is not None:
        u = np.asarray(u0(x), dtype=float)
        if u.shape != x.shape:
            raise DomainError("u0 must map the grid to an equal-length array")
    else:
        u = np.exp(-np.maximum(x - front_at, 0.0) / INITIAL_RAMP)
    if np.any(u < 0):
        raise DomainError("initial datum must be nonnegative")
    return SimState(x=x, u=u, t=0.0, kernel=kernel)


def convolve_grid(state: SimState, u: np.ndarray) -> np.ndarray:
    """Nonlocal interaction (K*u)(x_i) = integral of u(x_i + s) dK(s) on the
    state's mesh, with u extended by its boundary values outside
    [x_0, x_n].  For K = delta(s) that is u itself, returned as it is, not
    a copy: a caller that writes into the result writes into u.

    The + sign matches the wave ansatz u(t, x) = phi(ct - x) used with the
    default datum (u = 1 on the left): a delayed kernel atom (s > 0) samples
    toward the leading edge of a rightward-moving front, exactly as the
    profile convolution samples phi(t - s).
    """
    if state.stencil is None:
        return u
    return convolve(state.stencil, u, u[0], u[-1])


def _laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    lap = np.empty_like(u)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2])
    lap[0] = 2.0 * (u[1] - u[0])
    lap[-1] = 2.0 * (u[-2] - u[-1])
    return lap / (dx * dx)


def _reaction(state: SimState, u: np.ndarray, dt: float | None = None):
    """The growth rate 1 - K*u, a new array; given the step dt, first checks
    positivity of the reaction update, dt <= 0.5 / max|1 - K*u|."""
    r = 1.0 - convolve_grid(state, u)
    if dt is not None:
        rmax = max(float(r.max()), -float(r.min()))
        if rmax > 0 and dt > 0.5 / rmax + 1e-15:
            raise DomainError(f"positivity violated: dt = {dt} > "
                              f"0.5/max|1 - K*u| = {0.5 / rmax}")
    return r


def step(state: SimState, dt: float) -> SimState:
    """Advance one explicit-midpoint step of size dt, in place.

    Preconditions: dt <= 0.4 dx^2 (diffusion stability) and
    dt <= 0.5 / max|1 - K*u| (positivity of the reaction update).
    """
    dx = state.dx
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if dt > 0.4 * dx * dx + 1e-15:
        raise DomainError(
            f"diffusion stability violated: dt = {dt} > 0.4 dx^2 = {0.4 * dx * dx}")
    f0 = _laplacian(state.u, dx) + state.u * _reaction(state, state.u, dt)
    u_half = state.u + 0.5 * dt * f0
    state.u = state.u + dt * (_laplacian(u_half, dx)
                              + u_half * _reaction(state, u_half))
    state.t += dt
    return state


def front_position(state: SimState) -> float:
    """Rightmost downward crossing of FRONT_LEVEL, by linear interpolation."""
    u = state.u
    above = u >= FRONT_LEVEL
    if not above.any() or above.all():
        raise NoConvergence(
            f"level {FRONT_LEVEL} set is off-grid at t = {state.t}")
    i = int(np.nonzero(above)[0][-1])
    if i == len(u) - 1:
        raise NoConvergence(
            f"level {FRONT_LEVEL} crossing hit the right boundary "
            f"at t = {state.t}")
    frac = (u[i] - FRONT_LEVEL) / (u[i] - u[i + 1])
    return float(state.x[i] + frac * state.dx)


def time_step(dx: float, dt=None) -> float:
    """The IMEX step for mesh width dx: max(0.4 dx^2, min(0.05, 5 dx^2)) when
    dt is None, else dt itself, which must be a finite positive number no
    larger than 5 dx^2 (the ringing cap)."""
    cap = RINGING_RATIO * dx * dx
    if dt is None:
        return max(0.4 * dx * dx, min(DEFAULT_DT, cap))
    if not (isinstance(dt, numbers.Real) and math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be a finite positive number, got {dt!r}")
    if dt > cap * (1.0 + 1e-12):
        raise DomainError(
            f"ringing cap violated: dt = {dt} > {RINGING_RATIO:g} dx^2 = {cap}")
    return float(dt)


def _crank_nicolson(n: int, ratio: float):
    """The solver b -> 2 M^-1 b, M = I - (dt/2) L with L the Neumann
    Laplacian of `_laplacian` on n points and ratio = dt/dx^2.  Halving the
    first and last rows makes M symmetric positive definite, so LAPACK
    factors M/2 once (dpttrf, L D L^T) and each solve is one dpttrs sweep,
    in place in b.  M/2 is M scaled by a power of two, so 2 M^-1 b is
    exactly twice what a factor of M would return (barring subnormals)."""
    d = np.full(n, 0.5 + 0.5 * ratio)
    d[[0, -1]] *= 0.5
    d, e, info = dpttrf(d, np.full(n - 1, -0.25 * ratio))
    if info != 0:
        raise NoConvergence(f"dpttrf failed, info = {info}")

    def solve(b: np.ndarray) -> np.ndarray:
        b[0] *= 0.5
        b[-1] *= 0.5
        return dpttrs(d, e, b, overwrite_b=1)[0]

    return solve


def _imex_step(state: SimState, dt: float, solve) -> None:
    """One Crank-Nicolson/Heun step of size dt, in place, under the explicit
    step's positivity precondition dt <= 0.5 / max|1 - K*u|.  With
    f(u) = u(1 - K*u) and M = I - (dt/2) lap, the step solves
    M u* = u + (dt/2) lap(u) + dt f(u) and
    M u+ = u + (dt/2) lap(u) + (dt/2)(f(u) + f(u*)), through the identity
    u + (dt/2) lap(u) = 2u - M u (Neumann rows included) and `solve`,
    b -> 2 M^-1 b: u* = 2 M^-1 (u + (dt/2) f(u)) - u and
    u+ = 2 M^-1 (u + (dt/4)(f(u) + f(u*))) - u.  So no Laplacian is
    evaluated.  Every temporary is the step's own and updated in place;
    state.u is replaced by a new array and the old one is never written."""
    u = state.u
    f0 = _reaction(state, u, dt)
    f0 *= u
    b = f0 * (0.5 * dt)
    b += u
    u_star = solve(b)
    u_star -= u
    f1 = _reaction(state, u_star)
    f1 *= u_star
    f1 += f0
    f1 *= 0.25 * dt
    f1 += u
    u_new = solve(f1)
    u_new -= u
    state.u = u_new
    state.t += dt


def step_count(span: float, dt: float) -> int:
    """Steps of at most dt covering `span`, at least one; over MAX_SIM_STEPS,
    DomainError."""
    if not span <= MAX_SIM_STEPS * dt:
        raise DomainError(f"a run of {span:g} at dt = {dt:g} takes more than "
                          f"{MAX_SIM_STEPS} steps; raise dt or dx, or lower T")
    return max(1, math.ceil(span / dt - 1e-12))


def run(state: SimState, t_end: float, dt: float | None = None,
        record_dt: float = 0.5, snapshots_at=()) -> list:
    """Step the state to t_end by IMEX steps no longer than time_step(dx, dt),
    recording the level-crossing position every record_dt into the state
    history, a default dt halved (Crank-Nicolson refactored) where positivity
    binds (the step and its halvings are left in state.dt and
    state.dt_halvings).  Returns (t, u-copy) snapshots at the requested
    times."""
    if t_end <= state.t:
        raise DomainError(f"t_end = {t_end} must exceed current t = {state.t}")
    dx = state.dx
    adapt = dt is None
    dt = time_step(dx, dt)
    n_steps = step_count(t_end - state.t, dt)
    dt = (t_end - state.t) / n_steps
    solve = _crank_nicolson(state.x.size, dt / (dx * dx))
    record_every = max(1, int(round(record_dt / dt)))
    snaps_left = sorted(snapshots_at)
    snaps, halvings = [], 0
    def record():
        try:
            pos = front_position(state)
        except NoConvergence:
            return
        state.times.append(state.t)
        state.fronts.append(pos)

    if not state.times or state.times[-1] < state.t - 1e-12:
        record()
    i = 0
    while i < n_steps:
        try:
            _imex_step(state, dt, solve)
        except DomainError as err:  # the step's one check: positivity
            if not adapt:
                raise
            if 2 * n_steps > MAX_SIM_STEPS:
                raise NoConvergence(
                    f"{err}; halving tops {MAX_SIM_STEPS} steps")
            # the same run and record times in steps of dt/2
            dt, halvings = 0.5 * dt, halvings + 1
            i, n_steps, record_every = 2 * i, 2 * n_steps, 2 * record_every
            solve = _crank_nicolson(state.x.size, dt / (dx * dx))
            continue
        while snaps_left and state.t >= snaps_left[0] - 0.5 * dt:
            snaps.append((state.t, state.u.copy()))
            snaps_left.pop(0)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            record()
        i += 1
    state.dt, state.dt_halvings = dt, halvings
    return snaps


def front_speed(state: SimState) -> float:
    """Least-squares slope of the recorded front positions, after dropping
    the first TRANSIENT_SKIP fraction of the time range as transient."""
    t = np.asarray(state.times, dtype=float)
    p = np.asarray(state.fronts, dtype=float)
    if t.size == 0:
        raise NoConvergence("no recorded front positions")
    t_cut = t[0] + TRANSIENT_SKIP * (t[-1] - t[0])
    keep = t >= t_cut
    if int(keep.sum()) < 20:
        raise NoConvergence(
            f"only {int(keep.sum())} front positions after transient skip; need >= 20")
    slope, _ = np.polyfit(t[keep], p[keep], 1)
    return float(slope)


def measure_speed(kernel: Kernel = None, T: float = 40.0, X: float = 400.0,
                  dx: float = 0.2, dt: float | None = None,
                  front_at: float = 20.0, snap: float = 0.0) -> dict:
    """The PDE cross-check `simulate` writes: the default datum, front at
    front_at, on [0, X], run to T from time_step(dx, dt) with a snapshot
    every `snap` (0 takes none).  The step count is checked before the grid
    is built, and the snapshot rows (at most MAX_SNAPSHOT_ROWS) before the
    run.  Returns the fitted speed, the range of u, the record count and
    the step taken with its halvings, with the final `state` and the (t, u)
    `snapshots`."""
    if kernel is None:
        kernel = dirac(0.0)
    step_count(T, time_step(dx, dt))
    state = initial_state(kernel, X=X, dx=dx, front_at=front_at)
    snap_times = []
    if snap:
        # the length of the np.arange below, counted in floats first: a
        # tiny snap gives inf here, not a huge array
        count = np.ceil((T + 1e-9 - snap) / snap)
        if not count * state.x.size <= MAX_SNAPSHOT_ROWS:
            raise DomainError(
                f"--snap {snap:g} at --T {T:g} writes more than "
                f"{MAX_SNAPSHOT_ROWS} snapshot rows; raise --snap or lower T")
        snap_times = list(np.arange(snap, T + 1e-9, snap))
    snaps = run(state, T, dt=dt, snapshots_at=snap_times)
    return {"T": T, "speed": front_speed(state), "u_min": float(state.u.min()),
            "u_max": float(state.u.max()), "n_records": len(state.times),
            "dt": state.dt, "dt_halvings": state.dt_halvings,
            "state": state, "snapshots": snaps}
