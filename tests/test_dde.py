import copy
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from nlkpp import dde
from nlkpp import DomainError, NoConvergence
from nlkpp.profiles import NEWTON_MAX_STEPS, newton
from nlkpp.spectral import quad_roots

TAU = dde.HOPF_TAU + 0.1


@pytest.fixture(scope="module")
def orbit():
    return dde.find_periodic(TAU)


# -- forward integration ---------------------------------------------------

def test_zero_history_stays_zero():
    tr = dde.integrate_wright(5.0, 0.0, lambda s: 0.0, 20.0)
    assert np.max(np.abs(tr.y)) < 1e-300


def test_constant_history_monotone_to_one():
    tr = dde.integrate_wright(5.0, 0.0, lambda s: 0.3, 80.0)
    assert np.all(np.diff(tr.y) > -1e-12)
    assert np.all(tr.y < 1.0)
    assert tr.y[-1] == pytest.approx(1.0, abs=1e-6)


def test_invariant_region_zero_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(0.05, 0.95)
        tr = dde.integrate_wright(4.0, 0.0, lambda s: a, 60.0)
        assert np.all(tr.y > 0.0) and np.all(tr.y < 1.0)


def test_blowup_detection():
    tr = dde.integrate_wright(2.0, 0.0, lambda s: -0.5, 200.0)
    assert tr.escape_time is not None and tr.escape_time < 200.0


def test_second_order_relaxes_to_one():
    tr = dde.integrate_wright(2.0, 5e-3, lambda s: 0.9, 30.0)
    assert tr.escape_time is None
    assert tr.y[-1] == pytest.approx(1.0, abs=1e-8)


def test_orbit_history_shadows_then_departs(orbit):
    # the orbit is hyperbolic with one unstable direction, so a slightly
    # perturbed orbit history shadows it for a while and then escapes to 1
    hist = lambda s: orbit.p(s) * (1.0 + 1e-6)
    tr = dde.integrate_wright(TAU, 0.0, hist, 300.0, dt=TAU / 400.0)
    early = tr.t < 3 * orbit.period
    assert np.max(np.abs(tr.y[early] - orbit.p(tr.t[early]))) < 1e-3
    assert abs(tr.y[-1] - 1.0) < 1e-6


def _cubic_scalar(z, idx):
    # reference: the per-index cubic Lagrange lookup of the per-step loops
    i0 = int(math.floor(idx))
    f = idx - i0
    if abs(f) < 1e-12:
        return z[i0]
    w = (-f * (f - 1) * (f - 2) / 6, (f * f - 1) * (f - 2) / 2,
         -f * (f + 1) * (f - 2) / 2, f * (f * f - 1) / 6)
    return (w[0] * z[i0 - 1] + w[1] * z[i0] + w[2] * z[i0 + 1]
            + w[3] * z[i0 + 2])


def _wright_per_step(tau, eps, history, t_end, dt=None, blowup=1e6):
    # reference: method of steps one RK4 step at a time, history sampled
    # point by point, initial derivative by finite difference
    if dt is None:
        dt = tau / 50.0 if eps == 0 else min(tau / 50.0, eps / 10.0)
    nlag = int(math.ceil(tau / dt))
    dt = tau / nlag
    steps = int(math.ceil(t_end / dt))
    nback = nlag + 4
    y = np.empty(nback + steps)
    tpast = dt * np.arange(-(nback - 1), 1)
    y[:nback] = [history(max(s, -tau)) for s in tpast]
    w = (history(0.0) - history(-dt)) / dt
    lag = tau / dt
    esc_t = None
    for stp in range(steps):
        i = nback - 1 + stp
        y0 = y[i]
        la0 = _cubic_scalar(y, i - lag)
        lah = _cubic_scalar(y, i + 0.5 - lag)
        la1 = _cubic_scalar(y, i + 1.0 - lag)
        if eps == 0:
            k1 = la0 * (1.0 - y0)
            k2 = lah * (1.0 - (y0 + dt / 2 * k1))
            k3 = lah * (1.0 - (y0 + dt / 2 * k2))
            k4 = la1 * (1.0 - (y0 + dt * k3))
            y[i + 1] = y0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            def f(yv, wv, lav):
                return wv, (-wv + lav * (1.0 - yv)) / eps
            k1y, k1w = f(y0, w, la0)
            k2y, k2w = f(y0 + dt / 2 * k1y, w + dt / 2 * k1w, lah)
            k3y, k3w = f(y0 + dt / 2 * k2y, w + dt / 2 * k2w, lah)
            k4y, k4w = f(y0 + dt * k3y, w + dt * k3w, la1)
            y[i + 1] = y0 + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            w = w + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if not math.isfinite(y[i + 1]) or abs(y[i + 1]) > blowup:
            esc_t = (stp + 1) * dt
            y = y[:i + 2]
            break
    return y[nback - 1:], esc_t


def _assert_close_to(y, ref, tol):
    assert y.shape == ref.shape
    assert np.all(np.abs(y - ref) <= tol * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("tau, eps, hist, t_end, dt, escapes", [
    (5.0, 0.0, lambda s: 0.3, 80.0, None, False),
    (4.0, 0.0, lambda s: 0.2 + 0.1 * np.sin(s), 60.0, 0.37, False),
    (2.0, 5e-3, lambda s: 0.9, 10.0, None, False),
    (4.0, 0.05, lambda s: 0.2 + 0.1 * np.sin(s), 40.0, 0.013, False),
    (2.0, 0.0, lambda s: -0.5, 200.0, None, True),
    (2.0, 1e-2, lambda s: -0.5, 200.0, None, True),
], ids=["eps0", "eps0-dt", "eps", "eps-dt", "blowup", "blowup-eps"])
def test_integrate_wright_matches_per_step_loop(tau, eps, hist, t_end, dt,
                                                escapes):
    tr = dde.integrate_wright(tau, eps, hist, t_end, dt=dt)
    ref, esc_t = _wright_per_step(tau, eps, hist, t_end, dt=dt)
    assert (tr.escape_time is not None) is escapes
    assert tr.escape_time == esc_t
    _assert_close_to(tr.y, ref, 1e-12)


def test_integrate_wright_shadowing_matches_per_step_loop(orbit):
    # the orbit's unstable direction amplifies rounding differences once the
    # run departs from the orbit (3e-11 at most, seen), so the run is held
    # to 1e-12 while it shadows the orbit and to 1e-10 after
    hist = lambda s: orbit.p(s) * (1.0 + 1e-6)
    tr = dde.integrate_wright(TAU, 0.0, hist, 300.0, dt=TAU / 400.0)
    ref, esc_t = _wright_per_step(TAU, 0.0, hist, 300.0, dt=TAU / 400.0)
    assert tr.escape_time is None and esc_t is None
    early = tr.t < 3 * orbit.period
    _assert_close_to(tr.y[early], ref[early], 1e-12)
    _assert_close_to(tr.y, ref, 1e-10)


@pytest.mark.parametrize("dt", [3.0, 1.0])
def test_integrate_wright_rejects_step_not_below_delay(dt):
    with pytest.raises(DomainError, match="need 0 < dt < tau"):
        dde.integrate_wright(1.0, 0.0, lambda s: 0.3, 5.0, dt=dt)


def test_integrate_wright_step_just_below_delay():
    # nlag = 2: every step reads its lag from rows written before it
    tr = dde.integrate_wright(1.0, 0.0, lambda s: 0.3, 5.0, dt=0.9)
    ref, _ = _wright_per_step(1.0, 0.0, lambda s: 0.3, 5.0, dt=0.9)
    _assert_close_to(tr.y, ref, 1e-12)


# tau/(tau/nlag), the lag in steps, rounds 1.4e-14 below nlag = 100 at
# tau 1.7 and 5.7e-14 above nlag = 300 at tau 4.7, dt 0.0157: the lookups
# at offsets 0 and 1 are then a node's row and a cubic stencil next to one
@pytest.mark.parametrize("tau, dt, side", [(1.7, 0.017, -1),
                                           (4.7, 0.0157, 1)],
                         ids=["below", "above"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_integrate_wright_lag_rounding_matches_per_step_loop(tau, dt, side,
                                                             eps):
    nlag = math.ceil(tau / dt)
    assert np.sign(tau / (tau / nlag) - nlag) == side
    hist = lambda s: 0.2 + 0.1 * np.sin(3.0 * s)
    tr = dde.integrate_wright(tau, eps, hist, 3 * tau, dt=dt)
    ref, esc_t = _wright_per_step(tau, eps, hist, 3 * tau, dt=dt)
    assert tr.escape_time is None and esc_t is None
    _assert_close_to(tr.y, ref, 1e-12)


def _rk4_increment(a0, ah, a1, dt):
    # reference: stacked matrices D with u <- u + D u for one classical RK4
    # step of u' = A(t) u, from stacked A at t, t + dt/2, t + dt
    eye = np.eye(a0.shape[-1])
    k2 = ah @ (eye + dt / 2 * a0)
    k3 = ah @ (eye + dt / 2 * k2)
    k4 = a1 @ (eye + dt * k3)
    return dt / 6 * (a0 + 2 * k2 + 2 * k3 + k4)


def test_rk4_closed_forms_match_stacked_increment():
    # the forward run's 2x2 increment, and the gains of z' = a z + b L
    # against the first row of the augmented system (z, L0, Lh, L1), in
    # which each lag enters only at its own stage
    rng = np.random.default_rng(11)
    n, dt, eps = 50, 0.02, 0.05
    la = rng.uniform(-0.5, 1.5, (3, n))
    a = np.zeros((3, n, 2, 2))
    a[..., 0, 1], a[..., 1, 0], a[..., 1, 1] = -1.0, la / eps, -1.0 / eps
    ref = _rk4_increment(*a, dt)
    got = dde._rk4_wright(*la, eps, dt)
    for k, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        np.testing.assert_allclose(got[k], ref[:, r, c], rtol=1e-13,
                                   atol=1e-15)
    ab = rng.uniform(-1.0, 1.0, (2, 3, n))
    aug = np.zeros((3, n, 4, 4))
    for j in range(3):
        aug[j, :, 0, 0], aug[j, :, 0, j + 1] = ab[0, j], ab[1, j]
    ref = _rk4_increment(*aug, dt)[:, 0]
    g1, gh = dde._rk4_gains(ab[0, 1], ab[0, 2], dt)
    got = [g1 * ab[0, 0] + gh * ab[0, 1] + dt / 6 * ab[0, 2],
           g1 * ab[1, 0], gh * ab[1, 1], dt / 6 * ab[1, 2]]
    for k in range(4):
        np.testing.assert_allclose(got[k], ref[:, k], rtol=1e-13, atol=1e-18)


# the lag in steps at a node, on both sides of one and of a half node
# within 1e-13 (the lag's rounding in a forward run), and in between
@pytest.mark.parametrize("lag", [150.0, 150 - 6e-14, 150 + 6e-14,
                                 150.5 - 6e-14, 150.5 + 6e-14, 150.3])
def test_lag_taps_match_per_row_lookups(lag):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((400, 3))
    r0, taps = dde._lag_taps(lag)
    if abs(lag - round(lag)) < 1e-12:
        # a forward run's block of round(lag) - 1 steps ends at the step
        # whose window ends at the block's first row, not one row later
        assert r0 + taps.shape[1] - 1 == 2 - round(lag)
    for i in (160, 397):
        rows = z[i + r0:i + r0 + taps.shape[1]]
        for j, off in enumerate((0.0, 0.5, 1.0)):
            np.testing.assert_allclose(taps[j] @ rows,
                                       _cubic_scalar(z, i + off - lag),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 2357])
def test_scan_matches_sequential_composition(n):
    # near-identity maps, as RK4 steps are, against products and affine
    # updates taken one step at a time; the products' size moves by
    # e^{+-0.5} or so over 2,357 steps, so errors are relative to it
    rng = np.random.default_rng(n)
    mats = np.eye(2)[..., None] + 0.01 * rng.standard_normal((2, 2, n))
    ref = mats.copy()
    for k in range(1, n):
        ref[..., k] = ref[..., k] @ ref[..., k - 1]
    got = dde._scan(mats.copy(), n, dde._compose_2x2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    r, f = 1.0 + 0.01 * rng.standard_normal(n), rng.standard_normal((n, 5))
    ref_r, ref_f = r.copy(), f.copy()
    for k in range(1, n):
        ref_f[k] += r[k] * ref_f[k - 1]
        ref_r[k] *= ref_r[k - 1]
    got_r, got_f = dde._scan((r.copy(), f.copy()), n, dde._compose_affine)
    assert np.max(np.abs(got_r - ref_r)) <= 1e-13 * np.max(np.abs(ref_r))
    assert np.max(np.abs(got_f - ref_f)) <= 1e-13 * np.max(np.abs(ref_f))


def _blowup_threshold(y, k):
    # a bound that |y| first exceeds at index k, halfway (geometrically)
    # between its largest value before k and its value at k
    below = np.max(np.abs(y[:k]))
    assert abs(y[k]) > below
    return math.sqrt(below * abs(y[k]))


# tau = 2, eps = 1e-2: dt = 1e-3 and blocks of 1,999 steps, and |y| grows
# at every step from either start.  The bound is set between |y| at the
# step before the edge and at the edge step: from -5 that edge is y[2000],
# the first step of the second block, whose rest overflows to inf and nan;
# from -0.5 it is y[3998], the last step of the second block
@pytest.mark.parametrize("start, k", [(-5.0, 2000), (-0.5, 3998)],
                         ids=["first", "last"])
def test_blowup_at_a_block_edge_matches_per_step_loop(monkeypatch, start, k):
    tau, eps, hist = 2.0, 1e-2, lambda s: start
    ref, _ = _wright_per_step(tau, eps, hist, 10.0)
    bound = _blowup_threshold(ref, k)
    monkeypatch.setattr(dde, "WRIGHT_BLOWUP", bound)
    ref, esc_t = _wright_per_step(tau, eps, hist, 10.0, blowup=bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = dde.integrate_wright(tau, eps, hist, 10.0)
    assert esc_t == k * 1e-3
    assert tr.escape_time == esc_t
    _assert_close_to(tr.y, ref, 1e-12)


def test_benchmark_semiwave_run_matches_per_step_loop():
    # the periodic-to-point run of semiwave --tau 4.8124 --c 7 --proper
    # (eps = 1/49, blocks of 2,358 steps) while it shadows the orbit, over
    # three periods; its initial derivative by finite difference, as the
    # reference's
    tau, eps = 4.8124, 1.0 / 49.0
    orbit = dde.find_periodic(tau, eps)
    _, (hist_s, mode) = dde.floquet(orbit.base)
    hist = lambda s: orbit.p(s) + dde.P2P_DELTA * np.interp(s, hist_s, mode)
    t_end = 3 * orbit.period
    tr = dde.integrate_wright(tau, eps, hist, t_end)
    ref, esc_t = _wright_per_step(tau, eps, hist, t_end)
    assert tr.escape_time is None and esc_t is None
    _assert_close_to(tr.y, ref, 1e-12)


def test_cubic_rows_matches_scalar_formula():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((40, 3))
    nodes = rng.integers(2, 36, 30).astype(float)
    idx = np.concatenate([rng.uniform(1.0, 37.0, 200), nodes,
                          nodes + 1e-13, nodes - 1e-13, nodes + 5e-12])
    rows = dde._cubic_rows(z, idx)
    vals = dde._cubic_rows(z[:, 0], idx.reshape(-1, 10))
    for j, ix in enumerate(idx):
        ref = _cubic_scalar(z, ix)
        np.testing.assert_allclose(rows[j], ref, rtol=0, atol=1e-14)
        assert vals.flat[j] == pytest.approx(ref[0], rel=0, abs=1e-14)
    # a node on the last row reads that row alone
    assert np.array_equal(dde._cubic_rows(z, [39.0 + 1e-13]), z[[39]])


# -- periodic orbits -------------------------------------------------------

def test_orbit_residual_and_period(orbit):
    assert orbit.residual < 1e-10
    assert orbit.period == pytest.approx(2 * math.pi, rel=0.05)


def test_orbit_amplitude_near_first_order(orbit):
    assert orbit.amplitude == pytest.approx(dde.hopf_amplitude(TAU), rel=0.15)


def test_orbit_mesh_closes(orbit):
    mesh = orbit.mesh
    assert abs(mesh[0, 1] - mesh[-1, 1]) < 1e-8
    assert abs(mesh[0, 2] - mesh[-1, 2]) < 1e-8


def test_orbit_two_critical_points(orbit):
    assert orbit.critical_points() == 2


def test_orbit_slow_oscillation(orbit):
    lo, hi = orbit.delay_window_sign_changes()
    assert 1 <= lo and hi <= 2


# three delays of a 300-point scan of [4.75, 30] where the cosine-seeded
# Newton converges to an orbit that is not slowly oscillating: period 6.44
# with 63 critical points (tau 9.82, in 38 Newton steps), period 13.9 with
# 4 (twice its neighbours'), and amplitude 10.7 with 64
@pytest.mark.parametrize("k, crit", [(60, 63), (6, 4), (75, 64)])
def test_orbit_not_slowly_oscillating_is_no_convergence(k, crit):
    tau = np.linspace(4.75, 30.0, 300)[k]
    with pytest.raises(NoConvergence,
                       match=f"not slowly oscillating: {crit} critical"):
        dde.find_periodic(tau)


def test_orbit_newton_stalls_at_the_rounding_floor(monkeypatch):
    # at tau 21.72 (k = 201 of the scan) the cosine-seeded Newton reaches
    # max|r| 1.72e-11, below STALL_FACTOR tol, and its next step does not
    # lower it: the run exits "stalled" after 26 steps, where it once
    # dithered on to an orbit with 63 critical points in 31
    evaluations = []

    def counted(system, x, tol):
        def evaluated(x):
            evaluations.append(x)
            return system(x)
        return newton(evaluated, x, tol)

    monkeypatch.setattr(dde, "newton", counted)
    with pytest.raises(NoConvergence, match=r"Newton stalled at residual "
                                            r"1\.72e-11 .*\(eps=0\.0\)"):
        dde.find_periodic(np.linspace(4.75, 30.0, 300)[201])
    # one evaluation at the start and one per step
    assert len(evaluations) - 1 <= 30


@pytest.mark.parametrize("tau", [5.0, 4.8124])
def test_slowly_oscillating_orbit_passes_the_gate(tau):
    orbit = dde.find_periodic(tau)
    assert orbit.critical_points() == 2
    lo, hi = orbit.delay_window_sign_changes()
    assert 1 <= lo <= hi <= 2


def test_orbit_diagnostics_match_pointwise_evaluation(orbit):
    # the blocked evaluations against the interpolant at each point
    t = orbit.period * np.arange(dde.CRITICAL_SAMPLES) / dde.CRITICAL_SAMPLES
    dp = orbit.p(t, 1)
    assert orbit.critical_points() == int(
        np.sum(np.sign(dp[1:]) != np.sign(dp[:-1])))
    counts = []
    for t0 in orbit.period * np.arange(dde.WINDOW_TIMES) / dde.WINDOW_TIMES:
        v = np.sign(orbit.p(np.linspace(t0 - orbit.tau, t0,
                                        dde.WINDOW_SAMPLES)))
        counts.append(int(np.sum(v[1:] != v[:-1])))
    assert orbit.delay_window_sign_changes() == (min(counts), max(counts))


def test_sqrt_amplitude_scaling(orbit):
    o2 = dde.find_periodic(dde.HOPF_TAU + 0.05)
    r1 = orbit.amplitude / math.sqrt(0.1)
    r2 = o2.amplitude / math.sqrt(0.05)
    assert r1 / r2 == pytest.approx(1.0, abs=0.1)


def test_orbit_below_hopf_raises():
    with pytest.raises(DomainError, match=r"needs tau > 3 pi/2"):
        dde.find_periodic(dde.HOPF_TAU - 0.1)


@pytest.mark.parametrize("eps", [0.0, 0.02])
def test_orbit_jacobian_matches_finite_differences(eps):
    n = 16
    rng = np.random.default_rng(11)
    th = 2 * np.pi * np.arange(n) / n
    p0 = 0.5 * np.cos(th)
    system = dde._orbit_system(TAU, eps, p0, 6.3)
    x = np.append(p0 + 0.05 * rng.standard_normal(n), 6.5)
    step = 1e-6
    fd = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        e = np.zeros(n + 1)
        e[j] = step
        fd[:, j] = (system(x + e)[0] - system(x - e)[0]) / (2 * step)
    jd = system(x)[1]()
    assert np.max(np.abs(fd - jd)) <= 1e-7 * np.max(np.abs(jd))


def test_orbit_newton_singular_jacobian_is_no_convergence():
    # p = 1/2 is not a solution, and its phase row (the seed's derivative)
    # is zero up to rounding, so the first Newton step meets a singular
    # Jacobian
    p0 = np.full(16, 0.5)
    system = dde._orbit_system(TAU, 0.0, p0, 2 * np.pi)
    x0 = np.append(p0, 2 * np.pi)
    r, jac = system(x0)
    assert np.max(np.abs(r)) > 0.1
    assert np.max(np.abs(jac()[-1])) < 1e-15
    with pytest.raises(NoConvergence, match="Newton diverged"):
        newton(dde._direct(system), x0, dde.NEWTON_TOL)


def test_orbit_newton_divergence_is_named():
    # from the small-amplitude seed at tau = 5.5, max|r| rises from 1.5 to
    # above 1e4 over the NEWTON_MAX_STEPS dense steps: a divergence, not a
    # stall
    with pytest.raises(NoConvergence) as info:
        dde.find_periodic(5.5)
    msg = str(info.value)
    assert "stalled" not in msg
    m = re.search(r"Newton diverged: max\|r\| rose from (\S+) to (\S+) in "
                  r"(\d+) steps", msg)
    assert m, msg
    assert float(m[1]) < 10.0 < 1e4 < float(m[2])
    assert int(m[3]) == NEWTON_MAX_STEPS


@pytest.mark.parametrize("tau", [7.0, 7.54])
def test_orbit_collapse_onto_equilibrium_is_no_convergence(tau):
    # from the small-amplitude seed the Newton iterates reach p = 1 at
    # tau = 7 and p = 0 at tau = 7.54: exact solutions, but no orbit
    with pytest.raises(NoConvergence, match="collapsed onto p = [01]"):
        dde.find_periodic(tau)


def test_orbit_eps_ladder_matches_uniform_path():
    # the doubling eps-ladder and a hand-run uniform four-step path reach
    # the same orbit; the phase condition pins each rung to its seed, so
    # the two differ by a phase shift within the collocation error
    eps = 0.0204
    ladder = dde.find_periodic(4.8124, eps)
    n = dde.ORBIT_NODES
    p = dde.hopf_amplitude(4.8124) * np.cos(2 * np.pi * np.arange(n) / n)
    om = 2 * np.pi
    for e in np.linspace(0.0, eps, 5):
        x, _ = newton(dde._direct(dde._orbit_system(4.8124, e, p, om)),
                      np.append(p, om), dde.NEWTON_TOL)
        p, om = x[:-1], x[-1]
    assert ladder.period == pytest.approx(om, rel=1e-12)
    # ladder.p(t - shift) = p(t) moves the first Fourier mode by
    # exp(2 pi i shift / om); compare off the grid
    shift = np.angle(np.fft.rfft(ladder.values)[1] / np.fft.rfft(p)[1]) \
        * om / (2 * np.pi)
    t = om * np.arange(4 * n) / (4 * n)
    np.testing.assert_allclose(ladder.p(t - shift), dde._trig_eval(p, om, t),
                               rtol=0, atol=1e-8)


def test_newton_singular_sparse_jacobian_is_no_convergence():
    # splu raises "Factor is exactly singular" on an exactly singular
    # matrix; that becomes NoConvergence, and no warning leaks
    system = lambda x: (x - 1.0,
                        lambda: splu(sparse.csc_matrix((2, 2))).solve)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NoConvergence, match="exactly singular"):
            newton(system, np.zeros(2), dde.NEWTON_TOL)
    assert not seen


def test_newton_stall_exits_on_a_fresh_factor():
    # max|r| never falls below 5e-12: the first step that does not lower
    # it, a max|r| already below STALL_FACTOR tol, ends Newton there
    # instead of after all NEWTON_MAX_STEPS steps
    a = sparse.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    factored = []

    def linearize():
        factored.append(1)
        return splu(a).solve

    def system(x):
        d = x - 1.0
        return a @ d + 5e-12 * np.where(d >= 0, 1.0, -1.0), linearize

    with pytest.raises(NoConvergence, match="Newton stalled at residual"):
        newton(system, np.zeros(2), dde.NEWTON_TOL)
    assert len(factored) <= 3


def test_newton_rise_far_above_the_floor_is_not_a_stall():
    # a step that raises max|r| far above the rounding floor does not stop
    # Newton: on r = (sin x0, x1 - x0) from x = (1.2, 1.2), max|r| goes
    # 0.93 -> 0.98, and Newton converges onto x0 = pi
    seen = []

    def system(x):
        r = np.array([math.sin(x[0]), x[1] - x[0]])
        seen.append(float(np.max(np.abs(r))))
        j = sparse.csc_matrix(np.array([[math.cos(x[0]), 0.0], [-1.0, 1.0]]))
        return r, lambda: splu(j).solve

    x, counts = newton(system, np.array([1.2, 1.2]), dde.NEWTON_TOL)
    assert seen[1] > seen[0] > 0.9
    assert counts["residual"] < dde.NEWTON_TOL
    assert x[0] == pytest.approx(math.pi, abs=1e-12)


def test_newton_non_finite_residual_is_no_convergence():
    # x^2 + 1 has no real root: from x = 1e-300 the first step lands near
    # -5e299, where the residual overflows to inf
    system = lambda x: (
        x * x + 1.0, lambda: splu(sparse.csc_matrix(2.0 * x[:, None])).solve)
    with pytest.raises(NoConvergence, match="residual not finite"):
        newton(system, np.array([1e-300]), dde.NEWTON_TOL)


def _newton_per_step(system, x, solve):
    # reference: the Jacobian built and factored afresh at every step
    for steps in range(NEWTON_MAX_STEPS + 1):
        r, jac = system(x)
        res = float(np.max(np.abs(r)))
        if res < dde.NEWTON_TOL:
            return x, res, steps
        x = x - solve(jac(), r)
    raise AssertionError(f"reference Newton stalled at {res}")


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_newton_matches_per_step_spsolve(eps):
    # the block solve at every step reaches the same connection, in as many
    # steps, as a fresh spsolve at every step, from the logistic start;
    # measured sup gaps are 1.4e-17 at both eps, held to 1e-12
    _, _, x0, system = dde._zero_to_one_system(5.0, eps, n_per_delay=5)
    ref, ref_res, steps = _newton_per_step(
        system, x0,
        lambda j, r: spsolve(sparse.csc_matrix(_dense(j, r.size)), r))
    x, counts = newton(dde._direct(system), x0, dde.NEWTON_TOL)
    assert ref_res < dde.NEWTON_TOL
    assert counts["residual"] < dde.NEWTON_TOL
    assert np.max(np.abs(x - ref)) < 1e-12
    assert counts["newton_steps"] == steps


@pytest.mark.parametrize("eps", [0.0, 0.02])
def test_orbit_newton_solves_every_step_dense(eps):
    # the dense orbit path factors at every step, so it equals a per-step
    # np.linalg.solve loop bit for bit
    n = dde.ORBIT_NODES
    p0 = dde.hopf_amplitude(TAU) * np.cos(2 * np.pi * np.arange(n) / n)
    system = dde._orbit_system(TAU, eps, p0, 2 * np.pi)
    x0 = np.append(p0, 2 * np.pi)
    ref, ref_res, steps = _newton_per_step(system, x0, np.linalg.solve)
    x, counts = newton(dde._direct(system), x0, dde.NEWTON_TOL)
    assert np.array_equal(x, ref)
    assert counts == {"residual": ref_res, "newton_steps": steps}


def test_eps_ladder_doubles_and_bisects_a_failed_step():
    # each rung is warm-started from the one below; the first try at 8e-3
    # fails, so the step 4e-3 -> 8e-3 is halved once
    solved, failed = [], []

    def solve(e, prev):
        assert prev == (solved[-1] if solved else None)
        if e == 8e-3 and not failed:
            failed.append(e)
            raise NoConvergence("first try")
        solved.append(e)
        return e

    ladder = dde._continue(solve, 1e-2)
    assert ladder == pytest.approx([0.0, 1e-3, 2e-3, 4e-3, 6e-3, 8e-3, 1e-2],
                                   rel=1e-15)
    assert dde._continue(lambda e, prev: e, 0.0) == [0.0]


def test_eps_ladder_gives_up_below_the_minimum_step():
    def solve(e, prev):
        if e > 0:
            raise NoConvergence("always")
        return e

    with pytest.raises(NoConvergence, match=r"always \(eps=9\.\d+e-07\)"):
        dde._continue(solve, 1e-3)


@pytest.mark.parametrize("eps", [-0.1, math.inf])
def test_eps_ladder_rejects_eps_out_of_range(eps):
    # semiwave --c 1e-160 gives eps = 1/c^2 = inf, which the doubling
    # ladder would climb to through about a thousand rungs
    def solve(e, prev):
        raise AssertionError("no rung may be solved")
    with pytest.raises(DomainError, match="need finite eps >= 0"):
        dde._continue(solve, eps)


def test_oversized_target_mesh_is_refused_before_any_rung(monkeypatch):
    # the mesh grows with eps, so the target's is the one to check: rungs
    # up to eps = 536,870.9 (176,573 nodes) fit, the target's 240,721 not
    halves = [dde._zero_to_one_mesh(5.0, e)[2]
              for e in (0.0, 1e-3, 1.0, 1e3, 536870.9)]
    assert halves == sorted(halves) and 2 * halves[-1] + 1 == 176573

    def solve(*args):
        raise AssertionError("no rung may be solved")
    monkeypatch.setattr(dde, "_solve_zero_to_one", solve)
    with pytest.raises(DomainError, match="needs more than 200000 nodes"):
        dde.zero_to_one(5.0, 1e6)


def test_orbit_eps_continuation():
    o = dde.find_periodic(TAU, eps=5e-3)
    assert o.residual < 1e-10
    assert o.eps == 5e-3
    assert abs(o.gamma) < 0.05
    assert o.period == pytest.approx((1.0 + o.gamma) * 6.4075, rel=1e-3)


# -- Floquet and adjoint ---------------------------------------------------

def test_floquet_spectrum(orbit):
    ev, _ = dde.floquet(orbit)
    mods = np.abs(ev)
    assert min(abs(m - 1.0) for m in mods) < 1e-2          # trivial
    assert int(np.sum(mods > 1.0 + 1e-3)) == 1             # one unstable
    inside = np.sort(mods)[::-1][2:]
    assert np.all(inside < 1.0 - 1e-3)


def test_floquet_doubling_stability(orbit):
    e1 = np.sort(np.abs(dde.floquet(orbit, n_disc=100)[0]))[::-1][:3]
    e2 = np.sort(np.abs(dde.floquet(orbit, n_disc=200)[0]))[::-1][:3]
    assert np.max(np.abs(e1 - e2) / e2) < 1e-2


def _period_map_per_step(a_fun, b_fun, period, tau, n_disc, steps):
    # reference: the period map one RK4 step at a time, with scalar
    # coefficient callables and per-step cubic lookups
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
    for step in range(steps):
        i = nback - 1 + step
        t = step * dt
        z0 = z[i]
        k1 = a_fun(t) * z0 + b_fun(t) * _cubic_scalar(z, i - lag)
        k2 = (a_fun(t + dt / 2) * (z0 + dt / 2 * k1)
              + b_fun(t + dt / 2) * _cubic_scalar(z, i + 0.5 - lag))
        k3 = (a_fun(t + dt / 2) * (z0 + dt / 2 * k2)
              + b_fun(t + dt / 2) * _cubic_scalar(z, i + 0.5 - lag))
        k4 = (a_fun(t + dt) * (z0 + dt * k3)
              + b_fun(t + dt) * _cubic_scalar(z, i + 1 - lag))
        z[i + 1] = z0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array([_cubic_scalar(z, (nback - 1) + (steps * dt + s) / dt)
                     for s in hist_s])


def _assert_floquet_matches_per_step(orbit, steps):
    ev, _ = dde.floquet(orbit, steps=steps)
    mat = _period_map_per_step(lambda t: -orbit.p(t - orbit.tau),
                               lambda t: 1.0 - orbit.p(t), orbit.period,
                               orbit.tau, 100, steps)
    ref = np.linalg.eigvals(mat)
    ref = ref[np.argsort(-np.abs(ref))]
    np.testing.assert_allclose(np.abs(ev), np.abs(ref), rtol=0, atol=1e-12)


def test_floquet_matches_per_step_period_map(orbit):
    # 2,000 steps: blocks of 1,500 and 500
    _assert_floquet_matches_per_step(orbit, 2000)


# 4 steps: tau/dt = 3.004, blocks of one step; 100 steps: blocks of 73
# and 27
@pytest.mark.parametrize("steps", [4, 100])
def test_floquet_short_blocks_match_per_step_period_map(orbit, steps):
    _assert_floquet_matches_per_step(orbit, steps)


# tau/dt within 1e-13 of a node (offsets 0 and 1 read a row or sit next
# to one) and of a half node (offset 1/2 does), on both sides: 200 steps,
# blocks of 148 and 52
@pytest.mark.parametrize("lag", [150 - 6e-14, 150 + 6e-14, 150.5 - 6e-14,
                                 150.5 + 6e-14])
def test_period_map_near_a_node_matches_per_step(lag):
    tau, steps = 5.0, 200
    period = steps * tau / lag
    dt = period / steps
    node = round(2 * lag) / 2
    gap = tau / dt - node
    assert 0 < abs(gap) < 1e-13 and np.sign(gap) == np.sign(lag - node)
    w = 2 * np.pi / period
    a_fun = lambda t: -0.6 - 0.3 * np.cos(w * t)
    b_fun = lambda t: 0.4 + 0.5 * np.sin(w * t)
    th = dt / 2 * np.arange(2 * steps + 1)
    mat, _ = dde._period_map(a_fun(th), b_fun(th), period, tau, 100, steps)
    ref = _period_map_per_step(a_fun, b_fun, period, tau, 100, steps)
    np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-12)


def test_trig_past_matches_dense_evaluation(orbit):
    # the past mesh integrate_wright hands its history at eps 1/49, as in
    # the periodic-to-point run: uniform back from 0 but for its head,
    # clipped at -tau
    seen = []
    dde.integrate_wright(TAU, 1 / 49, lambda s: seen.append(s) or 0.0, 1.0)
    (s,) = seen
    assert s[0] == s[2] == -TAU < s[-3]
    np.testing.assert_allclose(
        dde._trig_past(orbit.values, orbit.period, s),
        dde._trig_eval(orbit.values, orbit.period, s), rtol=0, atol=1e-13)


def test_floquet_rejects_too_few_steps_per_delay(orbit):
    # three steps per period leave tau/dt near 2.3: a step of the block
    # recurrence would read rows not yet written
    steps = 3
    assert orbit.tau * steps / orbit.period < 3
    with pytest.raises(DomainError, match="at least 3 steps per delay"):
        dde.floquet(orbit, steps=steps)


def test_floquet_rejects_eps(orbit):
    o = dde.find_periodic(TAU, eps=1e-3)
    with pytest.raises(DomainError, match="covers eps = 0 orbits"):
        dde.floquet(o)


def test_adjoint_normalization(orbit):
    assert dde.resonance_pairing(orbit) == pytest.approx(1.0, abs=1e-6)


def test_periodic_orbit_is_frozen_and_left_as_it_was(orbit):
    # the spectrum and the adjoint are returned, not stored on the orbit
    before = copy.deepcopy(orbit)
    with pytest.raises(dataclasses.FrozenInstanceError):
        orbit.period = 1.0
    dde.floquet(orbit)
    dde.adjoint_periodic(orbit)
    dde.resonance_pairing(orbit)
    for f in dataclasses.fields(dde.PeriodicOrbit):
        a, b = getattr(orbit, f.name), getattr(before, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_adjoint_not_unique_at_hopf_point():
    # p = 0 at tau = 3 pi/2 and period 2 pi: cos t and sin t both solve the
    # linearized equation, so the null space is two-dimensional
    orbit = dde.PeriodicOrbit(tau=dde.HOPF_TAU, eps=0.0, period=2 * np.pi,
                              values=np.zeros(16), residual=0.0)
    with pytest.raises(NoConvergence, match="not unique"):
        dde.adjoint_periodic(orbit)


# HOPF_TAU + 0.01 has the smallest singular-value gap (about 1.3e-4 of the
# largest) that the adjoint accepts; eps > 0 needs the eps v'' term
@pytest.mark.parametrize("tau, eps", [(TAU, 0.0), (dde.HOPF_TAU + 0.01, 0.0),
                                      (TAU, 5e-3), (4.8124, 0.0204)])
def test_adjoint_solves_formal_adjoint_off_grid(tau, eps):
    # independent of the collocation: the trigonometric interpolant of the
    # adjoint samples, put into eps v'' - v' + p(t-tau) v - (1-p(t+tau)) v(t+tau)
    # at 4n times between the samples, against the largest of its terms
    orbit = dde.find_periodic(tau, eps=eps)
    v = dde.adjoint_periodic(orbit)[:, 1]
    n, om = v.size, orbit.period
    t = om * (np.arange(4 * n) + 0.5) / (4 * n)
    terms = [eps * dde._trig_eval(v, om, t, 2), -dde._trig_eval(v, om, t, 1),
             orbit.p(t - tau) * dde._trig_eval(v, om, t),
             -(1.0 - orbit.p(t + tau)) * dde._trig_eval(v, om, t + tau)]
    scale = max(np.max(np.abs(term)) for term in terms)
    assert np.max(np.abs(sum(terms))) <= 1e-10 * scale
    assert dde.resonance_pairing(orbit) == pytest.approx(1.0, abs=1e-12)


# -- connecting orbits -----------------------------------------------------

@pytest.fixture(scope="module")
def ladder_run():
    return dde.zero_to_one(5.0, 1e-2)


def test_ladder_residuals(ladder_run):
    assert ladder_run[0]["eps"] == 0.0
    assert ladder_run[-1]["eps"] == 1e-2
    for sol in ladder_run:
        assert sol["residual"] < 1e-6
        assert np.all(np.diff(sol["y"]) > -1e-10)
        assert abs(sol["y"][-1] - 1.0) < 1e-3
        assert abs(sol["y"][0]) < 1e-3


def test_ladder_newton_counts(ladder_run):
    # each warm-started rung takes two steps; the eps = 0 rung, from the
    # logistic start, four
    sols = ladder_run
    assert all(s["residual"] < dde.NEWTON_TOL for s in sols)
    assert [s["newton_steps"] for s in sols] == [4, 2, 2, 2, 2, 2]


def test_ladder_decay_rates(ladder_run):
    for sol in ladder_run:
        assert sol["decay_rate"] == pytest.approx(sol["rate_target"], rel=0.05)


def test_ladder_distances_shrink_with_eps(ladder_run):
    base = ladder_run[0]
    dists = []
    for sol in ladder_run[1:]:
        y_on_base = np.interp(base["t"], sol["t"], sol["y"])
        dists.append(float(np.max(np.abs(y_on_base - base["y"]))))
    assert all(a < b for a, b in zip(dists, dists[1:]))
    assert dists[0] < 1e-2


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_residual_matches_slice_formula(eps):
    # reference: the lag read by slicing, y(t_j - tau) = y[j - m] for j >= m
    # and kappa times the growth tail exp(z1 (t_j - tau - t_0)) for j < m;
    # unknowns and equations run node by node: x = (y_0, [w_0,] y_1, ...,
    # kappa), and the rows are y(-T) = kappa [and w(-T) = z1 kappa], each
    # box's rows, then the phase y(0) = 1/2
    tau, m = 5.0, 5
    tg, z1, x0, system = dde._zero_to_one_system(tau, eps, n_per_delay=m)
    x = x0 + 1e-2 * np.random.default_rng(3).standard_normal(x0.size)
    n, h, kappa = tg.size, tau / m, x[-1]
    nch = 1 if eps == 0 else 2
    assert x.size == nch * n + 1
    y = x[:-1:nch]
    la = np.concatenate([kappa * np.exp(z1 * (tg[:m] - tau - tg[0])),
                         y[:n - m]])
    f = la * (1.0 - y)
    if eps == 0:
        ref = [[y[0] - kappa], np.diff(y) / h - 0.5 * (f[:-1] + f[1:]),
               [y[n // 2] - 0.5]]
    else:
        w = x[1:-1:2]
        fw = (f - w) / eps
        boxes = np.column_stack([np.diff(y) / h - 0.5 * (w[:-1] + w[1:]),
                                 np.diff(w) / h - 0.5 * (fw[:-1] + fw[1:])])
        ref = [[y[0] - kappa, w[0] - z1 * kappa], boxes.ravel(),
               [y[n // 2] - 0.5]]
    np.testing.assert_allclose(system(x)[0], np.concatenate(ref),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_jacobian_matches_finite_differences(eps):
    # a coarse mesh (h = 1) keeps the full column sweep cheap; the first
    # n_per_delay rows read the lag through the kappa column
    _, _, x0, system = dde._zero_to_one_system(5.0, eps, n_per_delay=5)
    resid = lambda x: system(x)[0]
    rng = np.random.default_rng(7)
    x = x0 + 1e-2 * rng.standard_normal(x0.size)
    assert np.max(np.abs(resid(x))) > 1e-3
    step = 1e-6
    fd = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        fd[:, j] = (resid(x + e) - resid(x - e)) / (2 * step)
    jd = _dense(system(x)[1](), x.size)
    assert np.max(np.abs(fd - jd)) <= 1e-6 * np.max(np.abs(jd))


def _dense(jac, size):
    # the connection's structured Jacobian as a dense matrix, column by
    # column from its products with unit vectors
    return np.column_stack([jac @ e for e in np.eye(size)])


def _block_order(n, nch):
    # the node-by-node indices of the block layout's columns and rows
    node = nch * np.arange(n)
    cols = np.concatenate([node + k for k in range(nch)] + [[nch * n]])
    rows = np.concatenate([node[1:] + k for k in range(nch)]
                          + [np.arange(nch), [nch * n]])
    return rows, cols


def _block_jacobian(tg, z1, tau, m, eps, x):
    # the connection's Jacobian as scipy.sparse block algebra, in the block
    # layout x = (y, [w,] kappa) with rows (y-boxes, [w-boxes,] y(-T) =
    # kappa, [w(-T) = z1 kappa,] y(0) = 1/2)
    n = tg.size
    nch = 1 if eps == 0 else 2
    nvar = nch * n + 1
    ik, half = nvar - 1, n // 2
    h = tau / m
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
    bc_rows = [pick[0] - pick[ik]]
    if eps > 0:
        bc_rows.append(pick[n] - z1 * pick[ik])
    bc = sparse.vstack(bc_rows + [pick[half]])
    y = x[:n]
    la = lag @ x
    df = sparse.diags(1.0 - y) @ lag - sparse.diags(la) @ p_y
    if eps > 0:
        df = sparse.vstack([p_w, (df - p_w) / eps])
    return sparse.vstack([dif @ pick[:nch * n] - avg @ df, bc])


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_jacobian_matches_block_algebra(eps):
    # the node-by-node assembly from index arrays equals the block-algebra
    # Jacobian entry for entry at a perturbed point, once its rows and
    # columns are put in the block layout
    tau, m = 5.0, 5
    tg, z1, x0, system = dde._zero_to_one_system(tau, eps, n_per_delay=m)
    x = x0 + 1e-2 * np.random.default_rng(11).standard_normal(x0.size)
    rows, cols = _block_order(tg.size, 1 if eps == 0 else 2)
    ref = _block_jacobian(tg, z1, tau, m, eps, x[cols]).toarray()
    got = _dense(system(x)[1](), x.size)[np.ix_(rows, cols)]
    assert np.count_nonzero(ref) > 3 * tg.size
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


@pytest.mark.parametrize("tau, eps, m", [(5.0, 0.0, 5), (5.0, 0.0, 50),
                                         (5.0, 0.01, 5), (5.0, 0.01, 50),
                                         (25.0, 0.0, 50)])
def test_connection_block_solve_matches_splu(tau, eps, m):
    # the block solve (forward substitution one delay block at a time, then
    # the kappa border) equals a sparse LU of the block-algebra Jacobian at
    # the logistic start.  At tau 25 one block solve leaves J dx - r at
    # 1.5e-8 |r|, so the refinement step runs there and nowhere else.  The
    # LU keeps the natural column order, which also eliminates the left tail
    # first: at tau 25 (kappa ~ 1e-14) points 2.4e-4 apart both leave
    # J dx - r at 1e-16, and COLAMD's order lands on another of them
    tg, z1, x0, system = dde._zero_to_one_system(tau, eps, n_per_delay=m)
    r, jac = system(x0)
    j = jac()
    dx = dde._direct(system)(x0)[1]()(r)
    rows, cols = _block_order(tg.size, 1 if eps == 0 else 2)
    ref = splu(_block_jacobian(tg, z1, tau, m, eps, x0[cols]).tocsc(),
               permc_spec="NATURAL").solve(r[rows])
    assert np.max(np.abs(dx[cols] - ref)) <= 1e-12 * np.max(np.abs(ref))
    raw = np.max(np.abs(j @ j.solve(r) - r))
    assert (raw > dde.REFINE_TOL * np.max(np.abs(r))) == (tau == 25.0)
    # O(n) storage: bands, columns and coefficients of a few entries per
    # unknown, where a band reaching the lag would hold 2 m + 4
    arrays = [v for v in vars(j).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 6
    assert all(v.size <= 5 * x0.size for v in arrays)


@pytest.mark.parametrize("tau", [25.0, 50.0])
def test_connection_solve_refines_to_rounding(tau):
    # the block solve's kappa response z grows with the left tail (1e20 at
    # tau 25), so one solve leaves J dx - r at 1.5e-8 |r| (tau 25) and
    # 1.9e-4 |r| (tau 50) at the logistic start; the solve's refinement
    # step brings it to 6.9e-16 and 4.7e-16 |r|
    _, _, x0, system = dde._zero_to_one_system(tau, 0.0)
    r, jac = system(x0)
    dx = dde._direct(system)(x0)[1]()(r)
    assert np.max(np.abs(jac() @ dx - r)) < 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("tau", [45.0, 55.0])
def test_zero_to_one_converges_at_large_delay(tau):
    # the left end of the mesh sits where y is about kappa ~ 1e-25 and
    # cond(J) ~ 1e17; the node-order block solve eliminates kappa last and
    # converges here in 7-8 steps
    (sol,) = dde.zero_to_one(tau, 0.0)
    assert sol["residual"] < dde.NEWTON_TOL
    assert 0.0 < sol["kappa"] < 1e-20
    assert np.all(np.diff(sol["y"]) > -1e-10)
    assert sol["decay_rate"] == pytest.approx(sol["rate_target"], rel=0.05)


def test_periodic_to_point_settles():
    sol = dde.periodic_to_point(TAU, 0.0)
    assert abs(sol["y"][-1] - 1.0) < 1e-3
    assert sol["decay_rate"] == pytest.approx(sol["rate_target"], rel=0.05)


def test_periodic_to_point_solves_the_orbit_once(monkeypatch):
    # the run at eps > 0 takes its Floquet mode from the eps = 0 rung of
    # its own orbit ladder, not from a second find_periodic(tau, 0)
    calls, modes = [], []
    find, floq = dde.find_periodic, dde.floquet

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    def recorded(*args, **kwargs):
        out = floq(*args, **kwargs)
        modes.append(out[1])
        return out

    monkeypatch.setattr(dde, "find_periodic", counted)
    monkeypatch.setattr(dde, "floquet", recorded)
    sol = dde.periodic_to_point(TAU, 5e-3)
    monkeypatch.undo()
    assert calls == [(TAU, 5e-3)] and len(modes) == 1
    base = sol["orbit"].base
    assert base.eps == 0.0 and base.base is None
    mesh, mode = dde.floquet(dde.find_periodic(TAU, 0.0))[1]
    assert np.array_equal(modes[0][0], mesh)
    assert np.array_equal(modes[0][1], mode)


# the periodic-to-point runs of test_10 (TAU, eps 0 and 5e-3) and of the
# benchmark's `semiwave --proper` (c = 7 and 14.14), and eps = 0 at its tau
@pytest.mark.parametrize("tau, eps", [
    (TAU, 0.0), (TAU, 5e-3), (4.8124, 1 / 49), (4.8124, 1 / 14.14 ** 2),
    (4.8124, 0.0)])
def test_periodic_to_point_stop_is_exact(monkeypatch, tau, eps):
    # the run stops once settled; it is a prefix of the run to P2P_T_MAX
    # with no stop test, and its settle time and decay fit are the same
    a = dde.periodic_to_point(tau, eps)
    monkeypatch.setattr(dde, "_settle_test", lambda tau: None)
    b = dde.periodic_to_point(tau, eps)
    n = a["t"].size
    assert a["delta"] == b["delta"]
    assert b["t"][-1] >= dde.P2P_T_MAX and n < b["t"].size
    assert np.array_equal(a["t"], b["t"][:n])
    assert np.array_equal(a["y"], b["y"][:n])
    assert a["settle_time"] == pytest.approx(b["settle_time"], rel=1e-12)
    assert a["decay_rate"] == pytest.approx(b["decay_rate"], rel=1e-12)
    # the window test_10 reads is there, and the run ends one to two delays
    # after |y - 1| last reaches the fit floor
    assert a["t"][-1] >= a["settle_time"] + 5.0 * tau
    floor = a["t"][np.nonzero(np.abs(a["y"] - 1.0) >= dde.P2P_FIT_FLOOR)[0][-1]]
    assert floor + tau < a["t"][-1] < floor + 2.0 * tau


def test_settle_test_waits_for_the_fit_floor():
    # y stays within 1e-3 of 1, so only the fit floor holds the run: it
    # stops at the first block end a delay past the last |y - 1| >= 1e-10
    dt, tau = 0.01, 1.0
    y = 1.0 - 1e-4 * np.exp(-dt * np.arange(3000))
    floor = dt * np.nonzero(np.abs(y - 1.0) >= dde.P2P_FIT_FLOOR)[0][-1]
    stop = dde._settle_test(tau)
    ends = [k for k in range(49, y.size, 49) if stop(y[:k + 1], dt)]
    assert floor + tau < dt * ends[0] <= floor + tau + 0.49


def test_periodic_to_point_cap_still_fails(monkeypatch):
    # a cap below the settle time (40.7) leaves the run unsettled
    monkeypatch.setattr(dde, "P2P_T_MAX", 30.0)
    with pytest.raises(NoConvergence, match="did not settle at 1 within t=30"):
        dde.periodic_to_point(TAU, 0.0)


# -- semi-wavefronts --------------------------------------------------------

def test_semiwave_zero_to_one(ladder_run):
    # eps = 1/10^2 is the ladder run's 1e-2: the profile is 1 - y(-t/c) of
    # that run's last rung, bit for bit
    c = 10.0
    sol, prof = dde.semiwave(5.0, c)
    y, t = ladder_run[-1]["y"], ladder_run[-1]["t"]
    assert sol["eps"] == ladder_run[-1]["eps"]
    assert np.array_equal(sol["y"], y)
    assert np.array_equal(prof.values, 1.0 - y[::-1])
    assert (prof.t0, prof.dt) == (-c * t[-1], -c * t[-2] + c * t[-1])
    assert prof.tail_period is None and prof.right_limit == 1.0
    assert prof.values.min() >= -1e-12
    assert prof.values.max() == pytest.approx(1.0, abs=1e-6)
    assert prof.values[0] * math.exp(-50.0 * prof.left_rate) < 1e-6


@pytest.mark.parametrize("c", [1.5, 1e160])
@pytest.mark.parametrize("proper", [False, True])
def test_semiwave_refuses_speed_before_solving(monkeypatch, c, proper):
    # below c = 2 there is no semi-wavefront; at c = 1e160, c^2 overflows
    # and eps = 1/c^2 is 0, the limit with no finite speed
    def solve(*args, **kwargs):
        raise AssertionError("no connection may be solved")
    monkeypatch.setattr(dde, "zero_to_one", solve)
    monkeypatch.setattr(dde, "periodic_to_point", solve)
    with pytest.raises(DomainError,
                       match="c >= 2" if c < 2 else "no finite wave speed"):
        dde.semiwave(5.0, c, proper=proper)


# the profiles leave 0 at lam(c), not at the delay equation's growth rate
# over c (0.0265 at tau 5, c 10) or 1/c (0.4545 at c 2.2)
@pytest.mark.parametrize("tau, c, proper", [(5.0, 10.0, False),
                                            (5.0, 2.5, False),
                                            (4.8124, 2.2, True)])
def test_semiwave_left_rate_is_lam(tau, c, proper):
    _, prof = dde.semiwave(tau, c, proper=proper)
    lam = quad_roots(c)[0]
    assert prof.left_rate == lam
    edge = (prof.values > 1e-12) & (prof.values < 1e-5)
    assert edge.sum() > 10
    fit = np.polyfit(prof.grid[edge], np.log(prof.values[edge]), 1)[0]
    assert fit == pytest.approx(lam, rel=1e-2)


def test_semiwave_periodic_tail():
    c = 1.0 / math.sqrt(5e-3)
    _, prof = dde.semiwave(TAU, c, proper=True)
    assert prof.tail_period == pytest.approx(2 * math.pi * c, rel=0.1)
    tail = prof.tail_mesh
    assert tail.min() < 1.0 < tail.max()
    d = np.diff(tail)
    assert int(np.sum(np.sign(d[1:]) != np.sign(d[:-1]))) == 2
