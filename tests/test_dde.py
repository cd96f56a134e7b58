import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from nlkpp import dde
from nlkpp.spectral import DomainError, NoConvergence

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
    assert tr.escaped
    assert tr.escape_time is not None and tr.escape_time < 200.0


def test_second_order_relaxes_to_one():
    tr = dde.integrate_wright(2.0, 5e-3, lambda s: 0.9, 30.0)
    assert not tr.escaped
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
    assert tr.escaped is escapes
    assert tr.escape_time == esc_t
    _assert_close_to(tr.y, ref, 1e-12)


def test_integrate_wright_shadowing_matches_per_step_loop(orbit):
    # the orbit's unstable direction amplifies rounding differences once the
    # run departs from the orbit (3e-11 at most, seen), so the run is held
    # to 1e-12 while it shadows the orbit and to 1e-10 after
    hist = lambda s: orbit.p(s) * (1.0 + 1e-6)
    tr = dde.integrate_wright(TAU, 0.0, hist, 300.0, dt=TAU / 400.0)
    ref, esc_t = _wright_per_step(TAU, 0.0, hist, 300.0, dt=TAU / 400.0)
    assert not tr.escaped and esc_t is None
    early = tr.t < 3 * orbit.period
    _assert_close_to(tr.y[early], ref[early], 1e-12)
    _assert_close_to(tr.y, ref, 1e-10)


@pytest.mark.parametrize("dt", [3.0, 1.0])
def test_integrate_wright_rejects_step_not_below_delay(dt):
    with pytest.raises(DomainError):
        dde.integrate_wright(1.0, 0.0, lambda s: 0.3, 5.0, dt=dt)


def test_integrate_wright_step_just_below_delay():
    # nlag = 2: every step reads its lag from rows written before it
    tr = dde.integrate_wright(1.0, 0.0, lambda s: 0.3, 5.0, dt=0.9)
    ref, _ = _wright_per_step(1.0, 0.0, lambda s: 0.3, 5.0, dt=0.9)
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


def test_sqrt_amplitude_scaling(orbit):
    o2 = dde.find_periodic(dde.HOPF_TAU + 0.05)
    r1 = orbit.amplitude / math.sqrt(0.1)
    r2 = o2.amplitude / math.sqrt(0.05)
    assert r1 / r2 == pytest.approx(1.0, abs=0.1)


def test_orbit_below_hopf_raises():
    with pytest.raises(DomainError):
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
        dde._newton(system, x0)


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
        x, _ = dde._newton(dde._orbit_system(4.8124, e, p, om),
                           np.append(p, om))
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
    # spsolve warns and returns nan on an exactly singular matrix; the
    # warning becomes NoConvergence and does not leak
    system = lambda x: (x - 1.0, lambda: sparse.csc_matrix((2, 2)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NoConvergence, match="exactly singular"):
            dde._newton(system, np.zeros(2))
    assert not seen


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
    with pytest.raises(DomainError):
        dde._continue(solve, eps)


def test_orbit_eps_continuation():
    o = dde.find_periodic(TAU, eps=5e-3)
    assert o.residual < 1e-10
    assert o.eps == 5e-3
    assert abs(o.gamma) < 0.05
    assert o.period == pytest.approx((1.0 + o.gamma) * 6.4075, rel=1e-3)


# -- Floquet and adjoint ---------------------------------------------------

def test_floquet_spectrum(orbit):
    ev = dde.floquet(orbit)
    mods = np.abs(ev)
    assert min(abs(m - 1.0) for m in mods) < 1e-2          # trivial
    assert int(np.sum(mods > 1.0 + 1e-3)) == 1             # one unstable
    inside = np.sort(mods)[::-1][2:]
    assert np.all(inside < 1.0 - 1e-3)


def test_floquet_doubling_stability(orbit):
    e1 = np.sort(np.abs(dde.floquet(orbit, n_disc=100)))[::-1][:3]
    e2 = np.sort(np.abs(dde.floquet(orbit, n_disc=200)))[::-1][:3]
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


def test_floquet_matches_per_step_period_map(orbit):
    ev = dde.floquet(orbit)
    mat = _period_map_per_step(lambda t: -orbit.p(t - orbit.tau),
                               lambda t: 1.0 - orbit.p(t), orbit.period,
                               orbit.tau, 100, 2000)
    ref = np.linalg.eigvals(mat)
    ref = ref[np.argsort(-np.abs(ref))]
    np.testing.assert_allclose(np.abs(ev), np.abs(ref), rtol=0, atol=1e-12)


def test_floquet_rejects_too_few_steps_per_delay(orbit):
    # three steps per period leave tau/dt near 2.3: a step of the block
    # recurrence would read rows not yet written
    steps = 3
    assert orbit.tau * steps / orbit.period < 3
    with pytest.raises(DomainError):
        dde.floquet(orbit, steps=steps)


def test_floquet_rejects_eps(orbit):
    o = dde.find_periodic(TAU, eps=1e-3)
    with pytest.raises(DomainError):
        dde.floquet(o)


def test_adjoint_normalization(orbit):
    dde.adjoint_periodic(orbit)
    assert dde.resonance_pairing(orbit) == pytest.approx(1.0, abs=1e-6)


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
    dde.adjoint_periodic(orbit)
    v = orbit.adjoint[:, 1]
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
    return dde.heteroclinic(5.0, 1e-2)


def test_ladder_residuals(ladder_run):
    assert ladder_run.eps_ladder[0] == 0.0
    assert ladder_run.eps_ladder[-1] == 1e-2
    for sol in ladder_run.solutions:
        assert sol["residual"] < 1e-6
        assert np.all(np.diff(sol["y"]) > -1e-10)
        assert abs(sol["y"][-1] - 1.0) < 1e-3
        assert abs(sol["y"][0]) < 1e-3


def test_ladder_decay_rates(ladder_run):
    for fit, target in ladder_run.decay_fits:
        assert fit == pytest.approx(target, rel=0.05)


def test_ladder_distances_shrink_with_eps(ladder_run):
    base = ladder_run.solutions[0]
    dists = []
    for sol in ladder_run.solutions[1:]:
        y_on_base = np.interp(base["t"], sol["t"], sol["y"])
        dists.append(float(np.max(np.abs(y_on_base - base["y"]))))
    assert all(a < b for a, b in zip(dists, dists[1:]))
    assert dists[0] < 1e-2


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_residual_matches_slice_formula(eps):
    # reference: the lag read by slicing, y(t_j - tau) = y[j - m] for j >= m
    # and kappa times the growth tail exp(z1 (t_j - tau - t_0)) for j < m
    tau, m = 5.0, 5
    tg, z1, x0, system = dde._zero_to_one_system(tau, eps, n_per_delay=m)
    x = x0 + 1e-2 * np.random.default_rng(3).standard_normal(x0.size)
    n, h, kappa = tg.size, tau / m, x[-1]
    y = x[:n]
    la = np.concatenate([kappa * np.exp(z1 * (tg[:m] - tau - tg[0])),
                         y[:n - m]])
    f = la * (1.0 - y)
    if eps == 0:
        ref = [np.diff(y) / h - 0.5 * (f[:-1] + f[1:]),
               [y[0] - kappa, y[n // 2] - 0.5]]
    else:
        w = x[n:2 * n]
        fw = (f - w) / eps
        ref = [np.diff(y) / h - 0.5 * (w[:-1] + w[1:]),
               np.diff(w) / h - 0.5 * (fw[:-1] + fw[1:]),
               [y[0] - kappa, w[0] - z1 * kappa, y[n // 2] - 0.5]]
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
    jd = system(x)[1]().toarray()
    assert np.max(np.abs(fd - jd)) <= 1e-6 * np.max(np.abs(jd))


def test_periodic_to_point_settles():
    run = dde.heteroclinic(TAU, 0.0, kind="periodic-to-point")
    sol = run.solutions[0]
    assert abs(sol["y"][-1] - 1.0) < 1e-3
    fit, target = run.decay_fits[0]
    assert fit == pytest.approx(target, rel=0.05)


def test_unknown_kind_raises():
    with pytest.raises(DomainError):
        dde.heteroclinic(5.0, 0.0, kind="saddle-to-saddle")


# -- wavefront mapping -----------------------------------------------------

def test_to_wavefront_zero_to_one(ladder_run):
    c = 1.0 / math.sqrt(1e-2)
    prof = dde.to_wavefront(ladder_run, c)
    assert prof.values.min() >= -1e-12
    assert prof.values.max() == pytest.approx(1.0, abs=1e-6)
    assert prof(prof.t0 - 50.0) < 1e-6


def test_to_wavefront_requires_matching_speed(ladder_run):
    with pytest.raises(DomainError):
        dde.to_wavefront(ladder_run, 7.0)


def test_to_wavefront_rejects_limit_run():
    run = dde.heteroclinic(5.0, 0.0)
    with pytest.raises(DomainError):
        dde.to_wavefront(run, 10.0)


def test_to_wavefront_periodic_tail():
    eps = 5e-3
    c = 1.0 / math.sqrt(eps)
    run = dde.heteroclinic(TAU, eps, kind="periodic-to-point")
    prof = dde.to_wavefront(run, c)
    assert prof.tail_period == pytest.approx(2 * math.pi * c, rel=0.1)
    tail = prof.tail_mesh
    assert tail.min() < 1.0 < tail.max()
    d = np.diff(tail)
    assert int(np.sum(np.sign(d[1:]) != np.sign(d[:-1]))) == 2
