import math

import numpy as np
import pytest

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


def test_floquet_rejects_eps(orbit):
    o = dde.find_periodic(TAU, eps=1e-3)
    with pytest.raises(DomainError):
        dde.floquet(o)


def test_adjoint_normalization(orbit):
    dde.adjoint_periodic(orbit)
    assert dde.resonance_pairing(orbit) == pytest.approx(1.0, abs=1e-6)


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
    tg, z1, x0, resid, _ = dde._zero_to_one_system(tau, eps, n_per_delay=m)
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
    np.testing.assert_allclose(resid(x), np.concatenate(ref),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_connection_jacobian_matches_finite_differences(eps):
    # a coarse mesh (h = 1) keeps the full column sweep cheap; the first
    # n_per_delay rows read the lag through the kappa column
    _, _, x0, resid, jac = dde._zero_to_one_system(5.0, eps, n_per_delay=5)
    rng = np.random.default_rng(7)
    x = x0 + 1e-2 * rng.standard_normal(x0.size)
    assert np.max(np.abs(resid(x))) > 1e-3
    step = 1e-6
    fd = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        fd[:, j] = (resid(x + e) - resid(x - e)) / (2 * step)
    jd = jac(x).toarray()
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
