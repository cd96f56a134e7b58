"""End-to-end acceptance gate: one test per headline claim of the package.

Each test checks one numbered capability with its stated tolerance and a
wall-time budget, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.
"""
import cmath
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from nlkpp import cli, dde, pdesim, profiles as pf, regimes as rg
from nlkpp import kernels as ker
from nlkpp import spectral as sp

from spline import spline


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.seconds


def test_01_quadratic_root_identities():
    with Budget(1.0):
        for c in (2.0, 2.1, 2.5, 3.0, 10.0, 100.0):
            lam, mu = sp.quad_roots(c)
            assert abs(lam * mu - 1.0) < 1e-12
            assert abs(lam + mu - c) < 1e-12
        assert sp.quad_roots(2.5) == (0.5, 2.0)


def test_02_quasipolynomial_root_census():
    with Budget(5.0):
        r1 = sp.chi1_roots(1.0)
        assert r1.count == 1
        assert r1.roots[0].real == pytest.approx(0.5671432904097838, abs=1e-6)
        r5 = sp.chi1_roots(5.0)
        assert r5.count == 3
        z1 = max(z.real for z in r5.roots if abs(z.imag) < 1e-12)
        assert 0.0 < z1 < 1.0
        assert all(z.real < z1 for z in r5.roots if abs(z.imag) > 1e-12)
        tau_c = 1.5 * math.pi
        assert abs(1j - cmath.exp(-tau_c * 1j)) <= 1e-12


def test_03_piecewise_toy_model():
    with Budget(5.0):
        ctau = 2.0 * math.log(1.5)
        assert abs(sp.toy_steady_roots(2.5, ctau, -0.5 + 0j) + 0.5) < 1e-12
        _, consts = pf.toy_fronts()
        assert consts["z4"] == pytest.approx(-4.035, abs=1e-3)
        assert consts["x0"] == pytest.approx(-6.2402, abs=1e-3)
        assert consts["y0"] == pytest.approx(10.054, abs=1e-3)
        assert consts["a"] == pytest.approx(0.2878, abs=5e-4)
        assert consts["b"] == pytest.approx(0.2122, abs=5e-4)
        for name in ("phi1", "phi2", "phi3"):
            assert consts[name + "_diagnostics"][
                "residual_outside_window"] <= 1e-10
        assert consts["phi1_diagnostics"]["residual_window_sup"] == (
            pytest.approx(1.0 / 12.0, abs=1e-6))


def test_04_negative_root_classification():
    with Budget(2.0):
        for h in (0.5, 1.0, 2.0):
            for c in (2.0, 2.5, 3.0):
                root, _ = sp.monotone_front_root(c, ker.dirac(-h))
                assert root is not None and root < 0
        absent, _ = sp.monotone_front_root(2.5, ker.dirac(5.0))
        assert absent is None


def test_05_oscillation_band_geometry():
    with Budget(10.0):
        geo = rg.pP_feasible_set(0.0, 0.3, P_cap=2.0, grid_n=400)
        assert abs(geo["p_min"] - 1.0) <= 2.5e-3
        assert abs(geo["P_max"] - 1.0) <= 2.5e-3
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(0.05, 0.95)
            ap = s * rng.uniform(0.05, 0.95)
            am = s - ap
            p_star, P_star = rg.a_star(ap, am)
            lower, upper = rg.band_inequalities(p_star, P_star, ap, am)
            assert abs(lower - 1.0) < 1e-12
            assert abs(upper - 1.0) < 1e-12
        assert rg.estm_bound(0.1, 0.2) == pytest.approx(7.70156, abs=1e-4)


def _shooting_oracle(c):
    nu = (c - math.sqrt(c * c + 4.0)) / 2.0
    d = 1e-8
    sol = solve_ivp(lambda t, y: [y[1], c * y[1] - y[0] * (1.0 - y[0])],
                    (0.0, -80.0), [1.0 - d, -nu * d], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    ts = np.linspace(0, -80, 40001)
    i = int(np.argmax(sol.sol(ts)[0] < 0.5))
    th = brentq(lambda t: sol.sol(t)[0] - 0.5, ts[i - 1], ts[i])

    def oracle(t):
        t = np.asarray(t, float)
        out = np.empty(t.shape)
        ins = t + th <= 0
        out[ins] = sol.sol(np.minimum(t[ins] + th, 0.0))[0]
        out[~ins] = 1.0 - d * np.exp(nu * (t[~ins] + th))
        return out

    return oracle


def _front_invariants(prof, ctx):
    v = prof.values
    assert v.min() > 0.0
    assert v.max() <= rg.u_bound(ctx.c, ctx.kernel) + 1e-6
    dv = np.gradient(v, prof.dt)
    assert np.all(dv < ctx.lam * v + 1e-8)


def test_06_front_construction():
    with Budget(60.0):
        # local interaction, c = 3: against an independent shooting solution
        ctx = pf.WaveContext(3.0, ker.dirac(0.0))
        prof = pf.solve_front(ctx)
        assert prof.diagnostics["residual_sup"] < 1e-6
        tg = np.linspace(-12.0, 12.0, 4001)
        assert np.max(np.abs(spline(prof, tg)
                             - _shooting_oracle(3.0)(tg))) < 1e-3
        _front_invariants(prof, ctx)

        # advanced interaction: monotone converged front
        ctx_a = pf.WaveContext(2.5, ker.dirac(-0.5))
        prof_a = pf.solve_front(ctx_a)
        assert prof_a.diagnostics["monotone"]
        assert prof_a.diagnostics["residual_sup"] < 1e-6
        _front_invariants(prof_a, ctx_a)

        # delayed interaction: oscillating front within the admissible band
        ctx_d = pf.WaveContext(2.5, ker.dirac(5.0))
        prof_d = pf.solve_front(ctx_d, dt=0.005)
        d = prof_d.diagnostics
        assert not d["monotone"]
        p, P = d["p"], d["P"]
        ap = ker.alpha_plus(ctx_d.kernel, 2.5)
        am = ker.alpha_minus(ctx_d.kernel, 2.5)
        lower, upper = rg.band_inequalities(p, P, ap, am)
        assert lower - 1.0 >= -1e-6
        assert 1.0 - upper >= -1e-6
        chk = rg.mM_inequality_check(-math.log(P), -math.log(p), 2.5,
                                     ctx_d.kernel)
        assert chk["holds1"] and chk["holds2"]
        _front_invariants(prof_d, ctx_d)


def test_07_monotone_operator_properties():
    with Budget(30.0):
        ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
        t_lo, dt, n = pf.default_grid(ctx, 0.05)
        for val in (0.0, 1.0, 2.0 * ctx.beta):
            prof = pf.Profile(t_lo, dt, np.full(n, val), left_limit=val,
                              right_limit=val)
            out = pf.am_apply(prof, ctx)
            assert np.max(np.abs(out.values - val)) < 1e-10
        rng = np.random.default_rng(7)
        tg = t_lo + dt * np.arange(n)
        cap = 2 * ctx.beta
        for _ in range(20):
            base = cap / (1.0 + np.exp(
                -rng.uniform(0.2, 1.0) * (tg - rng.uniform(-3, 3))))
            gap = rng.uniform(0.0, 0.2) * np.exp(-0.1 * np.abs(tg))
            lo = np.clip(base - gap, 0.0, cap)
            hi = np.clip(base + gap, 0.0, cap)
            alo = pf.am_apply(pf.Profile(t_lo, dt, lo, left_limit=0.0,
                                         right_limit=lo[-1]), ctx)
            ahi = pf.am_apply(pf.Profile(t_lo, dt, hi, left_limit=0.0,
                                         right_limit=hi[-1]), ctx)
            assert np.all(alo.values <= ahi.values + 1e-9)
        up = pf.kpp_upper_front(ctx, dt=0.01)
        low = pf.lower_solution(ctx, upper=up)
        cur = pf.Profile(up.t0, up.dt, up.values.copy(), left_limit=0.0,
                         right_limit=up.right_limit, left_rate=ctx.lam)
        for _ in range(5):
            cur = pf.am_apply(cur, ctx)
            cur.left_rate = ctx.lam
            assert np.all(cur.values <= up.values * 1.005 + 1e-6)
            assert np.all(cur.values >= low.values * 0.995 - 1e-6)


def test_08_periodic_orbit_at_onset():
    with Budget(60.0):
        tau = dde.HOPF_TAU + 0.1
        orbit = dde.find_periodic(tau)
        assert orbit.period == pytest.approx(2 * math.pi, rel=0.05)
        assert orbit.amplitude == pytest.approx(0.3635, rel=0.15)
        o2 = dde.find_periodic(dde.HOPF_TAU + 0.05)
        r1 = orbit.amplitude / math.sqrt(0.1)
        r2 = o2.amplitude / math.sqrt(0.05)
        assert r1 / r2 == pytest.approx(1.0, abs=0.1)
        assert orbit.critical_points() == 2


def test_09_orbit_stability_spectrum():
    with Budget(120.0):
        orbit = dde.find_periodic(dde.HOPF_TAU + 0.1)
        mods = np.abs(dde.floquet(orbit, n_disc=100)[0])
        assert min(abs(m - 1.0) for m in mods) < 1e-2
        assert int(np.sum(mods > 1.0 + 1e-3)) == 1
        assert dde.resonance_pairing(orbit) == pytest.approx(1.0, abs=1e-6)
        m1 = np.sort(mods)[::-1][:3]
        m2 = np.sort(np.abs(dde.floquet(orbit, n_disc=200)[0]))[::-1][:3]
        assert np.max(np.abs(m1 - m2) / m2) < 1e-2


def test_10_connecting_orbits():
    with Budget(300.0):
        # monotone connections along the singular ladder
        sols = {0.0: None}
        for eps in (1e-3, 5e-3, 1e-2):
            rungs = dde.zero_to_one(5.0, eps)
            if sols[0.0] is None:
                sols[0.0] = rungs[0]
            sols[eps] = rungs[-1]
        base = sols[0.0]
        dists = []
        for eps in (0.0, 1e-3, 5e-3, 1e-2):
            sol = sols[eps]
            assert sol["residual"] < 1e-6
            assert sol["decay_rate"] == pytest.approx(sol["rate_target"],
                                                      rel=0.05)
            if eps > 0:
                y_on_base = np.interp(base["t"], sol["t"], sol["y"])
                dists.append(float(np.max(np.abs(y_on_base - base["y"]))))
        assert dists[0] < dists[1] < dists[2]

        # periodic-to-point connections and the mapped oscillating profile
        tau = dde.HOPF_TAU + 0.1
        for eps in (0.0, 5e-3):
            sol = dde.periodic_to_point(tau, eps)
            late = sol["t"] >= sol["settle_time"] + 5.0 * tau
            assert np.max(np.abs(sol["y"][late] - 1.0)) < 1e-3
            if eps > 0:
                c = 1.0 / math.sqrt(eps)
                _, prof = dde.semiwave(tau, c, proper=True)
                assert prof.tail_period == pytest.approx(2 * math.pi * c,
                                                         rel=0.1)
                tail = prof.tail_mesh
                assert tail.min() < 1.0 < tail.max()
                dtail = np.diff(tail)
                assert int(np.sum(np.sign(dtail[1:])
                                  != np.sign(dtail[:-1]))) == 2


def test_11_direct_simulation_speed():
    with Budget(60.0):
        state = pdesim.initial_state(ker.dirac(0.0))
        dt = 0.4 * state.dx ** 2
        n_steps = int(round(40.0 / dt))
        record_every = max(1, int(round(0.5 / dt)))
        for i in range(n_steps):
            pdesim.step(state, dt)
            assert state.u.min() >= -1e-12
            if (i + 1) % record_every == 0:
                state.times.append(state.t)
                state.fronts.append(pdesim.front_position(state))
        speed = pdesim.front_speed(state)
        assert speed == pytest.approx(2.0, rel=0.05)
        fine = pdesim.measure_speed(dx=0.1, T=40.0)
        assert fine["u_min"] >= -1e-12
        assert abs(fine["speed"] - speed) / speed < 0.02


def test_12_monotone_front_for_far_advanced_atom(tmp_path):
    # the monotone half of the paper's coexistence claim at tau = 4.8124,
    # c = 14.14: K = delta(s + tau c) meets the monotone-front criterion,
    # and `front` returns a monotone profile (Picard ends at diff 2.27
    # after 5,000 sweeps here and exits 2)
    with Budget(20.0):
        c, s = 14.14, -68.047
        root, _ = sp.monotone_front_root(c, ker.dirac(s))
        assert root is not None and root < 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": {"atoms": [{"s": s,
                                                         "mass": 1.0}]},
                                   "dt": 0.05}))
        out = tmp_path / "out"
        code = cli.main(["front", "--c", str(c), "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "front.json").read_text())
        assert rep["solver"] == "newton-krylov" and rep["monotone"] is True
        assert rep["residual"] < 5e-5
        phi = np.loadtxt(out / "front.csv", delimiter=",", skiprows=1,
                         usecols=1)
        assert np.all(np.diff(phi) > -1e-10)
        assert 0.0 < phi.min() and phi.max() <= rg.u_bound(c, ker.dirac(s))
        assert phi.max() == pytest.approx(1.0, abs=1e-4)


# measured sup gaps 3.8e-6, 9.2e-7 and 1.4e-5; each bound is about 3x its gap
@pytest.mark.parametrize("a, c, dt, bound", [
    (0.5, 2.5, 0.01, 1.2e-5), (2.0, 3.0, 0.005, 3e-6),
    (5.0, 2.5, 0.01, 4.5e-5),
], ids=["a0.5-c2.5", "a2-c3", "a5-c2.5"])
def test_13_front_and_semiwave_agree_on_advanced_atoms(a, c, dt, bound):
    # on K = delta(s + a) the front equation at speed c is the delay
    # equation at tau = a/c, eps = 1/c^2, so two independent solvers (a
    # Newton-Krylov front from the monotone-front root, and the zero-to-one
    # connection from the delay equation's growth rate) give one profile
    with Budget(5.0):
        front = pf.solve_front(pf.WaveContext(c, ker.dirac(-a)), dt=dt)
        _, wave = dde.semiwave(a / c, c)
        t = np.linspace(-20.0, 20.0, 4001)
        assert np.max(np.abs(spline(front, t) - spline(wave, t))) < bound


def test_oversized_connection_mesh_is_refused_before_the_ladder(tmp_path,
                                                                 capsys):
    # the mesh grows with eps: the target's 240,721 nodes are refused at
    # once, where the climb to it took 31 rungs, up to 176,573 nodes
    with Budget(5.0):
        code = cli.main(["connect", "--tau", "5", "--eps", "1e6",
                         "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "needs more than 200000 nodes" in err
