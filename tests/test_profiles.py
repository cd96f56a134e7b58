import math
import re

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import gmres

from nlkpp import DomainError, InvariantViolation, NoConvergence
from nlkpp import kernels as ker
from nlkpp import profiles as pf
from nlkpp import solver

from spline import spline


# -- Profile container -----------------------------------------------------

def _ramp_profile():
    t = np.linspace(-5.0, 5.0, 201)
    vals = 1.0 / (1.0 + np.exp(-t))
    return pf.Profile(-5.0, t[1] - t[0], vals, left_limit=0.0,
                      right_limit=1.0, left_rate=1.0)


def test_profile_interpolates_inside():
    p = _ramp_profile()
    assert spline(p, 0.0) == pytest.approx(0.5, abs=1e-6)
    assert spline(p, 1.23) == pytest.approx(1.0 / (1.0 + math.exp(-1.23)),
                                            abs=1e-6)


@pytest.mark.parametrize("t", [-5.0 - 1e-9, 5.0 + 1e-9,
                               [0.0, 5.0 + 1e-9], float("nan")])
def test_profile_refuses_evaluation_outside_its_grid(t):
    # the tails are declared for the grid operators, not evaluated
    with pytest.raises(DomainError, match="outside its grid"):
        spline(_ramp_profile(), t)


def test_profile_evaluates_at_both_grid_ends():
    p = _ramp_profile()
    assert spline(p, p.grid[[0, -1]]) == pytest.approx(p.values[[0, -1]],
                                                       abs=1e-15)


@pytest.mark.parametrize("tail", [{"tail_mesh": np.ones(5), "tail_period": -1.0},
                                  {"tail_mesh": np.ones(5)},
                                  {"tail_period": 1.0},
                                  {"tail_mesh": np.ones(5), "tail_period": 0.0}])
def test_profile_periodic_tail_needs_mesh_and_period(tail):
    # refused when built, not at the first evaluation beyond the grid
    with pytest.raises(DomainError, match="needs both tail_mesh and"):
        pf.Profile(0.0, 0.1, np.linspace(0.0, 1.0, 11), **tail)


def test_grid_operator_refuses_a_periodic_tail():
    # the grid convolution closes the right end with a constant tail, so a
    # periodic one is outside what the operator covers
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    t_lo, dt, n = pf.default_grid(ctx, 0.05)
    prof = pf.Profile(t_lo, dt, np.ones(n), left_limit=1.0,
                      tail_mesh=np.ones(5), tail_period=1.0)
    with pytest.raises(DomainError, match="needs a constant right tail"):
        pf.am_apply(prof, ctx)
    with pytest.raises(DomainError, match="needs a constant right tail"):
        pf.residual(prof, ctx.c, ctx.kernel)


# -- context and envelopes -------------------------------------------------

@pytest.mark.parametrize("c", [3.0, 1e3, 1e6])
def test_wave_context_constants(c):
    ctx = pf.WaveContext(c, ker.dirac(0.0))
    assert ctx.z1 < 0 < ctx.z2
    assert ctx.z1 * ctx.z2 == pytest.approx(-ctx.b, rel=1e-12)
    assert ctx.z1 + ctx.z2 == pytest.approx(ctx.c, rel=1e-12)
    assert ctx.b > 2 * ctx.beta + 2


@pytest.mark.parametrize("dt, msg", [
    (0.0, "dt > 0"), (-0.01, "dt > 0"), (1e-300, "exceeds 1000000"),
    (float("nan"), "dt > 0"),
])
def test_default_grid_rejects_bad_step(dt, msg):
    ctx = pf.WaveContext(3.0, ker.dirac(0.0))
    with pytest.raises(DomainError, match=msg):
        pf.default_grid(ctx, dt)


def test_g_beta_shape():
    assert pf.g_beta(0.5, 2.0) == 0.5
    assert pf.g_beta(2.0, 2.0) == 2.0
    assert pf.g_beta(3.0, 2.0) == 1.0
    assert pf.g_beta(5.0, 2.0) == 0.0
    # min(u, max(0, 2 beta - u)) is the branch form bit for bit, on both
    # sides of the kinks beta and 2 beta and below 0
    beta = 4.29
    u = np.random.default_rng(2).uniform(-1.0, 10.0, 5000)
    u[:6] = [beta, 2 * beta, np.nextafter(beta, 0), np.nextafter(beta, 9),
             0.0, -0.0]
    ref = np.where(u <= beta, u, np.maximum(0.0, 2.0 * beta - u))
    got = pf.g_beta(u, beta)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _envelope_residual(prof, ctx):
    """Defect of phi'' - c phi' + g_beta(phi) = 0 away from the junction."""
    v, h = prof.values, prof.dt
    d1 = (v[2:] - v[:-2]) / (2 * h)
    d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    res = d2 - ctx.c * d1 + pf.g_beta(v[1:-1], ctx.beta)
    tg = prof.grid[1:-1]
    T = prof.diagnostics["junction"]
    away = np.abs(tg - T) > 3 * h
    return float(np.max(np.abs(res[away])))


def test_upper_front_solves_its_equation():
    ctx = pf.WaveContext(2.5, ker.dirac(0.0), beta=3.0)
    up = pf.kpp_upper_front(ctx, dt=0.002)
    assert _envelope_residual(up, ctx) < 1e-4
    assert np.all(np.diff(up.values) >= -1e-12)
    assert up.values[-1] == pytest.approx(2 * ctx.beta, rel=1e-6)
    assert up.values[0] == pytest.approx(0.0, abs=1e-10)


def test_upper_front_c2_branch():
    ctx = pf.WaveContext(2.0, ker.dirac(0.0), beta=3.0)
    up = pf.kpp_upper_front(ctx, dt=0.002)
    assert _envelope_residual(up, ctx) < 1e-4
    assert np.all(np.diff(up.values) >= -1e-12)


def test_upper_front_finite_when_beta_is_large():
    # a far advanced atom makes U(c, K) large: beta = 276 and mu T = 1,113,
    # so e^{mu T} overflows; the front must stay finite without a warning
    # (the suite turns RuntimeWarning into an error)
    ctx = pf.WaveContext(14.14, ker.dirac(-68.047))
    assert ctx.beta > 270
    up = pf.kpp_upper_front(ctx, dt=0.05)
    assert ctx.mu * up.diagnostics["junction"] > 1000
    assert np.all(np.isfinite(up.values))
    assert np.all(np.diff(up.values) >= 0.0)
    assert up.values[0] == pytest.approx(0.0, abs=1e-12)
    assert up.values[-1] == pytest.approx(2 * ctx.beta, rel=1e-9)


def test_lower_solution_below_upper():
    ctx = pf.WaveContext(3.0, ker.dirac(0.0))
    up = pf.kpp_upper_front(ctx)
    low = pf.lower_solution(ctx, upper=up)
    assert np.all(low.values <= up.values + 1e-12)
    assert np.all(low.values >= 0.0)
    # vanishes beyond its crossing point
    tv = low.diagnostics["vanish_after"]
    assert np.all(low.values[low.grid > tv] == 0.0)


def test_lower_solution_needs_speed_gap():
    ctx = pf.WaveContext(2.0, ker.dirac(0.0), beta=2.0)
    with pytest.raises(DomainError, match="needs c > 2"):
        pf.lower_solution(ctx, pf.kpp_upper_front(ctx))


# -- the integral operator -------------------------------------------------

def _constant_profile(val, ctx, dt=0.05):
    t_lo, dt, n = pf.default_grid(ctx, dt)
    return pf.Profile(t_lo, dt, np.full(n, val), left_limit=val,
                      right_limit=val)


@pytest.mark.parametrize("val", [0.0, 1.0, "two_beta"])
def test_operator_fixed_constants(val):
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    v = 2 * ctx.beta if val == "two_beta" else val
    prof = _constant_profile(v, ctx)
    out = pf.am_apply(prof, ctx)
    assert np.max(np.abs(out.values - v)) < 1e-10


def test_operator_order_preservation():
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    rng = np.random.default_rng(7)
    t_lo, dt, n = pf.default_grid(ctx, 0.05)
    tg = t_lo + dt * np.arange(n)
    cap = 2 * ctx.beta
    for _ in range(20):
        base = cap / (1.0 + np.exp(-rng.uniform(0.2, 1.0) * (tg - rng.uniform(-3, 3))))
        gap = rng.uniform(0.0, 0.2) * np.exp(-0.1 * np.abs(tg))
        lo = np.clip(base - gap, 0.0, cap)
        hi = np.clip(base + gap, 0.0, cap)
        plo = pf.Profile(t_lo, dt, lo, left_limit=0.0, right_limit=lo[-1])
        phi = pf.Profile(t_lo, dt, hi, left_limit=0.0, right_limit=hi[-1])
        alo = pf.am_apply(plo, ctx)
        ahi = pf.am_apply(phi, ctx)
        assert np.all(alo.values <= ahi.values + 1e-9)


def test_operator_iterates_stay_bracketed():
    # compactly supported advanced kernel: iterates from the upper envelope
    # remain within [lower, upper]
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    up = pf.kpp_upper_front(ctx, dt=0.01)
    low = pf.lower_solution(ctx, upper=up)
    cur = pf.Profile(up.t0, up.dt, up.values.copy(), left_limit=0.0,
                     right_limit=up.right_limit, left_rate=ctx.lam)
    for _ in range(5):
        cur = pf.am_apply(cur, ctx)
        cur.left_rate = ctx.lam
        assert np.all(cur.values <= up.values * 1.005 + 1e-6)
        assert np.all(cur.values >= low.values * 0.995 - 1e-6)


def _power_series_integrals(r, r_left, r_right, z1, z2, h, left_rate):
    """The superposition form of the two recurrences: a zero-state filter
    plus the tail integral carried by powers of the step factor."""
    from scipy.signal import lfilter
    n = r.size
    J0, J1 = pf._exp_weights(z1, h)
    q = r[:-1] * (J0 - J1) + r[1:] * J1
    E1 = math.exp(z1 * h)
    Iminus = np.empty(n)
    Iminus[0] = (r[0] / (left_rate - z1) if left_rate is not None
                 else r_left / (-z1))
    Iminus[1:] = (lfilter([1.0], [1.0, -E1], q)
                  + E1 ** np.arange(1, n) * Iminus[0])
    J0b, J1b = pf._exp_weights(-z2, h)
    p = r[1:] * (J0b - J1b) + r[:-1] * J1b
    E2 = math.exp(-z2 * h)
    Iplus = np.empty(n)
    Iplus[-1] = r_right / z2
    rev = lfilter([1.0], [1.0, -E2], p[::-1])
    Iplus[:-1] = (rev + E2 ** np.arange(1, n) * Iplus[-1])[::-1]
    return Iminus, Iplus


def _summed_integrals(r, r_left, r_right, z1, z2, h, left_rate):
    w = pf._cell_weights(z1, z2, h)
    return pf._two_sided_sum(r, r_left, r_right, pf._SumOperator(w, r.size),
                             left_rate=left_rate)


@pytest.mark.parametrize("left_rate", [None, 0.7])
def test_two_sided_integrals_match_power_series_form(left_rate):
    # the two band solves against the two recurrences run apart, on five
    # random grids, the smallest one (3 points), and a grid where the last
    # entry's divisor 1 - E1 E2 = 1 - e^{(z1 - z2) h} is 1e-5
    rng = np.random.default_rng(11)
    for k in range(7):
        n = int(rng.integers(5, 3000)) if k < 5 else 3
        h = float(rng.uniform(1e-3, 0.1))
        z1, z2 = -float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 5.0))
        if k == 6:
            n, h, z1, z2 = 2000, 1e-4, -0.05, 0.05
        r = rng.uniform(0.0, 10.0, n)
        r_left, r_right = float(rng.uniform(0, 10)), float(rng.uniform(0, 10))
        got = _summed_integrals(r, r_left, r_right, z1, z2, h, left_rate)
        want = sum(_power_series_integrals(r, r_left, r_right, z1, z2, h,
                                           left_rate))
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_two_sided_integrals_need_three_points(n):
    w = pf._cell_weights(-1.0, 2.0, 0.1)
    with pytest.raises(DomainError, match="at least 3 points, got"):
        pf._SumOperator(w, n)


def test_front_system_builds_its_sum_operator_once_per_grid():
    # built at the first vector, kept for vectors of its size, rebuilt at
    # another size; its bands stay Fortran-ordered, since f2py copies a
    # band of any other layout on every dtbsv call
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    system = pf._FrontSystem(ctx, 0.1)
    rng = np.random.default_rng(5)
    for n in (40, 40, 25, 40):
        v = rng.uniform(0.0, 1.0, n)
        last = system.op
        got = system.apply(v)
        op = system.op
        assert (op is last) == (last is not None and last.n == n)
        assert op.n == n and op.lower.shape == op.upper.shape == (2, n)
        assert op.lower.flags.f_contiguous and op.upper.flags.f_contiguous
        assert np.array_equal(got, pf._FrontSystem(ctx, 0.1).apply(v))


@pytest.mark.parametrize("exp_left_tail", [False, True])
def test_two_sided_integrals_second_order_for_exponential(exp_left_tail):
    # r(s) = e^{a s} on [t0, T]; left of t0 the tail is the same exponential
    # (left_rate = a) or the constant e^{a t0}; right of T the constant
    # e^{a T}.  The grid integrals of the linear interpolant converge to the
    # closed forms at O(h^2).
    a, z1, z2, t0, T = 0.8, -1.3, 2.7, -10.0, 5.0
    left_rate = a if exp_left_tail else None

    def exact(t):
        r0, rT = math.exp(a * t0), math.exp(a * T)
        im = np.exp(z1 * t) * (np.exp((a - z1) * t)
                               - math.exp((a - z1) * t0)) / (a - z1)
        im += (r0 * np.exp(z1 * (t - t0)) / (a - z1) if left_rate is not None
               else r0 * np.exp(z1 * (t - t0)) / (-z1))
        ip = np.exp(z2 * t) * (math.exp((a - z2) * T)
                               - np.exp((a - z2) * t)) / (a - z2)
        ip += rT * np.exp(z2 * (t - T)) / z2
        return im, ip

    errs = []
    for n in (301, 601, 1201):
        t = np.linspace(t0, T, n)
        h = t[1] - t[0]
        got = _summed_integrals(np.exp(a * t), math.exp(a * t0),
                                math.exp(a * T), z1, z2, h, left_rate)
        want = sum(exact(t))
        errs.append(np.max(np.abs(got - want) / np.abs(want)))
    assert errs[0] < 1e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_operator_rejects_out_of_range_input():
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    bad = _constant_profile(2 * ctx.beta + 1.0, ctx)
    with pytest.raises(DomainError, match=r"0 <= phi <= 2 beta"):
        pf.am_apply(bad, ctx)


# -- solver ----------------------------------------------------------------

def test_solve_front_local_kernel():
    ctx = pf.WaveContext(3.0, ker.dirac(0.0))
    prof = pf.solve_front(ctx, dt=0.005)
    d = prof.diagnostics
    assert d["monotone"]
    assert d["residual_sup"] < 2e-6
    assert spline(prof, 0.0) == pytest.approx(0.5, abs=1e-3)
    v = prof.values
    assert v.min() > 0.0
    assert v.max() <= ctx.beta - 1.0 + 1e-6
    dv = np.gradient(v, prof.dt)
    assert np.all(dv < ctx.lam * v + 1e-8)


def test_solve_front_advanced_monotone():
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    prof = pf.solve_front(ctx, dt=0.005)
    assert prof.diagnostics["monotone"]
    assert prof.values.min() > 0.0


def test_solve_front_delayed_nonmonotone(nested):
    # no negative root of the monotone-front criterion: Newton-Krylov from a
    # coarse Picard start
    d = nested(0.005).diagnostics
    assert d["solver"] == "newton-krylov" and d["iterations"] > 0
    assert d["newton_steps"] > 0 and abs(d["sigma"]) < 1e-15
    assert not d["monotone"]
    assert d["P"] > 1.0 + 1e-3
    assert 0.0 < d["p"] < 1.0


def test_solve_front_at_speed_two():
    # c = 2 runs the same path as c > 2: the closed-form upper front, the
    # start, has a c = 2 branch
    ctx = pf.WaveContext(2.0, ker.dirac(0.0), beta=2.0)
    prof = pf.solve_front(ctx, tol=5e-5, dt=0.005)
    d = prof.diagnostics
    assert d["monotone"]
    assert d["residual_sup"] < 1e-3
    assert prof.values.max() == pytest.approx(1.0, abs=1e-4)


def _mixed_kernel():
    k, _ = ker.from_config({
        "atoms": [{"s": 1.0, "mass": 0.3}],
        "density": {"lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
                    "params": {"sigma": 0.5}}})
    return k


@pytest.mark.parametrize("c, iterations", [(2.956, None), (3.0, 351)])
def test_solve_front_plateau_limit_scales_with_dt(c, iterations):
    # at dt = 0.02 the Picard update plateaus near 2.5e-3 dt^2 = 1e-6, just
    # above a fixed 1e-6 limit at c = 2.956
    ctx = pf.WaveContext(c, _mixed_kernel())
    d = pf.picard_front(ctx, dt=0.02).diagnostics
    assert d["monotone"]
    assert d["last_diff"] < 0.01 * 0.02 ** 2
    assert d["residual_sup"] < 1e-4
    if iterations is not None:
        assert d["iterations"] == iterations


@pytest.fixture(scope="module")
def picard():
    """picard_front at (c, kernel, dt) with the default tol, each computed
    once per module: the reference fronts take 0.2-2 s each."""
    fronts = {}

    def front(c, kernel, dt):
        key = (c, kernel.nodes.tobytes(), kernel.masses.tobytes(), dt)
        if key not in fronts:
            fronts[key] = pf.picard_front(pf.WaveContext(c, kernel), dt=dt)
        return fronts[key]

    return front


@pytest.fixture(scope="module")
def nested():
    """solve_front on the oscillating front of K = delta(s - 5), c = 2.5, at
    dt, each computed once per module."""
    fronts = {}

    def front(dt):
        if dt not in fronts:
            fronts[dt] = pf.solve_front(pf.WaveContext(2.5, ker.dirac(5.0)),
                                        dt=dt)
        return fronts[dt]

    return front


@pytest.mark.parametrize("c, kernel, dt, iterations", [
    (2.5, ker.dirac(-0.5), 0.0025, 1029),
    (2.5, ker.dirac(5.0), 0.005, 1971),
    (3.0, ker.dirac(0.0), 0.0025, 522),
])
def test_reference_front_picard_counts(picard, c, kernel, dt, iterations):
    d = picard(c, kernel, dt).diagnostics
    assert d["solver"] == "picard"
    assert d["iterations"] == iterations


# -- Newton-Krylov against Picard -------------------------------------------

# sup |NK - Picard| over [-20, 20]: NK solves the discrete equations to
# max|G| <= tol, while Picard stops on its plateau, so the bound is Picard's
# own error: 8.1e-7 (advanced), 2.4e-7 (local) and 1.01e-5 (mixed, dt 0.02)
# measured, against 3.3e-6 for NK and 1.11e-5 for Picard from the dt = 0.0025
# front on the mixed kernel
@pytest.mark.parametrize("c, kernel, dt, bound", [
    (2.5, ker.dirac(-0.5), 0.0025, 1e-6),
    (3.0, ker.dirac(0.0), 0.0025, 1e-6),
    (3.0, _mixed_kernel(), 0.02, 1.5e-5),
], ids=["advanced", "local", "mixed"])
def test_newton_front_matches_picard(picard, c, kernel, dt, bound):
    nk = pf.solve_front(pf.WaveContext(c, kernel), dt=dt)
    pic = picard(c, kernel, dt)
    d = nk.diagnostics
    assert d["solver"] == "newton-krylov"
    assert d["iterations"] == 0 and d["newton_steps"] == 4
    assert 0 < d["gmres_iters"] and abs(d["sigma"]) < 1e-15
    assert d["monotone"] and nk.values.min() > 0
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(nk, t) - spline(pic, t))) <= bound
    assert d["residual_sup"] <= 1.05 * pic.diagnostics["residual_sup"]


def test_newton_front_converges_past_picard_plateau(picard):
    # on the mixed kernel at c = 3, against the dt = 0.0025 Newton front:
    # Newton's error falls by 4 per halving of dt, and at each dt it is a
    # third of Picard's, which stops on its plateau
    ctx = pf.WaveContext(3.0, _mixed_kernel())
    t = np.linspace(-20.0, 20.0, 4001)
    ref = spline(pf.solve_front(ctx, dt=0.0025), t)
    err = {dt: np.max(np.abs(spline(pf.solve_front(ctx, dt=dt), t) - ref))
           for dt in (0.02, 0.01)}
    assert 3.5 < err[0.02] / err[0.01] < 4.5
    assert err[0.02] < 5e-6
    picard_err = np.max(np.abs(spline(picard(3.0, _mixed_kernel(), 0.02), t)
                               - ref))
    assert picard_err > 3 * err[0.02]


_WAVE_CONSTANTS = pf.wave_constants


@pytest.mark.parametrize("module, name, value, reason", [
    (solver, "NEWTON_MAX_STEPS", 1, "front Newton hit 1 steps at max|r| = "),
    # the one U/beta/b rule with U(c, K) set to 0.99, beta and b as derived
    (pf, "wave_constants",
     lambda c, k, beta=None: (0.99, *_WAVE_CONSTANTS(c, k, beta)[1:]),
     "Newton-Krylov front exceeds U(c, K) = 0.99"),
], ids=["step-cap", "above-bound"])
def test_newton_failure_raises(monkeypatch, module, name, value, reason):
    # a failed Newton solve raises with its own reason: no Picard solve at
    # the requested tol stands in for it
    monkeypatch.setattr(module, name, value)
    ctx = pf.WaveContext(3.0, _mixed_kernel())
    with pytest.raises(NoConvergence, match=re.escape(reason)):
        pf.solve_front(ctx, dt=0.02)


def test_newton_gmres_solve_follows_the_one_rule():
    # Newton builds a GMRES solve at every step, and a step that raises
    # max|r| does not stop it: on r = (sin x0, x1 - x0) from x = (1.2, 1.2),
    # max|r| goes 0.93 -> 0.98, and Newton converges onto x0 = pi
    seen, built = [], []

    def system(x):
        r = np.array([math.sin(x[0]), x[1] - x[0]])
        seen.append(float(np.max(np.abs(r))))
        j = np.array([[math.cos(x[0]), 0.0], [-1.0, 1.0]])

        def solve(r):
            step, info = gmres(j, r, rtol=1e-14, atol=0.0)
            assert info == 0
            return step

        def linearize():
            built.append(1)
            return solve

        return r, linearize

    x, counts = solver.newton(system, np.array([1.2, 1.2]), 1e-12)
    assert seen[1] > seen[0] > 0.9
    assert x[0] == pytest.approx(math.pi, abs=1e-12)
    assert counts["residual"] <= 1e-12
    assert counts["newton_steps"] == len(seen) - 1 == len(built)


# -- the forcing terms of the front's GMRES solves -------------------------

def _linearized_residuals(monkeypatch):
    """max|G| at each linearization of the front's equations, in order."""
    seen = []
    equations = pf._FrontSystem.equations

    def recorded(self, x, i0):
        G, linearize = equations(self, x, i0)

        def lin():
            seen.append(float(np.max(np.abs(G))))
            return linearize()

        return G, lin

    monkeypatch.setattr(pf._FrontSystem, "equations", recorded)
    return seen


def _solve_at_fixed_rtol(ctx, dt, cycles=None):
    """solve_front with every GMRES solve to GMRES_RTOL, as before the
    forcing terms (and with GMRES_MAX_CYCLES raised to `cycles`)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pf, "GMRES_ETA_MAX", pf.GMRES_RTOL)
        if cycles is not None:
            mp.setattr(pf, "GMRES_MAX_CYCLES", cycles)
        return pf.solve_front(ctx, dt=dt)


# the benchmark's three fronts: GMRES iterations at a fixed rtol of 1e-6
# were 92, 30 and 20 in 3, 4 and 4 Newton steps; with the forcing terms
# they are 67, 16 and 12 in the same steps, and the fronts agree to 3.4e-13
# on [-20, 20] measured
@pytest.mark.parametrize("c, kernel, dt, most", [
    (2.5, ker.dirac(5.0), 0.005, 70),
    (2.5, ker.dirac(-0.5), 0.0025, 20),
    (3.0, _mixed_kernel(), 0.02, 14),
], ids=["delayed", "advanced", "mixed"])
def test_front_gmres_follows_the_forcing_terms(monkeypatch, c, kernel, dt,
                                               most):
    ctx = pf.WaveContext(c, kernel)
    ref = _solve_at_fixed_rtol(ctx, dt)
    res = _linearized_residuals(monkeypatch)
    prof = pf.solve_front(ctx, dt=dt)
    d, dr = prof.diagnostics, ref.diagnostics
    rtols = d["gmres_rtols"]
    assert len(rtols) == len(res) == len(d["gmres_per_step"]) \
        == d["newton_steps"]
    assert rtols[0] == pf.GMRES_ETA_MAX
    for k in range(1, len(rtols)):
        eta = 0.9 * (res[k] / res[k - 1]) ** 2
        assert rtols[k] == pytest.approx(
            min(pf.GMRES_ETA_MAX, max(pf.GMRES_RTOL, eta)), rel=1e-12)
    assert min(rtols) >= pf.GMRES_RTOL and rtols[-1] < 1e-3
    assert dr["gmres_rtols"] == [pf.GMRES_RTOL] * dr["newton_steps"]
    assert sum(d["gmres_per_step"]) == d["gmres_iters"]
    assert d["newton_steps"] == dr["newton_steps"]
    assert d["gmres_iters"] <= most < dr["gmres_iters"]
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(prof, t) - spline(ref, t))) <= 1e-10


def test_delayed_front_fits_the_gmres_budget():
    # delta(s - 6), c = 2.5, dt 0.01: at a fixed rtol of 1e-6 Newton step 1
    # needs 250 GMRES iterations, over the budget of GMRES_RESTART x
    # GMRES_MAX_CYCLES = 200.  With the forcing terms each step fits (160,
    # 54, 75 measured), and the front is 1.9e-12 from the fixed-rtol front
    # solved with 100 restart cycles
    ctx = pf.WaveContext(2.5, ker.dirac(6.0))
    prof = pf.solve_front(ctx, dt=0.01)
    d = prof.diagnostics
    budget = pf.GMRES_RESTART * pf.GMRES_MAX_CYCLES
    assert d["newton_steps"] <= 4 and max(d["gmres_per_step"]) <= budget
    assert not d["monotone"] and prof.values.min() > 0
    ref = _solve_at_fixed_rtol(ctx, 0.01, cycles=100)
    assert ref.diagnostics["gmres_per_step"][0] > budget
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(prof, t) - spline(ref, t))) <= 1e-10


# -- oscillating fronts: Newton-Krylov from a coarse Picard start ----------

# sup |nested - Picard| over [-20, 20] on K = delta(s - 5), c = 2.5: 8.9e-5
# at dt 0.005 and 2.1e-5 at dt 0.0025 measured.  Newton solves the discrete
# equations and Picard stops on its plateau, so this is Picard's own error,
# and it falls like dt^2
@pytest.mark.parametrize("dt, bound", [(0.005, 1.2e-4), (0.0025, 3e-5)])
def test_oscillating_front_matches_picard(nested, picard, dt, bound):
    nk, pic = nested(dt), picard(2.5, ker.dirac(5.0), dt)
    d, dp = nk.diagnostics, pic.diagnostics
    assert d["solver"] == "newton-krylov" and d["iterations"] > 0
    assert d["newton_steps"] > 0 and d["gmres_iters"] > 0
    assert not d["monotone"] and nk.values.min() > 0
    assert abs(d["p"] - dp["p"]) < 1e-3 and abs(d["P"] - dp["P"]) < 1e-3
    assert d["residual_sup"] <= dp["residual_sup"]
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(nk, t) - spline(pic, t))) <= bound


def test_oscillating_front_gap_to_picard_falls_like_dt_squared(nested,
                                                               picard):
    t = np.linspace(-20.0, 20.0, 4001)
    gap = {dt: np.max(np.abs(spline(nested(dt), t)
                             - spline(picard(2.5, ker.dirac(5.0), dt), t)))
           for dt in (0.005, 0.0025)}
    assert 3.5 < gap[0.005] / gap[0.0025] < 4.5


@pytest.mark.parametrize("c, s, cap, reason", [
    # K = delta(s - 8), c = 2.5, dt 0.02: the start at beta 4 escapes its
    # envelope at step 2 dt and again at step dt, and the error names that
    # second start; no higher rung runs
    (2.5, 8.0, None, "Picard iteration at beta=4, dt=0.02 escaped the "
                     "[lower, upper] order interval at sweep 772"),
    (3.0, 2.0, 1, "front Newton hit 1 steps at max|r| = "),
], ids=["start", "newton"])
def test_oscillating_front_failure_raises(monkeypatch, c, s, cap, reason):
    # a failed start or Newton solve raises with its own reason, and Picard
    # runs only as the start, at START_TOL
    calls = []
    picard_front = pf.picard_front

    def start(ctx, tol, dt):
        calls.append((ctx.beta, tol, dt))
        return picard_front(ctx, tol, dt)

    monkeypatch.setattr(pf, "picard_front", start)
    if cap is not None:
        monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", cap)
    ctx = pf.WaveContext(c, ker.dirac(s))
    with pytest.raises(NoConvergence, match=re.escape(reason)):
        pf.solve_front(ctx, dt=0.02)
    if s == 8.0:
        assert calls == [(4.0, pf.START_TOL, 0.04), (4.0, pf.START_TOL, 0.02)]
    else:
        assert calls == [(min(pf.START_BETA, ctx.beta), pf.START_TOL, 0.04)]


# -- the start's beta ladder -------------------------------------------------

def _start_at_ctx_beta(ctx, dt):
    """solve_front with the start at ctx.beta only, as before the ladder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pf, "START_BETA", math.inf)
        return pf.solve_front(ctx, dt=dt)


def test_start_ladder_takes_its_first_rung(nested):
    # delta(s - 5), c = 2.5, dt 0.005: the start at beta 4 peaks at 3.22,
    # so the first rung is taken, in 390 sweeps where ctx.beta = 13.18 takes
    # 1,130.  Newton solves at ctx.beta, so the front is the same: 2.7e-14
    # apart on [-20, 20] measured
    ctx = pf.WaveContext(2.5, ker.dirac(5.0))
    prof, ref = nested(0.005), _start_at_ctx_beta(ctx, 0.005)
    d, dr = prof.diagnostics, ref.diagnostics
    assert d["start_beta"] == pf.START_BETA == 4.0
    assert dr["start_beta"] == ctx.beta
    assert (d["iterations"], dr["iterations"]) == (390, 1130)
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(prof, t) - spline(ref, t))) <= 1e-12
    assert d["residual_sup"] == pytest.approx(dr["residual_sup"], rel=1e-6)


def test_start_ladder_climbs_past_a_start_above_its_beta(monkeypatch):
    # delta(s - 8), c = 3, dt 0.01: the start at beta 4 peaks at 5.37 and is
    # passed over; the one at beta 8 peaks at 6.52 and is taken.  The front
    # is the one started at ctx.beta to 1e-9 (4.0e-11 measured)
    calls = []
    picard_front = pf.picard_front

    def start(ctx, tol, dt):
        prof = picard_front(ctx, tol, dt)
        calls.append((ctx.beta, dt, prof.values.max()))
        return prof

    monkeypatch.setattr(pf, "picard_front", start)
    ctx = pf.WaveContext(3.0, ker.dirac(8.0))
    prof = pf.solve_front(ctx, dt=0.01)
    assert [(b, step) for b, step, _ in calls] == [(4.0, 0.02), (8.0, 0.02)]
    assert 4.0 < calls[0][2] < 8.0 and calls[1][2] <= 8.0
    assert prof.diagnostics["start_beta"] == 8.0
    ref = _start_at_ctx_beta(ctx, 0.01)
    assert prof.diagnostics["iterations"] < ref.diagnostics["iterations"]
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(prof, t) - spline(ref, t))) <= 1e-9


def test_start_ladder_halves_its_step_once(monkeypatch):
    # delta(s - 5), c = 2.2, dt 0.01: the start at beta 4 escapes its
    # envelope at step 2 dt, and the one at step dt peaks at 4.53, so the
    # ladder climbs to beta 8 and stays at step dt.  The start at ctx.beta
    # escapes at both steps, so the reference is Newton from the start
    # passed over at beta 4: the same front to 1e-9 (2.5e-13 measured)
    calls, starts = [], []
    picard_front = pf.picard_front

    def start(ctx, tol, dt):
        calls.append((ctx.beta, dt))
        starts.append(picard_front(ctx, tol, dt))
        return starts[-1]

    monkeypatch.setattr(pf, "picard_front", start)
    ctx = pf.WaveContext(2.2, ker.dirac(5.0))
    prof = pf.solve_front(ctx, dt=0.01)
    assert calls == [(4.0, 0.02), (4.0, 0.01), (8.0, 0.01)]
    assert starts[0].values.max() == pytest.approx(4.53, abs=5e-3)
    assert starts[1].values.max() <= 8.0
    assert prof.diagnostics["start_beta"] == 8.0
    upper = pf.kpp_upper_front(ctx, 0.01)
    passed = spline(starts[0],
                    starts[0].t0 + 0.01 * np.arange(upper.values.size))
    vals, _ = pf._newton_front(ctx, passed, 0.01, 1e-9, monotone=False)
    ref = pf._front_profile(ctx, upper, vals, {})
    t = np.linspace(-20.0, 20.0, 4001)
    assert np.max(np.abs(spline(prof, t) - spline(ref, t))) <= 1e-9


def test_start_ladder_raises_a_failed_start_at_once(monkeypatch):
    # a start that raises anything but an escape at step 2 dt does not
    # climb: delta(s - 5), c = 2.5, dt 0.02, with the start at beta 4 made
    # to stagnate
    calls = []

    def start(ctx, tol, dt):
        calls.append((ctx.beta, dt))
        raise NoConvergence("stagnated")

    monkeypatch.setattr(pf, "picard_front", start)
    with pytest.raises(NoConvergence, match="stagnated"):
        pf.solve_front(pf.WaveContext(2.5, ker.dirac(5.0)), dt=0.02)
    assert calls == [(4.0, 0.04)]


def test_start_ladder_raises_its_last_rungs_reason(monkeypatch):
    # a start that escapes at step dt raises at once with its own rung's
    # reason: the escape at 2 dt on beta 4 halves the step, and beta 4
    # escapes again
    calls = []

    def start(ctx, tol, dt):
        calls.append((ctx.beta, dt))
        raise InvariantViolation(f"escaped at beta={ctx.beta}, dt={dt}")

    monkeypatch.setattr(pf, "picard_front", start)
    ctx = pf.WaveContext(2.5, ker.dirac(5.0))
    with pytest.raises(InvariantViolation,
                       match=re.escape("escaped at beta=4.0, dt=0.02")):
        pf.solve_front(ctx, dt=0.02)
    assert calls == [(4.0, 0.04), (4.0, 0.02)]


@pytest.mark.parametrize("s, dt", [(-0.5, 0.02), (5.0, 0.005)],
                         ids=["advanced", "delayed"])
def test_front_operator_is_am_apply(nested, s, dt):
    # on a solved front, which carries the front's tails (e^{lam t} decay to
    # 0, the constant v[-1]), the operator the monotone-operator tests check
    # is the one Picard and Newton-Krylov iterate, bit for bit
    ctx = pf.WaveContext(2.5, ker.dirac(s))
    prof = nested(dt) if s == 5.0 else pf.solve_front(ctx, dt=dt)
    assert (prof.left_limit, prof.left_rate) == (0.0, ctx.lam)
    assert prof.right_limit == prof.values[-1]
    assert np.array_equal(pf.am_apply(prof, ctx).values,
                          pf._FrontSystem(ctx, prof.dt).apply(prof.values))


# one front whose GMRES solves take one restart cycle and one whose take
# several
@pytest.mark.parametrize("c, kernel, dt", [(2.5, ker.dirac(-0.5), 0.01),
                                           (2.5, ker.dirac(5.0), 0.02)],
                         ids=["advanced", "delayed"])
def test_front_gmres_takes_no_probe_products(monkeypatch, c, kernel, dt):
    # GMRES applies J to one unit Krylov vector per iteration and to the
    # iterate once per restart cycle, and M to the right-hand side, to each
    # cycle's residual and to each J product.  An operator without a
    # declared dtype costs one more of each, a probe on a zero vector
    calls = []
    linearize = pf._FrontSystem.linearize

    def counted(self, v, i0):
        ops = linearize(self, v, i0)
        norms = ([], [])
        calls.append(norms)

        def wrap(k):
            def f(u):
                norms[k].append(float(np.linalg.norm(u)))
                return ops[k](u)
            return f

        return wrap(0), wrap(1)

    monkeypatch.setattr(pf._FrontSystem, "linearize", counted)
    prof = pf.solve_front(pf.WaveContext(c, kernel), dt=dt)
    per_step = prof.diagnostics["gmres_per_step"]
    assert len(calls) == len(per_step)
    for (jv, m), k in zip(calls, per_step):
        assert sum(abs(x - 1.0) < 1e-12 for x in jv) == k
        assert len(jv) >= k + math.ceil(k / pf.GMRES_RESTART)
        assert len(m) == len(jv) + 1
        assert min(jv + m) > 0


def test_front_jacobian_vector_product_is_exact():
    # J u against a fourth-order central difference of G, in the unknowns'
    # layout: u[i0] is the sigma direction, and v[i0] stays pinned.  At
    # eps 1e-2, v +- 2 eps u stays below beta, where G is quadratic, so the
    # difference has no truncation error, and its rounding reads 1.2e-11 ..
    # 2.1e-11 of max|J u| over seeds 3-12 (a second-order difference at
    # eps 1e-4 reads 9.4e-10 here, on the rounding floor)
    ctx = pf.WaveContext(3.0, _mixed_kernel())
    up = pf.kpp_upper_front(ctx, 0.1)
    v = np.minimum(up.values, 1.0)
    i0 = int(np.argmax(v >= 0.5))
    v[i0] = 0.5
    system = pf._FrontSystem(ctx, up.dt)
    jv, _ = system.linearize(v, i0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(v.size) * np.minimum(v, 1e-3)
    u[i0] = 1e-3
    x = v.copy()
    x[i0] = 0.0  # sigma
    eps = 1e-2
    G = lambda h: system.equations(x + h * u, i0)[0]
    fd = (8.0 * (G(eps) - G(-eps)) - (G(2 * eps) - G(-2 * eps))) / (12 * eps)
    assert np.max(np.abs(jv(u) - fd)) <= 1e-9 * np.max(np.abs(fd))


@pytest.mark.parametrize("seed", range(3, 13))
def test_front_jacobian_vector_product_matches_wide_difference(seed):
    # as above, at eps 1e-3 and over ten seeds.  v +- eps u stays below
    # beta, where g_beta is the identity, so G is quadratic in the unknowns
    # and its central difference has no truncation error; the wider step
    # keeps the difference off the rounding floor that eps 1e-4 sits on
    ctx = pf.WaveContext(3.0, _mixed_kernel())
    up = pf.kpp_upper_front(ctx, 0.1)
    v = np.minimum(up.values, 1.0)
    i0 = int(np.argmax(v >= 0.5))
    v[i0] = 0.5
    system = pf._FrontSystem(ctx, up.dt)
    jv, _ = system.linearize(v, i0)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(v.size) * np.minimum(v, 1e-3)
    u[i0] = 1e-3
    x = v.copy()
    x[i0] = 0.0  # sigma
    eps = 1e-3
    fd = (system.equations(x + eps * u, i0)[0]
          - system.equations(x - eps * u, i0)[0]) / (2 * eps)
    assert np.max(np.abs(jv(u) - fd)) <= 1e-9 * np.max(np.abs(fd))


def test_preconditioner_tridiagonal_from_the_recurrences():
    # dense L1, R1, L2, R2 reproduce the operator's integrals, and P is
    # z12 L1 L2 - (L2 R1 + L1 R2) diag(R')
    ctx = pf.WaveContext(2.5, ker.dirac(-0.5))
    n, h = 12, 0.1
    system = pf._FrontSystem(ctx, h)
    w = system.w
    L1 = np.eye(n) - w.E1 * np.eye(n, k=-1)
    L1[0, 0] = ctx.lam - w.z1
    R1 = w.q1 * np.eye(n) + w.q0 * np.eye(n, k=-1)
    R1[0, 0] = 1.0
    L2 = np.eye(n) - w.E2 * np.eye(n, k=1)
    L2[-1, -1] = w.z2
    R2 = w.p0 * np.eye(n) + w.p1 * np.eye(n, k=1)
    R2[-1, -1] = 1.0
    rng = np.random.default_rng(8)
    r = rng.standard_normal(n)
    got = pf._two_sided_sum(r, 0.0, r[-1], pf._SumOperator(w, n),
                            left_rate=ctx.lam)
    dense = np.linalg.solve(L1, R1 @ r) + np.linalg.solve(L2, R2 @ r)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    rp = rng.standard_normal(n)
    sub, diag, sup = system.tridiagonal(rp)
    P = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    ref = ctx.z12 * L1 @ L2 - (L2 @ R1 + L1 @ R2) @ np.diag(rp)
    assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))
    lifted = ctx.z12 * L1 @ L2 @ r
    assert np.max(np.abs(system.lift(r) - lifted)) <= 1e-14 * np.max(
        np.abs(lifted))


def test_preconditioner_solves_in_place_and_leaves_its_input():
    # both block solves run in place in the lifted vector; the result is
    # the copying solves' bit for bit, y is not written, and a second call
    # returns the same vector
    ctx = pf.WaveContext(3.0, _mixed_kernel())
    up = pf.kpp_upper_front(ctx, 0.1)
    v = np.minimum(up.values, 1.0)
    i0 = int(np.argmax(v >= 0.5))
    v[i0] = 0.5
    system = pf._FrontSystem(ctx, up.dt)
    _, precondition = system.linearize(v, i0)
    y = np.random.default_rng(4).standard_normal(v.size)
    y_in = y.copy()
    z = precondition(y)
    assert np.array_equal(y, y_in) and not np.shares_memory(z, y)
    assert np.array_equal(precondition(y), z)
    rp = (ctx.b + pf._g_prime(v, ctx.beta) * (1.0 - system._conv(v))
          - pf.g_beta(v, ctx.beta))
    sub, diag, sup = system.tridiagonal(rp)
    lo = dgttrf(sub[:i0 - 1], diag[:i0], sup[:i0 - 1])[:5]
    hi = dgttrf(sub[i0 + 1:], diag[i0 + 1:], sup[i0 + 1:])[:5]
    lifted = system.lift(y)
    yl = dgttrs(*lo, lifted[:i0, None].copy())[0][:, 0]
    yr = dgttrs(*hi, lifted[i0 + 1:, None].copy())[0][:, 0]
    col = np.zeros((i0, 1))
    col[0, 0] = -ctx.z12 * (ctx.lam - system.w.z1)
    col[1, 0] = ctx.z12 * system.w.E1
    cl = dgttrs(*lo, col)[0][:, 0]
    a_l, a_r = sub[i0 - 1], sup[i0]
    s = (a_l * yl[-1] + a_r * yr[0] - lifted[i0]) / (a_l * cl[-1])
    assert np.array_equal(z, np.concatenate([yl - s * cl, [s], yr]))


# -- residual --------------------------------------------------------------

def test_residual_detects_defect():
    ctx = pf.WaveContext(3.0, ker.dirac(0.0))
    t = np.linspace(-10.0, 10.0, 2001)
    vals = 1.0 / (1.0 + np.exp(-t))   # not a travelling front for c = 3
    prof = pf.Profile(-10.0, t[1] - t[0], vals, left_limit=0.0,
                      right_limit=1.0)
    assert pf.residual(prof, 3.0, ker.dirac(0.0)) > 0.1


# -- piecewise toy model ---------------------------------------------------

def test_toy_constants():
    _, consts = pf.toy_fronts()
    assert consts["z4"] == pytest.approx(-4.0352, abs=1e-3)
    assert consts["x0"] == pytest.approx(-6.2402, abs=1e-3)
    assert consts["y0"] == pytest.approx(10.0548, abs=1e-2)
    assert consts["a"] == pytest.approx(0.28785, abs=5e-4)
    assert consts["b"] == pytest.approx(0.21215, abs=5e-4)
    assert consts["a"] + consts["b"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["phi1", "phi2", "phi3"])
def test_toy_derivatives_match_central_differences(k):
    # f(t, 1) and f(t, 2) are what the residual and the C^1 check read;
    # away from the junction at t = 0 the difference quotients of f(t, 0)
    # and f(t, 1) agree with them to 4e-8 relative (at most)
    f = pf.toy_fronts()[0][k]
    t = np.concatenate([np.linspace(-6.0, -0.05, 200),
                        np.linspace(0.05, 6.0, 200)])
    h = 1e-5
    for order in (0, 1):
        quotient = (f(t + h, order) - f(t - h, order)) / (2.0 * h)
        exact = f(t, order + 1)
        assert np.max(np.abs(quotient - exact)
                      / np.maximum(1.0, np.abs(exact))) < 1e-7


def test_toy_junction_matching():
    _, report = pf.toy_fronts()
    for name in ("phi1", "phi2", "phi3"):
        assert report[name + "_diagnostics"]["c0_mismatch"] < 1e-10
        assert report[name + "_diagnostics"]["c1_mismatch"] < 1e-9


def test_toy_residual_outside_window():
    _, report = pf.toy_fronts()
    for name in ("phi1", "phi2", "phi3"):
        assert report[name + "_diagnostics"]["residual_outside_window"] < 1e-10


def test_toy_monotone_window_defect_is_one_twelfth():
    # the simplest branch satisfies the equation exactly except on the lag
    # window, where the sup defect is exactly 1/12
    _, report = pf.toy_fronts()
    assert report["phi1_diagnostics"]["residual_window_sup"] == pytest.approx(
        1.0 / 12.0, abs=1e-6)


def test_toy_oscillating_profile_overshoots():
    phi3 = pf.toy_fronts()[0][2](-8.0 + 0.001 * np.arange(16001))
    assert float(np.max(phi3)) > 1.0 + 1e-4
    assert not np.all(np.diff(phi3) >= 0)
