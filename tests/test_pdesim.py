import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from nlkpp import DomainError, NoConvergence, pdesim
from nlkpp.kernels import Kernel, Density, dirac, from_config
from nlkpp.spectral import monotone_front_root


def small_state(kernel=None, X=40.0, dx=0.2, **kw):
    return pdesim.initial_state(kernel or dirac(0.0), X=X, dx=dx, **kw)


# -- state construction ----------------------------------------------------

def test_default_initial_datum():
    st = small_state(X=400.0)
    assert st.x[0] == 0.0 and st.x[-1] == pytest.approx(400.0)
    assert st.dx == pytest.approx(0.2)
    assert np.all(st.u[st.x < 20.0] == 1.0)
    i = np.searchsorted(st.x, 25.0)
    assert st.u[i] == pytest.approx(np.exp(-(st.x[i] - 20.0)), rel=1e-12)


@pytest.mark.parametrize("front_at", [-1.0, 400.0, 1000.0])
def test_front_off_the_grid_rejected(front_at):
    # the datum would hold no front to track
    with pytest.raises(DomainError, match=r"is off the grid \[0, 400\)"):
        small_state(X=400.0, front_at=front_at)


def test_far_front_datum_does_not_overflow():
    # exp(x - front_at) on the plateau overflowed at front_at 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = small_state(X=3000.0, dx=1.0, front_at=1000.0)
    assert np.all(st.u[:1001] == 1.0) and st.u[1001] == np.exp(-1.0)


def test_custom_initial_datum():
    st = small_state(u0=lambda x: np.exp(-((x - 20.0) / 3.0) ** 2))
    assert st.u.max() == pytest.approx(1.0, abs=1e-6)


def test_negative_initial_datum_rejected():
    with pytest.raises(DomainError, match="must be nonnegative"):
        small_state(u0=lambda x: np.sin(x))


# -- stepping and constraints ----------------------------------------------

def test_equilibria_preserved():
    # 50 steps of the explicit step and of the IMEX run; the IMEX step's
    # in-place temporaries must not feed a step's own output back into its
    # f(u) or its - u
    def explicit(st):
        for _ in range(50):
            pdesim.step(st, 0.01)

    def imex(st):
        pdesim.run(st, 2.5, dt=0.05)
        assert st.t == pytest.approx(2.5, abs=1e-12)

    for advance in (explicit, imex):
        for val in (0.0, 1.0):
            st = small_state(u0=lambda x, v=val: np.full_like(x, v))
            advance(st)
            assert np.max(np.abs(st.u - val)) < 1e-13


def test_diffusion_constraint_named():
    st = small_state()
    with pytest.raises(DomainError, match="diffusion"):
        pdesim.step(st, 0.1)


def test_positivity_constraint_named():
    st = small_state(dx=2.0, u0=lambda x: np.full_like(x, 30.0))
    with pytest.raises(DomainError, match="positivity"):
        pdesim.step(st, 0.1)


def test_bump_spreads_and_grows():
    st = small_state(u0=lambda x: 0.05 * np.exp(-((x - 20.0) / 2.0) ** 2))
    mass0 = st.u.sum()
    above0 = int((st.u > 0.02).sum())
    pdesim.run(st, 10.0, record_dt=1e9)
    assert st.u.sum() > 2 * mass0
    assert int((st.u > 0.02).sum()) > above0
    assert st.u.max() < 1.0 + 1e-9


def test_positivity_along_run():
    st = small_state(X=120.0)
    for _ in range(500):
        pdesim.step(st, 0.015)
        assert st.u.min() >= -1e-12


# -- convolution -----------------------------------------------------------

def local_reference_step(state, dt):
    """Dedicated local Fisher-KPP step (convolution short-circuited to u);
    identical discretization to pdesim.step for K = delta(s)."""
    if state.stencil is not None:
        raise DomainError("local reference requires the unit atom at 0")
    dx = state.dx
    f0 = pdesim._laplacian(state.u, dx) + state.u * (1.0 - state.u)
    u_half = state.u + 0.5 * dt * f0
    state.u = state.u + dt * (pdesim._laplacian(u_half, dx)
                              + u_half * (1.0 - u_half))
    state.t += dt
    return state


def test_local_kernel_reduction_per_step():
    st = small_state()
    ref = small_state()
    for _ in range(200):
        pdesim.step(st, 0.015)
        local_reference_step(ref, 0.015)
        assert np.max(np.abs(st.u - ref.u)) < 1e-12


def test_atom_shift_convolution():
    st = small_state(dirac(1.0))
    # a delayed atom samples toward the leading edge: u(x + 1); whole-cell
    # shifts are exact, and the right edge extends by the boundary value
    conv = pdesim.convolve_grid(st, st.u)
    n = int(round(1.0 / st.dx))
    assert np.max(np.abs(conv[:-n] - st.u[n:])) < 1e-14
    assert np.all(conv[-n:] == st.u[-1])


def test_density_convolution_mass():
    g = np.linspace(-1.0, 1.0, 21)
    k = Kernel(density=Density(g, np.ones_like(g) / 2.0))
    st = small_state(k, u0=lambda x: np.full_like(x, 0.7))
    conv = pdesim.convolve_grid(st, st.u)
    assert np.max(np.abs(conv - 0.7)) < 1e-12


def test_translation_covariance():
    shift = 10
    st_a = small_state(dirac(-0.6), X=80.0, front_at=20.0)
    st_b = small_state(dirac(-0.6), X=80.0, front_at=20.0 + shift * 0.2)
    for _ in range(100):
        pdesim.step(st_a, 0.015)
        pdesim.step(st_b, 0.015)
    inner = slice(150, 250)
    shifted = slice(150 + shift, 250 + shift)
    assert np.max(np.abs(st_b.u[shifted] - st_a.u[inner])) < 1e-13


# -- front measurement -----------------------------------------------------

def test_front_position_interpolates():
    st = small_state(u0=lambda x: np.clip(1.0 - (x - 10.0) / 20.0, 0.0, 1.0))
    assert pdesim.front_position(st) == pytest.approx(20.0, abs=1e-12)


def test_front_off_grid_raises():
    st = small_state(u0=lambda x: np.full_like(x, 0.1))
    with pytest.raises(NoConvergence, match="set is off-grid"):
        pdesim.front_position(st)
    st2 = small_state(u0=lambda x: np.full_like(x, 0.9))
    with pytest.raises(NoConvergence, match="set is off-grid"):
        pdesim.front_position(st2)


def test_front_speed_needs_enough_records():
    st = small_state(X=120.0)
    pdesim.run(st, 2.0, record_dt=1.0)
    with pytest.raises(NoConvergence, match="front positions after transient"):
        pdesim.front_speed(st)


def test_local_speed_near_two():
    res = pdesim.measure_speed(T=40.0)
    assert res["speed"] == pytest.approx(2.0, rel=0.05)
    assert res["u_min"] >= -1e-12


def test_speed_stable_under_refinement():
    s1 = pdesim.measure_speed(T=30.0, X=200.0)["speed"]
    s2 = pdesim.measure_speed(T=30.0, X=200.0, dx=0.1)["speed"]
    assert abs(s2 - s1) / s1 < 0.02


def test_delayed_kernel_overshoot():
    # delayed interaction without a negative quadratic-characteristic root:
    # the front still travels at speed >= 2 - 5% but overshoots 1 behind
    k = dirac(2.0)
    root, _ = monotone_front_root(2.0, k)
    assert root is None
    res = pdesim.measure_speed(k, T=40.0)
    assert res["speed"] > 2.0 * 0.95
    assert res["u_max"] > 1.005


def test_snapshots_returned():
    st = small_state(X=120.0)
    snaps = pdesim.run(st, 5.0, snapshots_at=[1.0, 3.0, 5.0])
    assert len(snaps) == 3
    assert [round(t) for t, _ in snaps] == [1, 3, 5]
    assert all(u.shape == st.x.shape for _, u in snaps)


# -- the IMEX stepper of run against the explicit oracle -------------------

MIXED = from_config({"atoms": [{"s": 1.0, "mass": 0.3}],
                     "density": {"lo": -4, "hi": 4, "n": 201,
                                 "kind": "gaussian",
                                 "params": {"sigma": 0.5}}})[0]


def explicit_run(state, t_end, record_dt=0.5):
    """run's recording with explicit midpoint steps at dt = 0.4 dx^2."""
    n_steps = int(np.ceil(t_end / (0.4 * state.dx ** 2) - 1e-12))
    dt = t_end / n_steps
    record_every = max(1, int(round(record_dt / dt)))
    state.times.append(state.t)
    state.fronts.append(pdesim.front_position(state))
    for i in range(n_steps):
        pdesim.step(state, dt)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            state.times.append(state.t)
            state.fronts.append(pdesim.front_position(state))


@pytest.mark.parametrize("kernel, T", [
    (dirac(0.0), 40.0), (dirac(-0.5), 40.0), (MIXED, 15.0)],
    ids=["local", "advanced-atom", "atom+gaussian"])
def test_imex_run_matches_explicit_oracle(kernel, T):
    # same grid, default IMEX dt = 0.05 against 0.016; an orientation
    # error in K * u would move the advanced atom's speed by far more
    imex = small_state(kernel, X=200.0)
    pdesim.run(imex, T)
    ref = small_state(kernel, X=200.0)
    explicit_run(ref, T)
    assert imex.t == pytest.approx(T, abs=1e-12)
    speed, ref_speed = pdesim.front_speed(imex), pdesim.front_speed(ref)
    assert abs(speed / ref_speed - 1.0) <= 1e-3
    assert np.max(np.abs(imex.u - ref.u)) <= 5e-3
    assert imex.u.min() >= -1e-12


@pytest.mark.parametrize("dx", [0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0])
def test_default_dt_rule(dx):
    dt = pdesim.time_step(dx)
    assert dt == max(0.4 * dx * dx, min(0.05, 5 * dx * dx))
    # never more steps than the explicit rule, never past the ringing cap
    assert 0.4 * dx * dx <= dt <= 5 * dx * dx


def test_no_ringing_at_the_cap():
    # Crank-Nicolson damps the highest mode only by (1 - 2r)/(1 + 2r) per
    # step at r = dt/dx^2: a step datum at the cap r = 5
    dx = 0.05
    st = small_state(X=60.0, dx=dx, u0=lambda x: (x < 20.0).astype(float))
    times = [0.1 * k for k in range(1, 101)]
    snaps = pdesim.run(st, 10.0, dt=5 * dx * dx, snapshots_at=times)
    assert [t for t, _ in snaps] == pytest.approx(times, abs=1e-9)
    for _, u in snaps:
        assert u.min() >= -1e-12
        assert u.max() <= 1.0 + 1e-3


def test_run_keeps_positivity_precondition():
    st = small_state(dx=2.0, u0=lambda x: np.full_like(x, 30.0))
    with pytest.raises(DomainError, match="positivity"):
        pdesim.run(st, 1.0, dt=0.1)


def test_run_halves_the_default_step_under_the_positivity_bound():
    # u = 30 puts 0.5 / max|1 - K*u| at 0.0172: the default step, one step
    # of 1.0 to t = 1, halves six times, and the run is then the fixed-dt
    # run at 1/64 bit for bit
    st = small_state(dx=2.0, u0=lambda x: np.full_like(x, 30.0))
    ref = small_state(dx=2.0, u0=lambda x: np.full_like(x, 30.0))
    pdesim.run(st, 1.0)
    pdesim.run(ref, 1.0, dt=1 / 64)
    assert st.t == ref.t == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(st.u, ref.u)
    assert st.u.min() >= 0.0


def test_run_halving_past_the_step_cap_is_no_convergence(monkeypatch):
    # six halvings take the one step to 64, over a cap of 32
    monkeypatch.setattr(pdesim, "MAX_SIM_STEPS", 32)
    st = small_state(dx=2.0, u0=lambda x: np.full_like(x, 30.0))
    with pytest.raises(NoConvergence, match=r"positivity violated: .*; "
                                            r"halving tops 32 steps"):
        pdesim.run(st, 1.0)


# -- the IMEX step against its Laplacian form ------------------------------

def laplacian_form_solver(n, ratio):
    """A direct banded solve of M v = b, M = I - (dt/2) lap the tridiagonal
    matrix on n points, Neumann rows included, and ratio = dt/dx^2."""
    ab = np.empty((3, n))
    ab[0] = ab[2] = -0.5 * ratio
    ab[0, 1] = ab[2, -2] = -ratio
    ab[1] = 1.0 + ratio
    return lambda b: solve_banded((1, 1), ab, b)


def laplacian_form_step(state, dt, solve_m):
    """The step as rhs = u + (dt/2) lap(u), then two solves of M."""
    u = state.u
    f0 = u * (1.0 - pdesim.convolve_grid(state, u))
    rhs = u + 0.5 * dt * pdesim._laplacian(u, state.dx)
    u_star = solve_m(rhs + dt * f0)
    f1 = u_star * (1.0 - pdesim.convolve_grid(state, u_star))
    state.u = solve_m(rhs + 0.5 * dt * (f0 + f1))
    state.t += dt


@pytest.mark.parametrize("ratio", [5.0, 0.4], ids=["cap", "explicit"])
@pytest.mark.parametrize("kernel", [dirac(0.0), dirac(-0.5), MIXED],
                         ids=["local", "advanced-atom", "atom+gaussian"])
def test_imex_step_matches_laplacian_form(kernel, ratio):
    # 2 M^-1 (u + (dt/2) f) - u is the Laplacian form's solve, step by step
    dx = 0.1
    dt = ratio * dx * dx
    st = small_state(kernel, X=60.0, dx=dx)
    ref = small_state(kernel, X=60.0, dx=dx)
    solve = pdesim._crank_nicolson(st.x.size, ratio)
    solve_m = laplacian_form_solver(st.x.size, ratio)
    v = solve_m(st.u)
    assert np.max(np.abs(v - 0.5 * dt * pdesim._laplacian(v, dx) - st.u)) \
        <= 1e-12
    for _ in range(200):
        pdesim._imex_step(st, dt, solve)
        laplacian_form_step(ref, dt, solve_m)
        assert np.max(np.abs(st.u - ref.u)) <= 1e-12
    assert st.t == pytest.approx(ref.t, abs=1e-12)


def test_imex_run_matches_laplacian_form_in_the_far_tail():
    # simulate's local run (T 80, dx 0.1): its tail falls to about 1e-96,
    # where an absolute bound says nothing, so it is checked relatively
    st = small_state(X=400.0, dx=0.1)
    ref = small_state(X=400.0, dx=0.1)
    pdesim.run(st, 80.0)
    dt = 80.0 / 1600
    solve_m = laplacian_form_solver(ref.x.size, dt / 0.1 ** 2)
    for _ in range(1600):
        laplacian_form_step(ref, dt, solve_m)
    assert st.t == pytest.approx(ref.t, abs=1e-9)
    assert ref.u.min() < 1e-90
    assert np.max(np.abs(st.u - ref.u) / ref.u) <= 1e-11


@pytest.mark.parametrize("kernel", [dirac(0.0), MIXED],
                         ids=["local", "atom+gaussian"])
def test_imex_step_never_writes_the_array_it_read(kernel):
    # for delta(s), convolve_grid hands back u itself, so a step that
    # wrote into K*u would write into u
    st = small_state(kernel)
    assert (pdesim.convolve_grid(st, st.u) is st.u) == (st.stencil is None)
    solve = pdesim._crank_nicolson(st.x.size, 0.05 / st.dx ** 2)
    for _ in range(3):
        u = st.u
        u_in = u.copy()
        pdesim._imex_step(st, 0.05, solve)
        assert st.u is not u and not np.shares_memory(st.u, u)
        assert np.array_equal(u, u_in)
