import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from nlkpp import kernels as ker
from nlkpp import regimes as reg
from nlkpp import DomainError

# the standard normal density on [-8, 8], 1601 nodes
GAUSSIAN = ker.from_config(
    {"density": {"lo": -8.0, "hi": 8.0, "n": 1601, "kind": "gaussian"}})[0]


def test_f_func_values():
    assert reg.f_func(2.0, 0.0) == 0.0
    assert reg.f_func(2.0, -1.0) == pytest.approx(-1.0)
    assert reg.f_func(2.0, 3.0) == pytest.approx(1.0)


def test_f_func_matches_negative_lambda():
    from nlkpp.spectral import quad_roots
    for c in (2.0, 2.5, 4.0):
        lam, _ = quad_roots(c)
        assert reg.f_func(c, -1.0) == pytest.approx(-lam, abs=1e-12)


def test_f_func_domain():
    with pytest.raises(DomainError, match=r"only defined for s >= -1"):
        reg.f_func(2.0, -1.5)


@given(st.floats(2.0, 10.0),
       st.floats(-1.0, 10.0), st.floats(1e-6, 5.0))
@settings(max_examples=100, deadline=None)
def test_f_func_strictly_increasing(c, s1, gap):
    assert reg.f_func(c, s1) < reg.f_func(c, s1 + gap)


def test_u_bound_delayed_atom():
    assert reg.u_bound(2.0, ker.dirac(1.0)) == pytest.approx(math.e, abs=1e-12)


def test_u_bound_gaussian():
    assert reg.u_bound(2.0, GAUSSIAN) == pytest.approx(3.8229, abs=1e-3)


def test_u_bound_advanced_atom_formula():
    # pure advance: U = 2 e^{lam (r + sigma)} with r = 1, sigma from the
    # threshold of 4/(e^sigma + 1) = 0.01, i.e. sigma = ln(399)
    U = reg.u_bound(2.0, ker.dirac(-1.0))
    assert U == pytest.approx(2.0 * math.exp(1.0 + math.log(399.0)), rel=1e-6)


@pytest.mark.parametrize("c", [2.05, 2.5, 3.0, 10.0, 50.0, 150.0, 711.0, 1e5])
def test_u_bound_radius_is_the_admissible_crossing(c):
    # the smallest s >= 1e-12 with 2c(e^{lam s}-1)/(e^{cs}-1) < 0.01, by a
    # 40-digit bisection; the radius must not fall short of it (admissible)
    # and may pass it by at most 1e-11
    lam = reg.quad_roots(c)[0]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        L, C, cut = decimal.Decimal(lam), decimal.Decimal(c), decimal.Decimal("0.01")
        h = lambda s: 2 * C * ((L * s).exp() - 1) / ((C * s).exp() - 1)
        lo, hi = decimal.Decimal(1e-12), decimal.Decimal(50)
        if h(lo) < cut:
            hi = lo
        while hi - lo > decimal.Decimal("1e-30"):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if h(mid) < cut else (mid, hi)
        sigma = decimal.Decimal(reg._u2_radius(c))
        assert hi <= sigma <= hi + decimal.Decimal("1e-11")


def test_u_bound_at_least_one():
    assert reg.u_bound(2.0, ker.dirac(5.0)) >= 1.0


def test_u_bound_continuity_in_mass():
    k1 = ker.normalize(ker.Kernel(atoms=((1.0, 1.0), (-0.5, 0.5))))
    k2 = ker.normalize(ker.Kernel(atoms=((1.0, 1.0 + 1e-6), (-0.5, 0.5))))
    assert abs(reg.u_bound(2.5, k1) - reg.u_bound(2.5, k2)) <= 1e-3


def test_u_bound_representation_error():
    with pytest.raises(DomainError, match="less than 0.99 of its mass"):
        # right mass zero, but all mass far right of any [-r, 0]... put the
        # mass at a negative offset beyond the r search cap
        reg.u_bound(2.0, ker.dirac(-2e6))


def test_estm_bound_value():
    assert reg.estm_bound(0.1, 0.2) == pytest.approx(7.70156, abs=1e-4)


def test_estm_bound_boundary_discriminant():
    assert reg.estm_bound(0.25, 0.25) == pytest.approx(2.0, abs=1e-12)


def test_estm_bound_domain_error():
    with pytest.raises(DomainError, match="estm bound is well defined"):
        reg.estm_bound(0.4, 0.2)
    with pytest.raises(DomainError, match="estm bound is well defined"):
        reg.estm_bound(0.0, 0.3)


def test_estm_bound_blows_up_as_ap_vanishes():
    assert reg.estm_bound(1e-8, 0.3) > 1e7


def test_convergence_case1():
    k = ker.normalize(ker.Kernel(atoms=((-1.0, 0.4), (1.0, 0.2))))
    # c = 2: a+ = 2/15? compute: moments .4*1=.4 left-> a+ = .4/2=0.2/... use c big
    d = reg.convergence_check(10.0, k, m_star=3.0)
    assert d["verdict"] == "guaranteed-case1"
    assert d["case1_lhs"] < 1.0


def test_convergence_case2_pure_delay():
    d = reg.convergence_check(2.5, ker.dirac(0.5), m_star=100.0)
    assert d["verdict"] == "guaranteed-case2"
    assert d["alpha_plus"] == 0.0


def test_convergence_case3():
    # a+ = 0.1, a- = 0.2 at c = 2: atoms at -0.2 and +0.4
    k = ker.normalize(ker.Kernel(atoms=((-0.2, 0.5), (0.4, 0.5))))
    ap, am = ker.alpha_plus(k, 2.0), ker.alpha_minus(k, 2.0)
    assert (ap, am) == (pytest.approx(0.05), pytest.approx(0.1))
    d = reg.convergence_check(2.0, k, m_star=5.0)
    # 5*(0.15) = 0.75 < 1 -> actually case1; push m_star up
    d = reg.convergence_check(2.0, k, m_star=8.0)
    assert d["verdict"] == "guaranteed-case3"
    assert d["m_star"] < d["case3_bound"]


def test_convergence_not_guaranteed():
    d = reg.convergence_check(2.0, ker.dirac(-1.0), m_star=50.0)
    assert d["verdict"] == "not-guaranteed"


def test_pP_collapse_pure_delay():
    geo = reg.pP_feasible_set(0.0, 0.3, P_cap=5.0, grid_n=400)
    assert geo["p_min"] == pytest.approx(1.0, abs=2.5e-3)
    assert geo["P_max"] == pytest.approx(1.0, abs=2.5e-3 * 4)
    assert geo["anchors"][0] == (1.0, 1.0)


def test_pP_anchor_equalities():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.uniform(0.05, 0.95)
        ap = rng.uniform(0.0, s)
        am = s - ap
        for p, P in [(1.0, 1.0), reg.a_star(ap, am)]:
            lo, up = reg.band_inequalities(p, P, ap, am)
            assert abs(lo - 1.0) < 1e-12
            assert abs(up - 1.0) < 1e-12


def test_pP_corner_always_feasible():
    for ap, am in [(0.2, 0.1), (0.0, 0.3), (0.4, 0.35)]:
        geo = reg.pP_feasible_set(ap, am, P_cap=4.0, grid_n=400)
        # the grid point (p, P) = (1, 1) satisfies both inequalities exactly
        assert geo["mask"][-1, 0]
        assert math.isfinite(geo["p_min"]) and math.isfinite(geo["P_max"])


def _pP_meshgrid_scan(ap, am, P_cap, grid_n):
    # reference: the band scan on two full (p, P) meshgrids
    p_axis = np.linspace(1.0 / grid_n, 1.0, grid_n)
    P_axis = np.linspace(1.0, P_cap, grid_n)
    Pg, pg = np.meshgrid(P_axis, p_axis)
    lower, upper = reg.band_inequalities(pg, Pg, ap, am)
    mask = (lower >= 1.0 - reg.BAND_SLACK) & (upper <= 1.0 + reg.BAND_SLACK)
    if not mask.any():
        return mask, math.nan, math.nan
    return mask, float(pg[mask].min()), float(Pg[mask].max())


def test_pP_feasible_set_matches_meshgrid_scan():
    # random intensities, caps and grid sizes, and a nan intensity, which
    # makes every point infeasible and both extremes nan
    rng = np.random.default_rng(8)
    cases = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
              rng.uniform(1.0, 8.0), int(rng.integers(100, 401)))
             for _ in range(40)] + [(math.nan, 0.2, 5.0, 100)]
    for ap, am, cap, n in cases:
        geo = reg.pP_feasible_set(ap, am, P_cap=cap, grid_n=n)
        mask, p_min, P_max = _pP_meshgrid_scan(ap, am, cap, n)
        assert np.array_equal(geo["mask"], mask)
        np.testing.assert_array_equal([geo["p_min"], geo["P_max"]],
                                      [p_min, P_max])
    assert not mask.any() and math.isnan(geo["p_min"])


def test_pP_huge_intensity_row_p_one_feasible():
    # at p = 1 the a+ term is a+ P (1 - p) = 0 however large a+ and P are:
    # every point of the row satisfies both inequalities
    geo = reg.pP_feasible_set(1e200, 0.1, P_cap=1e200, grid_n=100)
    assert geo["mask"][-1].all()


def test_mM_zero_pair_equality():
    out = reg.mM_inequality_check(0.0, 0.0, 2.0, ker.dirac(0.0))
    assert out["s1"] == pytest.approx(1.0) and out["s2"] == pytest.approx(1.0)
    assert out["holds1"] and out["holds2"]


def test_mM_local_kernel_infeasible():
    out = reg.mM_inequality_check(-0.1, 0.1, 2.0, ker.dirac(0.0))
    assert not out["holds1"]


def test_mM_matches_direct_node_sum_with_atom_at_zero():
    # an atom at 0 and a gaussian: e^{rho s} is 1 at s = 0 whichever rate
    # applies, so each sum is a plain sum over atoms and density nodes
    k, _ = ker.from_config({
        "atoms": [{"s": 0.0, "mass": 0.4}, {"s": -1.5, "mass": 0.2}],
        "density": {"lo": -4.0, "hi": 4.0, "n": 201, "kind": "gaussian"}})
    m, M, c = -0.3, 0.2, 2.5
    rho_m = reg.f_func(c, math.exp(-m) - 1.0)
    rho_M = reg.f_func(c, math.exp(-M) - 1.0)
    pairs = list(k.atoms) + list(zip(k.density.grid,
                                     k.density.weights * k.density.values))

    def direct(right_rate, left_rate):
        return math.fsum(w * math.exp((right_rate if s >= 0 else left_rate)
                                      * s) for s, w in pairs)

    out = reg.mM_inequality_check(m, M, c, k)
    assert out["s1"] == pytest.approx(direct(rho_m, rho_M), rel=1e-13)
    assert out["s2"] == pytest.approx(direct(rho_M, rho_m), rel=1e-13)


def test_classify_subcritical_speed():
    rep = reg.classify(1.5, ker.dirac(0.0))
    assert not rep["semi_wavefront_exists"]
    assert not rep["monotone_front_exists"]


def test_classify_advanced_kernel_monotone():
    rep = reg.classify(2.5, ker.dirac(-0.5))
    assert rep["semi_wavefront_exists"]
    assert rep["monotone_front_exists"]
    assert rep["fz_root"] is not None and rep["fz_root"] < 0
    assert rep["beta"] > rep["u_bound"]
    assert rep["b"] > 2 * rep["beta"] + 2


def test_classify_large_delay_nonmonotone():
    rep = reg.classify(2.5, ker.dirac(5.0))
    assert rep["semi_wavefront_exists"]
    assert not rep["monotone_front_exists"]
    assert rep["alc_informational"]["informational"] is True


def test_riccati_comparison_bounds():
    # solutions of y' = c y + y^2 - g with -1 < A <= g <= B, integrated
    # backward from y(b) = 0, stay within [f(A), f(B)]
    rng = np.random.default_rng(42)
    c = 2.5
    for _ in range(50):
        # A <= 0 <= B so the terminal value y(b) = 0 lies in [f(A), f(B)]
        A = rng.uniform(-0.9, 0.0)
        B = rng.uniform(0.0, 2.0)
        w = rng.uniform(0.3, 3.0)
        ph = rng.uniform(0, 2 * math.pi)
        g = lambda t: A + (B - A) * (0.5 + 0.5 * np.sin(w * t + ph))
        sol = solve_ivp(lambda t, y: c * y + y * y - g(t), (5.0, 0.0), [0.0],
                        rtol=1e-9, atol=1e-11, dense_output=True)
        ts = np.linspace(5.0, 0.0, 200)
        ys = sol.sol(ts)[0]
        fA, fB = reg.f_func(c, A), reg.f_func(c, B)
        assert ys.min() >= fA - 1e-6
        assert ys.max() <= fB + 1e-6
