import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from nlkpp import DomainError, NoConvergence
from nlkpp import kernels as ker
from nlkpp import spectral as sp


def test_quad_roots_identities():
    lam, mu = sp.quad_roots(2.5)
    assert lam == pytest.approx(0.5)
    assert mu == pytest.approx(2.0)
    assert lam * mu == pytest.approx(1.0)
    assert lam + mu == pytest.approx(2.5)


def test_quad_roots_critical_speed():
    lam, mu = sp.quad_roots(2.0)
    assert lam == mu == 1.0


def test_quad_roots_subcritical_raises():
    with pytest.raises(DomainError, match="no real decay rates"):
        sp.quad_roots(1.9)


@given(st.floats(2.0, 1e8))
@example(1e6)
@example(1e8)
@settings(max_examples=60, deadline=None)
def test_quad_roots_product_one(c):
    # lam = 1/mu to working precision at every speed: no cancellation
    lam, mu = sp.quad_roots(c)
    assert lam * mu == pytest.approx(1.0, rel=1e-12)
    assert lam + mu == pytest.approx(c, rel=1e-12)
    assert 0 < lam <= 1 <= mu


# increasing through r, so f(r - da) < 0 < f(r + db), and f(r) is 0 but for
# "exp" and "step"; "step" and "flat" defeat interpolation, "root10"
# extrapolation
_BRACKETED = {
    "cubic": lambda r, p: lambda x: (x - r) ** 3 + p * (x - r),
    "tanh": lambda r, p: lambda x: math.tanh(p * (x - r)),
    "exp": lambda r, p: lambda x: math.exp(p * x) - math.exp(p * r),
    "atan": lambda r, p: lambda x: math.atan(x - r) + 0.01 * (x - r) ** 3,
    "step": lambda r, p: lambda x: -p if x < r else 1.0,
    "flat": lambda r, p: lambda x: (x - r) ** 9,
    "root10": lambda r, p: lambda x: math.copysign(abs(x - r) ** 0.1, x - r),
    "wiggle": lambda r, p: lambda x: (x - r) * (1.5 + math.sin(3 * p * x)),
}
# the defaults, then monotone_front_root's, _u2_radius's and growth_rate's
_TOLERANCES = [{}, {"xtol": 1e-300, "rtol": 1e-14}, {"xtol": 1e-12},
               {"xtol": 1e-14}]


@given(kind=st.sampled_from(sorted(_BRACKETED)), r=st.floats(-5, 5),
       p=st.floats(0.1, 5), da=st.floats(1e-9, 30), db=st.floats(1e-9, 30),
       tol=st.sampled_from(_TOLERANCES), swap=st.booleans(),
       # one example in three with a bracket end at r
       end=st.sampled_from(["a", "b", None, None, None, None]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_brentq_returns_scipys_root_exactly(kind, r, p, da, db, tol, swap,
                                            end):
    # the port repeats scipy's brentq.c step for step, so every root the
    # package computes is the float scipy.optimize.brentq returns; a bracket
    # end where f is exactly 0 is returned as it is
    f = _BRACKETED[kind](r, p)
    a, b = r - da, r + db
    if end == "a":
        a = r
    elif end == "b":
        b = r
    if swap:
        a, b = b, a
    try:
        want = brentq(f, a, b, **tol)
    except ValueError:    # "exp" or "step" with an end at r keeps one sign
        with pytest.raises(DomainError, match="same sign"):
            sp.brentq(f, a, b, **tol)
        return
    except RuntimeError:
        with pytest.raises(NoConvergence, match="did not converge"):
            sp.brentq(f, a, b, **tol)
        return
    got = sp.brentq(f, a, b, **tol)
    assert got == want and type(got) is float


def test_brentq_without_a_sign_change_is_domain_error():
    with pytest.raises(DomainError, match="same sign at both ends"):
        sp.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(DomainError, match="same sign at both ends"):
        sp.brentq(lambda x: x - 3.0, 0.0, 2.0)


def test_brentq_step_cap_is_no_convergence():
    # a jump at 0 with no root: the bracket must shrink to about xtol = 1e-300
    # around it, some 1,000 halvings, past the cap of 100 steps
    f = lambda x: -1.0 if x < 0 else 1.0
    with pytest.raises(RuntimeError, match="Failed to converge"):
        brentq(f, -1.0, 2.0, xtol=1e-300, rtol=1e-14)
    with pytest.raises(NoConvergence, match="did not converge in 100 steps"):
        sp.brentq(f, -1.0, 2.0, xtol=1e-300, rtol=1e-14)


def test_brentq_nan_is_no_convergence():
    with pytest.raises(NoConvergence, match="not a number"):
        sp.brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(NoConvergence, match="not a number"):
        sp.brentq(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0)


def test_monotone_front_root_local_kernel_recovers_quadratic():
    # K = delta at 0: criterion polynomial is z^2 - c z - 1, negative root
    # (c - sqrt(c^2+4))/2
    c = 2.5
    root, _ = sp.monotone_front_root(c, ker.dirac(0.0))
    assert root == pytest.approx((c - math.sqrt(c * c + 4)) / 2, abs=1e-10)


@pytest.mark.parametrize("c", [1e6, 1e13, 1e20, 1e100])
def test_monotone_front_root_large_speed_is_minus_one_over_c(c):
    # the root -2/(c + sqrt(c^2 + 4)) is about -1/c, far below an absolute
    # 1e-14 once c is large, so the solve must resolve it relatively
    for k in (ker.dirac(0.0), ker.dirac(-1.0), ker.dirac(3.0)):
        root, _ = sp.monotone_front_root(c, k)
        assert root < 0
        assert root * c == pytest.approx(-1.0, rel=1e-5)
    root, _ = sp.monotone_front_root(c, ker.dirac(0.0))
    assert root == pytest.approx(-2.0 / (c + math.sqrt(c * c + 4)), rel=1e-12)


def test_monotone_front_root_residual_small():
    c, k = 2.2, ker.dirac(1.0)
    root, _ = sp.monotone_front_root(c, k)
    res = root * root - c * root - ker.exp_moment(k, -root, "both")
    assert abs(res) < 1e-9


def test_monotone_front_root_none_for_strong_delay():
    # a far-delayed atom makes e^{-lam s} blow up for lam < 0, killing all
    # negative roots: no monotone front
    root, diag = sp.monotone_front_root(2.5, ker.dirac(5.0))
    assert root is None
    assert "tail_certificate" in diag


def _per_point_root(c, k):
    """The monotone-front scan one grid point at a time, each an
    exp_moment call: the reference for the vectorized scan."""
    def g(lam):
        return lam * lam - c * lam - ker.exp_moment(k, -lam, "both")

    grid = np.linspace(sp.MONOTONE_LAM_MIN, 0.0, sp.MONOTONE_BRACKETS + 1)
    vals = [g(x) for x in grid]
    for i in range(sp.MONOTONE_BRACKETS - 1, -1, -1):
        if vals[i] == 0.0:
            return grid[i]
        if sp._opposite(vals[i], vals[i + 1]):
            return brentq(g, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-14)
    return None


_MIXED, _ = ker.from_config({
    "atoms": [{"s": 1.0, "mass": 0.3}],
    "density": {"lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
                "params": {"sigma": 0.5}}})


@pytest.mark.parametrize("c, k", [
    (2.5, ker.dirac(-0.5)), (2.5, ker.dirac(5.0)), (3.0, _MIXED),
    (14.14, ker.dirac(-68.047)),
], ids=["advanced", "delayed", "mixed", "far-advanced"])
def test_vectorized_scan_matches_per_point_scan(c, k):
    root, diag = sp.monotone_front_root(c, k)
    ref = _per_point_root(c, k)
    if ref is None:
        assert root is None
        assert diag["tail_certificate"] == "single-atom exponential dominance"
    else:
        assert root == pytest.approx(ref, rel=1e-15, abs=0)


def test_monotone_front_root_exists_for_advance():
    # advanced atom: the exponential moment vanishes as lam -> -inf, so a
    # negative root always exists
    for h in (0.5, 0.8109, 2.0):
        root, _ = sp.monotone_front_root(2.5, ker.dirac(-h))
        assert root is not None and root < 0


def test_chi1_single_root_small_tau():
    rep = sp.chi1_roots(1.0)
    assert rep.count == 1 and len(rep.roots) == 1
    z = rep.roots[0]
    # z = exp(-z) has the omega constant as its real solution
    assert z.imag == 0.0
    assert z.real == pytest.approx(0.5671432904097838, abs=1e-9)


def test_chi1_three_roots_after_crossing():
    rep = sp.chi1_roots(3 * math.pi / 2 + 0.1)
    assert rep.count == 3 and len(rep.roots) == 3
    assert not rep.boundary and rep.converged
    # one real, one conjugate pair just right of the axis
    reals = [z for z in rep.roots if z.imag == 0.0]
    pairs = [z for z in rep.roots if z.imag > 0]
    assert len(reals) == 1 and len(pairs) == 1
    assert 0 < pairs[0].real < 0.05
    assert all(rep.residuals[i] < 1e-9 for i in range(3))


def test_chi1_roots_in_unit_disk():
    for tau in (0.5, 2.0, 5.0, 9.0):
        rep = sp.chi1_roots(tau)
        for z in rep.roots:
            assert abs(z) <= 1.0 + 1e-9


def test_chi1_boundary_tau():
    rep = sp.chi1_roots(3 * math.pi / 2)
    assert rep.boundary
    assert rep.count == 3
    ims = sorted(round(z.imag, 6) for z in rep.roots)
    assert ims[0] == -1.0 and ims[-1] == 1.0


def test_chi1_five_roots_past_second_crossing():
    rep = sp.chi1_roots(7 * math.pi / 2 + 0.1)
    assert rep.count == 5 and len(rep.roots) == 5


def test_chi1_overflowing_newton_seed_emits_no_warning():
    # some lattice seeds step far into the left half-plane, where
    # exp(-tau z) overflows; those runs stop quietly as not converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sp.chi1_roots(6.6045112781954876)
    assert rep.count == 3 and rep.converged
    pair = complex(0.04862849745529154, 0.7236697755290545)
    assert rep.roots == pytest.approx(
        (0.22551067368852534, pair.conjugate(), pair), abs=1e-12)


def test_chi1_domain_error():
    with pytest.raises(DomainError, match="needs tau > 0"):
        sp.chi1_roots(0.0)


def test_eps_advanced_matches_limit():
    tau = 3 * math.pi / 2 + 0.1
    base = sp.chi1_roots(tau)
    rep = sp.chi1_roots(tau, 1e-6)
    assert rep.count == base.count
    for z0, z1 in zip(sorted(base.roots, key=lambda z: (z.real, z.imag)),
                      sorted(rep.roots, key=lambda z: (z.real, z.imag))):
        assert abs(z0 - z1) < 1e-4


def test_eps_advanced_roots_satisfy_equation():
    tau, eps = 5.0, 1e-2
    rep = sp.chi1_roots(tau, eps)
    assert rep.function_id == "eps_advanced"
    for z in rep.roots:
        assert abs(eps * z * z + z - np.exp(-tau * z)) < 1e-8
    assert rep.converged


@pytest.mark.parametrize("tau", [4.95, 5.05])
def test_eps_advanced_census_converged(tau):
    assert sp.chi1_roots(tau, 1e-2).converged


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_eps_advanced_failed_contour_is_not_converged(monkeypatch, eps):
    # a contour integral that never settles near an integer certifies no
    # count, whatever the root search finds
    real = sp._winding_number

    def unconverged(*args, **kwargs):
        cnt, _, minmod = real(*args, **kwargs)
        return cnt, False, minmod

    monkeypatch.setattr(sp, "_winding_number", unconverged)
    assert not sp.chi1_roots(5.0, eps).converged


TOY_C = 2.5
TOY_CTAU = 2 * math.log(1.5)


def test_toy_steady_exact_root():
    # z = -1/2 solves z^2 - cz - e^{-ctau z} for c = 5/2, ctau = 2 ln(3/2):
    # 1/4 + 5/4 - (3/2) = 0 exactly
    z = sp.toy_steady_roots(TOY_C, TOY_CTAU, -0.5 + 0j)
    assert z == pytest.approx(-0.5 + 0j, abs=1e-12)


def test_toy_steady_second_real_root():
    z = sp.toy_steady_roots(TOY_C, TOY_CTAU, -4.0 + 0j)
    assert z.imag == 0.0
    assert z.real == pytest.approx(-4.035, abs=2e-3)


def test_toy_steady_complex_pair():
    z = sp.toy_steady_roots(TOY_C, TOY_CTAU, -6.0 + 10.0j)
    assert z.real == pytest.approx(-6.2402, abs=1e-3)
    assert abs(z.imag) == pytest.approx(10.054, abs=1e-2)


def test_toy_steady_no_convergence_raises():
    with pytest.raises(NoConvergence, match="Newton did not converge"):
        # seed far out in the left half-plane where the exponential swamps
        # Newton; iteration wanders without converging
        sp.toy_steady_roots(TOY_C, TOY_CTAU, -300.0 + 1.0j)


@given(st.floats(0.3, 12.0),
       st.one_of(st.just(0.0), st.floats(1e-6, 0.1)))
# just short of the second crossing, where the shifted contour holds a pair
# in the left half-plane with |z| > 1
@example(tau=10.9921875, eps=0.0)
# a pair 5e-6 right of the axis, nearer the contour than its samples' spacing
@example(tau=10.950653192218367, eps=0.09765625)
@settings(max_examples=25, deadline=None)
def test_chi1_census_consistent(tau, eps):
    rep = sp.chi1_roots(tau, eps)
    if not rep.boundary:
        assert rep.converged
        assert rep.count == len(rep.roots)
        assert rep.count % 2 == 1  # one real root plus conjugate pairs
    for z, r in zip(rep.roots, rep.residuals):
        assert r < 1e-8
        assert abs(eps * z * z + z - np.exp(-tau * z)) < 1e-8
        assert abs(z) <= 1.0 + 1e-9
