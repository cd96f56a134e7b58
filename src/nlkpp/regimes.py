"""A priori bounds and convergence criteria for semi-wavefronts.

This is the decision layer: given a speed c and a kernel K it produces the
uniform bound U(c,K) with the operator constants beta and b built from it
(`wave_constants`, the one rule for all three), the interaction intensities,
the convergence verdict, and the (p,P) feasibility geometry bounding profile
oscillations.  Rates come from `spectral.f_func` (imported here by name),
the U(c,K) radius from `spectral.brentq`, the package's one bracketed
solver.
"""
from __future__ import annotations

import math

import numpy as np

from . import DomainError
from .kernels import Kernel, alpha_plus, alpha_minus, exp_moment
from .spectral import brentq, quad_roots, monotone_front_root, f_func


def _left_radius(k: Kernel) -> int | None:
    """Smallest integer r with more than 0.99 of the kernel mass on [-r, 0],
    or None if there is no such r: the nodes with s <= 0, sorted by |s|, are
    summed until the mass first passes 0.99, and r = ceil(|s|) there."""
    left = k.nodes <= 0
    dist = -k.nodes[left]
    order = np.argsort(dist)
    passed = np.nonzero(np.cumsum(k.masses[left][order]) > 0.99)[0]
    if passed.size == 0:
        return None
    return math.ceil(dist[order[passed[0]]])


def _u2_radius(c: float) -> float:
    """sigma of the U2 bound: the smallest s >= 1e-12 where
    h(s) = 2c(e^{lam s}-1)/(e^{cs}-1) < 0.01.  h is written with e^{-cs} so
    that it cannot overflow, and it falls from 2 lam, so sigma is the
    crossing (or 1e-12).  h(s) < 4c e^{-mu s} brackets the crossing below
    log(400c)/mu; a brentq answer short of it is moved past it."""
    lam, mu = quad_roots(c)
    excess = lambda s: (2 * c * math.expm1(lam * s) * math.exp(-c * s)
                        / -math.expm1(-c * s) - 0.01)
    sigma = 1e-12
    if excess(sigma) >= 0:
        sigma = brentq(excess, sigma, math.log(400 * c) / mu, xtol=1e-12)
        if excess(sigma) >= 0:
            sigma += 2e-12
    return sigma


def u_bound(c: float, k: Kernel) -> float:
    """Uniform a priori bound U(c, K) on any semi-wavefront profile.

    Two constructions: U1 from the exponential moment of the delayed half
    (needs right mass), U2 = 2 exp(lam (r + sigma)) from the concentration
    radius r of the advanced half (needs right mass < 0.001).  On the
    overlap both are valid upper bounds, so take the minimum.  Raises
    DomainError when neither applies or the bound overflows a float.
    """
    lam, _ = quad_roots(c)
    rm = k.moment(np.ones_like, "right")
    candidates = []
    if rm > 0:
        # U1 needs a positive finite moment; inf comes from an overflowed
        # end of the density cell straddling 0
        em = exp_moment(k, f_func(c, -1.0), "right")
        candidates.append(max(1.0, 1.0 / em) if 0 < em < math.inf
                          else math.inf)
    if rm < 1e-3:
        r = _left_radius(k)
        if r is None or r > 10 ** 6:
            raise DomainError(
                "kernel carries less than 0.99 of its mass on [-1e6, 0]")
        try:
            candidates.append(2.0 * math.exp(lam * (r + _u2_radius(c))))
        except OverflowError:
            candidates.append(math.inf)
    if not candidates:
        raise DomainError("no U(c,K) formula applies to this kernel")
    U = min(candidates)
    if math.isinf(U):
        raise DomainError(f"U(c,K) overflows a float at c={c}")
    return max(1.0, U)


def operator_b(beta: float) -> float:
    """b = 2 beta + 3 of the monotone-iteration operator at its saturation
    level beta.  g_beta is the identity only on [0, beta], and every front
    approaches 1, so beta below 1 or a b that overflows raises DomainError.
    It needs no kernel, so a configured beta is checked before one is built."""
    if not beta >= 1:
        raise DomainError(f"beta must be >= 1, got {beta}")
    b = 2.0 * beta + 3.0
    if not math.isfinite(b):
        raise DomainError(f"beta = {beta} is too large: b = 2 beta + 3 "
                          "overflows")
    return b


def wave_constants(c: float, k: Kernel,
                   beta: float | None = None) -> tuple[float, float, float]:
    """(U, beta, b): the bound U(c, K), the operator's saturation level
    beta, one above U unless given, and its b (`operator_b`).  U is
    computed whether or not beta is given, so a kernel without a finite
    U(c, K) raises DomainError either way."""
    U = u_bound(c, k)
    beta = float(U + 1.0 if beta is None else beta)
    return U, beta, operator_b(beta)


def estm_bound(ap: float, am: float) -> float:
    """Oscillation bound (1 + a+ - a- + sqrt((1 + a+ - a-)^2 - 4 a+)) / (2 a+).

    Well defined when a+ > 0 and a+ + a- <= 1/2.
    """
    if ap <= 0 or am < 0 or ap + am > 0.5 + 1e-15:
        raise DomainError(
            "estm bound is well defined when alpha_plus > 0 and "
            f"alpha_plus + alpha_minus <= 1/2, got ({ap}, {am})")
    q = 1.0 + ap - am
    disc = q * q - 4.0 * ap
    if disc < 0:
        if disc > -1e-14:
            disc = 0.0
        else:
            raise DomainError(f"negative discriminant {disc} in oscillation bound")
    return (q + math.sqrt(disc)) / (2.0 * ap)


def convergence_check(c: float, k: Kernel, m_star: float) -> dict:
    """Verdict on guaranteed wavefront convergence for profiles bounded by
    m_star (U(c, K) in `classify`): one of three sufficient conditions,
    with all inequality values reported."""
    ap = alpha_plus(k, c)
    am = alpha_minus(k, c)
    detail = {"alpha_plus": ap, "alpha_minus": am, "m_star": m_star,
              "case1_lhs": m_star * (ap + am)}
    if m_star * (ap + am) < 1.0:
        detail["verdict"] = "guaranteed-case1"
    elif ap == 0.0 and ap + am < 0.5:
        detail["verdict"] = "guaranteed-case2"
    elif ap > 0.0 and ap + am < 0.5:
        bound = estm_bound(ap, am)
        detail["case3_bound"] = bound
        detail["verdict"] = ("guaranteed-case3" if m_star < bound
                             else "not-guaranteed")
    else:
        detail["verdict"] = "not-guaranteed"
    return detail


def intensity_case(ap: float, am: float) -> str:
    """Qualitative label of the interaction-intensity pair:
    'a': ap = 0, am in (0, 1/2);  'b': ap = 0, am >= 1/2;
    'c': am = 0, ap > 0;          'd': both > 0, sum < 1/2;
    'e': both > 0, sum >= 1/2;    'local': ap = am = 0.
    """
    if ap < 0 or am < 0:
        raise DomainError(f"intensities must be nonnegative, got ({ap}, {am})")
    if ap == 0 and am == 0:
        return "local"
    if ap == 0:
        return "a" if am < 0.5 else "b"
    if am == 0:
        return "c"
    return "d" if ap + am < 0.5 else "e"


# tolerance of the band inequalities in the (p, P) grid scan, and its
# largest grid side: grid_n^2 points, about 300 MB through `region` at 1,000
BAND_SLACK = 1e-9
MAX_REGION_GRID = 1000


def band_inequalities(p, P, ap: float, am: float):
    """Left-hand sides of the two oscillation-band inequalities:
    lower: p + a+ P (1-p) + a- P (P-1) >= 1
    upper: P - a+ P (P-1) - a- P (1-p) <= 1
    """
    p = np.asarray(p, dtype=float)
    P = np.asarray(P, dtype=float)
    # each intensity meets its factor that can vanish first: a+ (1 - p) at
    # p = 1 is 0 for any a+, where a+ P can overflow to give inf * 0 = nan.
    # For p in (0, 1], finite P >= 1, an overflow is +inf in lower and -inf
    # in upper: the P -> inf verdicts
    with np.errstate(over="ignore"):
        lower = p + ap * (1.0 - p) * P + am * (P - 1.0) * P
        upper = P - ap * (P - 1.0) * P - am * (1.0 - p) * P
    return lower, upper


def a_star(ap: float, am: float) -> tuple[float, float]:
    """Second analytic anchor (p, P) at which both band inequalities are
    equalities: (2 - 1/(a+ + a-), 1/(a+ + a-))."""
    s = ap + am
    if s <= 0:
        raise DomainError("anchor point needs alpha_plus + alpha_minus > 0")
    return 2.0 - 1.0 / s, 1.0 / s


def pP_feasible_set(ap: float, am: float, P_cap: float = 5.0,
                    grid_n: int = 400) -> dict:
    """Grid scan of the (p, P) region satisfying both band inequalities,
    each to within BAND_SLACK.

    Returns the boolean mask (row-major over p then P), the grid axes, the
    feasible extremes (p_min, P_max), and the analytic anchors.
    """
    if ap < 0 or am < 0:
        raise DomainError(f"intensities must be nonnegative, got ({ap}, {am})")
    if P_cap < 1 or not 100 <= grid_n <= MAX_REGION_GRID:
        raise DomainError(f"need P_cap >= 1 and 100 <= grid_n <= "
                          f"{MAX_REGION_GRID}, got ({P_cap}, {grid_n})")
    p_axis = np.linspace(1.0 / grid_n, 1.0, grid_n)
    P_axis = np.linspace(1.0, P_cap, grid_n)
    lower, upper = band_inequalities(p_axis[:, None], P_axis[None, :], ap, am)
    mask = (lower >= 1.0 - BAND_SLACK) & (upper <= 1.0 + BAND_SLACK)
    anchors = [(1.0, 1.0)]
    if ap + am > 0:
        anchors.append(a_star(ap, am))
    if mask.any():
        p_min = float(p_axis[mask.any(axis=1)].min())
        P_max = float(P_axis[mask.any(axis=0)].max())
    else:
        p_min, P_max = math.nan, math.nan
    return {"p_axis": p_axis, "P_axis": P_axis, "mask": mask,
            "p_min": p_min, "P_max": P_max, "anchors": anchors}


def mM_inequality_check(m: float, M: float, c: float, k: Kernel) -> dict:
    """Consistency test of measured profile extremes (m, M) = (-ln P, -ln p).

    Evaluates, with rho(u) = f(e^{-u} - 1),
      S1 = int_{s>=0} e^{rho(m) s} K + int_{s<0} e^{rho(M) s} K  (must be >= e^M)
      S2 = int_{s>=0} e^{rho(M) s} K + int_{s<0} e^{rho(m) s} K  (must be <= e^m)
    """
    if not (m <= 0 <= M):
        raise DomainError(f"need m <= 0 <= M, got ({m}, {M})")
    rho_m = f_func(c, math.exp(-m) - 1.0)
    rho_M = f_func(c, math.exp(-M) - 1.0)

    # e^{rate s}, with one rate on s >= 0 and another on s < 0, is 1 at
    # s = 0 from either side, so each sum is one whole-line moment
    def total(right_rate, left_rate):
        with np.errstate(over="ignore"):    # an overflow sums to +inf
            return k.moment(lambda s: np.exp(
                np.where(s >= 0, right_rate, left_rate) * s))

    s1 = total(rho_m, rho_M)
    s2 = total(rho_M, rho_m)
    return {"s1": s1, "s2": s2,
            "holds1": s1 >= math.exp(M) - 1e-12,
            "holds2": s2 <= math.exp(m) + 1e-12}


def classify(c: float, k: Kernel) -> dict:
    """Regime report for (c, K), as `classify.json` holds it: existence, the
    bounds of `wave_constants`, verdicts, geometry and the intensity case."""
    ap = alpha_plus(k, c)
    am = alpha_minus(k, c)
    report = {"c": c, "alpha_plus": ap, "alpha_minus": am,
              "intensity_case": intensity_case(ap, am)}
    if not c >= 2:
        nan = math.nan
        return {**report, "u_bound": nan, "beta": nan, "b": nan,
                "fz_root": None, "semi_wavefront_exists": False,
                "monotone_front_exists": False,
                "convergence": "not-guaranteed", "convergence_detail": {
                    "verdict": "not-guaranteed",
                    "reason": "no semi-wavefront for c < 2"},
                "pP_extremes": [nan, nan], "alc_informational": {}}
    U, beta, b = wave_constants(c, k)
    fz, _ = monotone_front_root(c, k)
    detail = convergence_check(c, k, U)
    geo = pP_feasible_set(ap, am)
    with np.errstate(over="ignore"):    # an overflow is rejected below
        second_moment = k.moment(lambda s: np.asarray(s, dtype=float) ** 2)
    alc = {"c": c, "threshold": detail["m_star"] * math.sqrt(second_moment),
           "informational": True}
    inf = [name for name, v in {**detail, **alc}.items()
           if isinstance(v, float) and math.isinf(v)]
    if inf:
        raise DomainError(
            f"report values {', '.join(inf)} overflow a float at c={c}")
    return {**report, "u_bound": U, "beta": beta, "b": b, "fz_root": fz,
            "semi_wavefront_exists": True,
            "monotone_front_exists": fz is not None,
            "convergence": detail["verdict"], "convergence_detail": detail,
            "pP_extremes": [geo["p_min"], geo["P_max"]],
            "alc_informational": alc}
