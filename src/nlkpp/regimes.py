"""A priori bounds and convergence criteria for semi-wavefronts.

This is the decision layer: given a speed c and a kernel K it produces the
uniform bound U(c,K), the interaction intensities, the convergence verdict,
and the (p,P) feasibility geometry bounding profile oscillations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel, alpha_plus, alpha_minus, exp_moment
from .spectral import quad_roots, monotone_front_root, DomainError


@dataclass(frozen=True)
class RegimeReport:
    c: float
    alpha_plus: float
    alpha_minus: float
    u_bound: float
    beta: float
    b: float
    fz_root: float | None
    semi_wavefront_exists: bool
    monotone_front_exists: bool
    convergence: str
    convergence_detail: dict
    pP_extremes: tuple[float, float]
    alc_informational: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["pP_extremes"] = list(self.pP_extremes)
        return d


def f_func(c: float, s):
    """f(s) = 2s / (c + sqrt(c^2 + 4s)): the increasing root branch of the
    logarithmic-derivative quadratic; f(0) = 0 and f(-1) = -lam(c)."""
    if c < 2:
        raise DomainError(f"f needs c >= 2, got {c}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < -1):
        raise DomainError("f is only defined for s >= -1")
    out = 2.0 * s_arr / (c + np.sqrt(c * c + 4.0 * s_arr))
    return float(out) if out.ndim == 0 else out


class RepresentationError(ValueError):
    """Kernel cannot express the requested construction (e.g. no left mass)."""


def _right_mass(k: Kernel) -> float:
    return k.moment(lambda s: np.where(np.asarray(s) > 0, 1.0, 0.0))


def _left_radius(k: Kernel) -> int | None:
    """Smallest integer r with more than 0.99 of the kernel mass on [-r, 0],
    or None if there is no such r: the nodes with s <= 0, sorted by |s|, are
    summed until the mass first passes 0.99, and r = ceil(|s|) there."""
    s = np.array([a for a, m in k.atoms if m > 0], float)
    mass = np.array([m for _, m in k.atoms if m > 0], float)
    if k.density is not None:
        s = np.concatenate([s, k.density.grid])
        mass = np.concatenate([mass, k.density.weights * k.density.values])
    left = s <= 0
    dist = -s[left]
    order = np.argsort(dist)
    passed = np.nonzero(np.cumsum(mass[left][order]) > 0.99)[0]
    if passed.size == 0:
        return None
    return math.ceil(dist[order[passed[0]]])


def u_bound(c: float, k: Kernel) -> float:
    """Uniform a priori bound U(c, K) on any semi-wavefront profile.

    Two constructions: U1 from the exponential moment of the delayed half
    (needs right mass), U2 = 2 exp(lam (r + sigma)) from the concentration
    radius r of the advanced half (needs right mass < 0.001).  On the
    overlap both are valid upper bounds, so take the minimum.  Raises
    RepresentationError when neither applies or the bound overflows a float.
    """
    lam, _ = quad_roots(c)
    rm = _right_mass(k)
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
            raise RepresentationError(
                "kernel carries less than 0.99 of its mass on [-1e6, 0]")
        # sigma: threshold where 2c(e^{lam s}-1)/(e^{cs}-1) crosses 0.01;
        # the ratio decreases from 2*lam, so the smallest admissible sigma
        # (tightest bound) is the bisected crossing point
        h = lambda s: 2 * c * math.expm1(lam * s) / math.expm1(c * s)
        lo, hi = 1e-12, 1.0
        while h(hi) >= 0.01:
            hi *= 2.0
            if hi > 1e6:
                break
        if h(lo) < 0.01:
            sigma = lo
        else:
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if h(mid) < 0.01:
                    hi = mid
                else:
                    lo = mid
            sigma = hi
        try:
            candidates.append(2.0 * math.exp(lam * (r + sigma)))
        except OverflowError:
            candidates.append(math.inf)
    if not candidates:
        raise RepresentationError("no U(c,K) formula applies to this kernel")
    U = min(candidates)
    if math.isinf(U):
        raise RepresentationError(f"U(c,K) overflows a float at c={c}")
    return max(1.0, U)


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


def convergence_check(c: float, k: Kernel, m_star: float | None = None) -> dict:
    """Verdict on guaranteed wavefront convergence: one of three sufficient
    conditions, with all inequality values reported.  m_star defaults to
    u_bound(c, k)."""
    ap = alpha_plus(k, c)
    am = alpha_minus(k, c)
    if m_star is None:
        m_star = u_bound(c, k)
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


# tolerance of the band inequalities in the (p, P) grid scan
BAND_SLACK = 1e-9


def band_inequalities(p, P, ap: float, am: float):
    """Left-hand sides of the two oscillation-band inequalities:
    lower: p + a+ P (1-p) + a- P (P-1) >= 1
    upper: P - a+ P (P-1) - a- P (1-p) <= 1
    """
    p = np.asarray(p, dtype=float)
    P = np.asarray(P, dtype=float)
    lower = p + ap * P * (1.0 - p) + am * P * (P - 1.0)
    upper = P - ap * P * (P - 1.0) - am * P * (1.0 - p)
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
    if P_cap < 1 or grid_n < 100:
        raise DomainError("need P_cap >= 1 and grid_n >= 100")
    p_axis = np.linspace(1.0 / grid_n, 1.0, grid_n)
    P_axis = np.linspace(1.0, P_cap, grid_n)
    Pg, pg = np.meshgrid(P_axis, p_axis)
    lower, upper = band_inequalities(pg, Pg, ap, am)
    mask = (lower >= 1.0 - BAND_SLACK) & (upper <= 1.0 + BAND_SLACK)
    anchors = [(1.0, 1.0)]
    if ap + am > 0:
        anchors.append(a_star(ap, am))
    if mask.any():
        p_min = float(pg[mask].min())
        P_max = float(Pg[mask].max())
    else:
        p_min, P_max = math.nan, math.nan
    return {"p_axis": p_axis, "P_axis": P_axis, "mask": mask,
            "p_min": p_min, "P_max": P_max, "anchors": anchors}


def theta_improved(p: float, P: float, c: float, k: Kernel) -> float:
    """Theta(p, P): the kernel average of the piecewise-linear test profile
    capped below at p; Theta <= 1 certifies the improved oscillation band."""
    if not (0 < p <= 1 <= P):
        raise DomainError(f"need 0 < p <= 1 <= P, got ({p}, {P})")
    if c < 2:
        raise DomainError(f"need c >= 2, got {c}")

    def phi_minus(s):
        s = np.asarray(s, dtype=float)
        tilde = np.where(s >= 0,
                         P - P * (1.0 - p) * s / c,
                         P + P * (P - 1.0) * s / c)
        return np.maximum(p, tilde)

    return k.moment(phi_minus)


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

    def half(rate, right):
        def fn(s):
            s = np.asarray(s, dtype=float)
            sel = s >= 0 if right else s < 0
            with np.errstate(over="ignore"):
                return np.where(sel, np.exp(np.minimum(rate * s, 700.0)), 0.0)
        return k.moment(fn)

    s1 = half(rho_m, True) + half(rho_M, False)
    s2 = half(rho_M, True) + half(rho_m, False)
    return {"s1": s1, "s2": s2,
            "holds1": s1 >= math.exp(M) - 1e-12,
            "holds2": s2 <= math.exp(m) + 1e-12}


def classify(c: float, k: Kernel) -> RegimeReport:
    """Full regime report for (c, K): existence, bounds, verdicts, geometry."""
    semi = c >= 2
    ap = alpha_plus(k, c)
    am = alpha_minus(k, c)
    if not semi:
        return RegimeReport(c, ap, am, math.nan, math.nan, math.nan, None,
                            False, False, "not-guaranteed",
                            {"verdict": "not-guaranteed",
                             "reason": "no semi-wavefront for c < 2"},
                            (math.nan, math.nan))
    U = u_bound(c, k)
    beta = U + 1.0
    b = 2.0 * beta + 3.0
    fz, _ = monotone_front_root(c, k)
    detail = convergence_check(c, k, U)
    geo = pP_feasible_set(ap, am)
    with np.errstate(over="ignore"):    # an overflow is rejected below
        second_moment = k.moment(lambda s: np.asarray(s, dtype=float) ** 2)
    alc = {"c": c, "threshold": detail["m_star"] * math.sqrt(second_moment),
           "informational": True}
    inf = [name for name, v in {**detail, "b": b, **alc}.items()
           if isinstance(v, float) and math.isinf(v)]
    if inf:
        raise RepresentationError(
            f"report values {', '.join(inf)} overflow a float at c={c}")
    return RegimeReport(c, ap, am, U, beta, b, fz, True, fz is not None,
                        detail["verdict"], detail,
                        (geo["p_min"], geo["P_max"]), alc)
