"""Root solvers and argument-principle root counters for the characteristic
functions attached to the traveling-wave problem:

  quad:         z^2 - c z + 1            (linearization at the leading edge)
  front_criterion:    z^2 - c z - E_K(-z)      (monotone-front criterion)
  chi1:         eps z^2 + z - exp(-tau z) (limit delay equation at 0;
                reported as eps_advanced when eps > 0)
  toy_steady:   z^2 - c z - exp(-ctau z) (piecewise toy model at 1)
"""
from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel, exp_moment


class DomainError(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class RootReport:
    function_id: str
    region: str
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    count: int
    parameters: dict = field(default_factory=dict)
    boundary: bool = False
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "region": self.region,
            "params": self.parameters,
            "count": self.count,
            "boundary": self.boundary,
            "converged": self.converged,
            "roots": [
                {"re": r.real, "im": r.imag, "residual": res}
                for r, res in zip(self.roots, self.residuals)
            ],
        }


# -- quadratic roots -------------------------------------------------------

def quad_roots(c: float) -> tuple[float, float]:
    """Positive roots (lam, mu) of z^2 - c z + 1 = 0, lam <= mu; needs c >= 2."""
    if c < 2:
        raise DomainError(f"no real decay rates for c={c} < 2 (no semi-wavefront regime)")
    if not math.isfinite(c * c):
        raise DomainError(f"c={c} is too large: c^2 overflows a float")
    disc = math.sqrt(c * c - 4.0)
    return (c - disc) / 2.0, (c + disc) / 2.0


# -- monotone-front criterion ---------------------------------------------------

def _opposite(a: float, b: float) -> bool:
    """a and b have strictly opposite signs (their product may overflow)."""
    return a < 0 < b or b < 0 < a


# scan window [MONOTONE_LAM_MIN, 0) and its number of sign brackets
MONOTONE_LAM_MIN = -40.0
MONOTONE_BRACKETS = 400


def monotone_front_root(c: float, k: Kernel):
    """Largest negative root of z^2 - c z - int K(s) e^{-z s} ds = 0, or None.

    Scans [MONOTONE_LAM_MIN, 0) with MONOTONE_BRACKETS sign brackets and
    bisects.  For a single atom supported on s > 0 a monotone tail
    certificate rules out roots below the scan window.  Returns (root,
    diagnostic dict).
    """
    if c < 2:
        raise DomainError(f"monotone-front criterion needs c >= 2, got {c}")

    def g(lam):
        return lam * lam - c * lam - exp_moment(k, -lam, "both")

    grid = np.linspace(MONOTONE_LAM_MIN, 0.0, MONOTONE_BRACKETS + 1)
    vals = np.array([g(x) for x in grid])
    # g(0^-) = -1; walk up from 0 looking for the sign change closest to 0
    root = None
    for i in range(MONOTONE_BRACKETS - 1, -1, -1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            root = a
            break
        if _opposite(fa, fb):
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = g(m)
                if fm == 0.0 or b - a < 1e-14:
                    break
                if _opposite(fa, fm):
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            root = 0.5 * (a + b)
            break
    diag = {"scan_lo": MONOTONE_LAM_MIN, "scan_hi": 0.0,
            "n_brackets": MONOTONE_BRACKETS}
    if root is not None:
        return root, diag
    # tail certificate for a single right-supported atom: below the window the
    # exponential moment dominates the quadratic, so g stays negative
    if k.density is None and len([a for a in k.atoms if a[1] > 0]) == 1:
        (s0, m0), = [a for a in k.atoms if a[1] > 0]
        if s0 > 0:
            x = -MONOTONE_LAM_MIN
            e = math.inf if x * s0 > 700.0 else math.exp(x * s0)
            grows = s0 * m0 * e > 2 * x + c and s0 * s0 * m0 * e > 2.0
            if grows and g(MONOTONE_LAM_MIN) < 0:
                diag["tail_certificate"] = "single-atom exponential dominance"
    return None, diag


# -- argument-principle machinery -----------------------------------------

# winding number: distance from an integer that counts as settled, points
# per contour edge at first and the number of doublings; roots closer than
# ROOT_DEDUPE_RADIUS are one root
WINDING_TOL = 1e-3
WINDING_N0 = 64
WINDING_REFINE = 12
ROOT_DEDUPE_RADIUS = 1e-6


def _winding_number(f, df, corners):
    """Winding count of f along the closed polygonal contour `corners`.

    Trapezoid evaluation of (1/2pi i) oint f'/f, refined until within
    WINDING_TOL of an integer.  Returns (count, ok_flag, min |f| seen on the
    contour).
    """
    corners = list(corners) + [corners[0]]
    minmod = math.inf
    n = WINDING_N0
    for _ in range(WINDING_REFINE):
        total = 0.0 + 0.0j
        minmod = math.inf
        for a, b in zip(corners[:-1], corners[1:]):
            t = np.linspace(0.0, 1.0, n + 1)
            z = a + (b - a) * t
            fz = f(z)
            minmod = min(minmod, float(np.abs(fz).min()))
            integrand = df(z) / fz * (b - a)
            total += np.trapezoid(integrand, t)
        w = total / (2j * math.pi)
        count = round(w.real)
        if abs(w - count) < WINDING_TOL and abs(w.imag) < WINDING_TOL:
            return int(count), True, minmod
        n *= 2
    return int(round(w.real)), False, minmod


def _newton_complex(f, df, z0, tol=1e-12, maxit=100):
    """Complex Newton from z0; returns (z, converged).  An iterate where f or
    f' is not finite (exp overflow far in the left half-plane) stops the
    iteration as not converged."""
    z = complex(z0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(maxit):
            fz = f(z)
            if not cmath.isfinite(fz):
                return z, False
            if abs(fz) < tol * (1.0 + abs(z) ** 2):
                return z, True
            d = df(z)
            if d == 0 or not cmath.isfinite(d):
                return z, False
            step = fz / d
            z = z - step
            if abs(step) < 1e-16 * (1 + abs(z)):
                return z, abs(f(z)) < 1e-6
        return z, abs(f(z)) < tol * (1.0 + abs(z) ** 2)


def _dedupe(roots):
    kept = []
    for r in roots:
        if all(abs(r - q) > ROOT_DEDUPE_RADIUS for q in kept):
            kept.append(r)
    return kept


def _locate_in_rectangle(f, df, re_lo, re_hi, im_hi, seeds):
    """Newton from `seeds` and a seed lattice, keeping distinct roots inside
    the rectangle."""
    roots = []
    seeds = list(seeds)
    ng = 8
    for x in np.linspace(re_lo, re_hi, ng):
        for y in np.linspace(0.0, im_hi, ng):
            seeds.append(complex(x, y))
    for z0 in seeds:
        z, ok = _newton_complex(f, df, z0)
        if not ok:
            continue
        if not (re_lo - 1e-9 <= z.real <= re_hi + 1e-9 and abs(z.imag) <= im_hi + 1e-9):
            continue
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        roots.append(z)
        if z.imag != 0.0:
            roots.append(z.conjugate())
    roots = _dedupe(roots)
    roots.sort(key=lambda z: (-z.real, z.imag))
    return roots


def chi1_roots(tau: float, eps: float = 0.0) -> RootReport:
    """All roots of eps z^2 + z - exp(-tau z) with Re z >= 0 (eps = 0 is
    chi1(z) = z - exp(-z tau)).

    A root with Re z >= 0 has |z| |eps z + 1| = |exp(-tau z)| <= 1 and
    Re(eps z + 1) >= 1, so |z| <= 1 for every eps >= 0: a fixed rectangle
    plus the argument principle gives a certified census.  If the contour
    passes too close to a root (at eps = 0, tau at 3pi/2 + 2pi n, where a
    pair sits on the imaginary axis), the left edge is shifted slightly into
    the left half-plane and the report is flagged as boundary.
    """
    if tau <= 0 or eps < 0:
        raise DomainError(f"chi1_roots needs tau > 0 and eps >= 0, "
                          f"got tau={tau}, eps={eps}")
    im_hi = max(2.0, 2 * math.pi / tau)
    # eps z^2 on the contour (height 2 pi/tau for small tau) must be a float
    if not math.isfinite((1.0 + eps) * im_hi * im_hi):
        raise DomainError(f"census contour out of float range at tau={tau}, "
                          f"eps={eps}")

    f = lambda z: eps * z * z + z - np.exp(-z * tau)
    df = lambda z: 2 * eps * z + 1.0 + tau * np.exp(-z * tau)

    for shift in (0.0, -1e-3):
        corners = [complex(shift, -im_hi), complex(2.0, -im_hi),
                   complex(2.0, im_hi), complex(shift, im_hi)]
        count, ok, minmod = _winding_number(f, df, corners)
        if ok and minmod > 1e-4:
            break

    seeds = [complex(0.6, 0.0), complex(0.2, 1.0), complex(0.1, 1.0),
             complex(0.4, 0.9)]
    roots = _locate_in_rectangle(f, df, shift, 2.0, im_hi, seeds)
    roots = [z for z in roots if z.real >= shift - 1e-12]
    return RootReport(
        function_id="eps_advanced" if eps > 0 else "chi1",
        region=f"rect [{shift:.1e}, 2] x [-{im_hi:.3f}, {im_hi:.3f}]",
        roots=tuple(roots),
        residuals=tuple(abs(f(z)) for z in roots),
        count=count,
        parameters={"tau": tau, "eps": eps} if eps > 0 else {"tau": tau},
        boundary=shift != 0.0,
        converged=ok and count == len(roots),
    )


def toy_steady_roots(c: float, ctau: float, near: complex) -> complex:
    """One root of z^2 - c z - exp(-ctau z) = 0 by complex Newton from `near`."""
    if c <= 0 or ctau <= 0:
        raise DomainError("toy_steady_roots needs c > 0 and ctau > 0")
    f = lambda z: z * z - c * z - np.exp(-ctau * z)
    df = lambda z: 2 * z - c + ctau * np.exp(-ctau * z)
    z, ok = _newton_complex(f, df, near, tol=1e-10)
    if not ok:
        raise NoConvergence(f"Newton did not converge from seed {near}; last iterate {z}")
    if abs(z.imag) < 1e-10:
        z = complex(z.real, 0.0)
    return z
