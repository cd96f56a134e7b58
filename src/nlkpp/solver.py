"""The solver core: the six BLAS/LAPACK routines the package calls, its
one Newton loop, `newton` (fronts, delay-equation orbits and zero-to-one
connections), and the front's Krylov solver, `gmres`, whose inner products
are numpy's pairwise sums, so a front does not depend on the BLAS thread
count.

`dtbsv`, `dgbmv`, `dgttrf`, `dgttrs`, `dpttrf` and `dpttrs` are scipy's
f2py wrappers, loaded from its extension files `scipy/linalg/_fblas*.so`
and `_flapack*.so` under scipy's own module names, so `scipy.linalg`'s
package init (which imports numpy.f2py, numpy.testing, numpy.ma and
numpy.random) never runs.  A module already in sys.modules is taken from
there, and one loaded here is registered there, so a later
`import scipy.linalg` reuses it.  With no such file the routines come from
`scipy.linalg.blas` and `scipy.linalg.lapack`.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy

from . import NoConvergence


def _extension(name: str):
    """The module scipy.linalg.<name>: from sys.modules, else loaded from
    its file and registered there; None if no such file exists."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy.__path__[0], "linalg", name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full] = module
            spec.loader.exec_module(module)
            return module
    return None


_fblas, _flapack = _extension("_fblas"), _extension("_flapack")
if _fblas is None or _flapack is None:
    from scipy.linalg import blas, lapack
    _fblas, _flapack = blas._fblas, lapack._flapack
dtbsv, dgbmv = _fblas.dtbsv, _fblas.dgbmv
dgttrf, dgttrs, dpttrf, dpttrs = (_flapack.dgttrf, _flapack.dgttrs,
                                  _flapack.dpttrf, _flapack.dpttrs)


# Newton on fronts, delay-equation orbits and zero-to-one connections: the
# step cap and the stall floor in units of tol.  The orbit Newton takes
# up to 38 steps to orbits the slow-oscillation gate then names (tau 9.82,
# of the 300 delays in [4.75, 30])
NEWTON_MAX_STEPS = 40
STALL_FACTOR = 100.0


def newton(system, x, tol: float):
    """Newton on a map x -> (r, linearize) to max|r| <= tol, linearizing
    afresh at every step: linearize() returns solve, solve(r) = J^-1 r.
    Returns x and counts {residual, newton_steps}.  A step may raise max|r|
    on its way in (the front of delta(s - 5) at c 2.05, dt 0.01: 3.0e-3 ->
    4.2e-3 -> converged).  NoConvergence names the exit: diverged (a
    non-finite residual, a linearize or solve that raises LinAlgError or
    RuntimeError, or a last max|r| above the first), stalled (a step that
    does not lower a max|r| already below STALL_FACTOR tol, the rounding
    floor) or NEWTON_MAX_STEPS steps."""
    res, stalled = math.inf, False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for steps in range(NEWTON_MAX_STEPS + 1):
            r, linearize = system(x)
            last, res = res, float(np.max(np.abs(r)))
            first = res if steps == 0 else first
            if not math.isfinite(res):
                raise NoConvergence("Newton diverged: residual not finite")
            if res <= tol:
                return x, {"residual": res, "newton_steps": steps}
            stalled = res >= last and last < STALL_FACTOR * tol
            if stalled or steps == NEWTON_MAX_STEPS:
                break
            try:
                x = x - linearize()(r)
            except (np.linalg.LinAlgError, RuntimeError) as e:
                raise NoConvergence(f"Newton diverged: {e}") from e
    if res > first:
        raise NoConvergence(f"Newton diverged: max|r| rose from {first:.3g} "
                            f"to {res:.3g} in {steps} steps")
    if stalled:
        raise NoConvergence(f"Newton stalled at residual {last:.3g} (next "
                            f"step: {res:.3g})")
    raise NoConvergence(f"Newton hit {steps} steps at max|r| = {res:.3g}")


def _norm(w) -> float:
    return math.sqrt(np.add.reduce(w * w))


def gmres(matvec, psolve, b, rtol: float, restart: int, max_cycles: int,
          trace: list):
    """Restarted GMRES on A x = b with left preconditioner M, from x = 0,
    to |b - A x| <= rtol |b| in at most max_cycles cycles of restart inner
    iterations: scipy 1.17's `gmres` step for step (modified Gram-Schmidt,
    Givens rotations, the gh-8400 control of the inner tolerance on the
    preconditioned residual, breakdown at h1 <= eps h0), with each inner
    iteration's preconditioned residual norm over |b| appended to trace, as
    scipy's callback_type="pr_norm" reports it.  Every inner product is
    numpy's pairwise sum, never a BLAS dot, the rotations come from
    math.hypot, and x gains one basis vector at a time, so the result does
    not depend on the BLAS thread count.  matvec(u) = A u and
    psolve(y) = M y return new arrays.  Returns x and whether it
    converged."""
    n = b.size
    x = np.zeros(n)
    bnrm2 = _norm(b)
    if bnrm2 == 0.0:
        return x, True
    atol, eps = rtol * bnrm2, np.finfo(float).eps
    restart = min(restart, n)
    z = psolve(b)  # sets the inner tolerance and starts the first cycle
    ptol_max_factor = 1.0
    ptol = _norm(z) * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    for cycle in range(max_cycles):
        if cycle:
            z = psolve(r)
        S = np.zeros(restart + 1)
        S[0] = _norm(z)
        v[0] = z
        v[0] *= 1.0 / S[0]
        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = _norm(w)
            for k in range(col + 1):  # modified Gram-Schmidt
                h[col, k] = tmp = np.add.reduce(v[k] * w)
                w -= tmp * v[k]
            h[col, col + 1] = h1 = _norm(w)
            v[col + 1] = w
            if h1 <= eps * h0:  # an invariant Krylov space: x is exact
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1.0 / h1
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            f, g = h[col, col], h[col, col + 1]
            if g == 0.0:
                c, s, mag = 1.0, 0.0, f
            else:  # LAPACK dlartg's convention: c >= 0, mag has f's sign
                mag = math.copysign(math.hypot(f, g), f)
                c, s = f / mag, g / mag
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0.0
            S[col], S[col + 1] = c * S[col], -s * S[col]
            presid = abs(S[col + 1])
            trace.append(presid / bnrm2)
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangular h, pseudo-solving a zero pivot
        if h[col, col] == 0.0:
            S[col] = 0.0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0.0:
            y[0] /= h[0, 0]
        for k in range(col + 1):
            x += y[k] * v[k]
        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the inner test passed but the outer did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, rnorm <= atol
