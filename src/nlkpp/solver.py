"""The solver core: the six BLAS/LAPACK routines the package calls, and its
one Newton loop, `newton` (fronts, delay-equation orbits and zero-to-one
connections).

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
