"""The cubic spline through a profile's grid values, for the tests that
compare profiles at points of their own.  No solver evaluates a profile:
its tails are declared for the grid operators, which realize them."""
import numpy as np
from scipy.interpolate import CubicSpline

from nlkpp import DomainError


def spline(prof, t):
    """The cubic spline through prof's grid values at t, a float for a
    scalar t; a t outside the grid raises DomainError."""
    t = np.asarray(t, dtype=float)
    grid = prof.grid
    if not np.all((t >= grid[0]) & (t <= grid[-1])):
        raise DomainError(f"profile evaluated outside its grid "
                          f"[{grid[0]:g}, {grid[-1]:g}]")
    out = CubicSpline(grid, prof.values)(t)
    return float(out) if t.ndim == 0 else out
