"""Traveling-wave numerics for the nonlocal KPP-Fisher equation
u_t = u_xx + u (1 - K * u).

Subpackages group by task: `kernels` (interaction measures), `spectral`
(characteristic roots and censuses), `regimes` (bounds and admissible-set
geometry), `profiles` (wave-profile construction by monotone iteration),
`dde` (the associated Wright-type delay equation: periodic orbits, Floquet
analysis, connecting orbits), `pdesim` (direct PDE simulation for
cross-validation), and `cli` (command-line entry point).

The package fails in one of two ways, each with one type: `DomainError`
(the input lies outside what a construction covers; the CLI exits 1) and
`NoConvergence` (a method did not converge on a valid input; the CLI exits
2).
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """The input lies outside what a construction covers: c < 2, tau <=
    3 pi/2, a kernel with no admissible U(c, K), a size or step limit."""


class NoConvergence(RuntimeError):
    """A method did not converge on a valid input."""


class InvariantViolation(NoConvergence):
    """An iterate left the upper/lower solution order interval; the front's
    start catches it to halve its step."""
