"""Interaction kernels: finite atoms plus a finitely supported gridded density.

A kernel is a normalized nonnegative measure K on the real line.  Atoms
realize Dirac kernels (pure delay/advance interactions); the density part
covers integrable kernels truncated to a finite window.  K on s > 0
(delayed atoms) is the paper's left interaction and K on s < 0 (advanced
atoms) its right one.  `Kernel.moment` is the one quadrature against K: the
whole line is the sum over the discrete measure (`nodes`, `masses`); a
half-line takes the atoms strictly inside it and the density's trapezoid
cells, with the cell straddling 0 split there.  K * phi is one grid operator,
`convolve` with a `stencil` built once per grid, in the orientations
phi(t - s) (the stencil) and u(x + s) (`Stencil.reversed`).  Long
stencils are applied by a numpy FFT product, padded to the next 2·3·5-smooth
length (`smooth_len`, the length `scipy.fft.next_fast_len` gives a real
transform).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import DomainError


@dataclass(frozen=True)
class Density:
    """Uniformly gridded nonnegative density with trapezoid weights."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or g.size != v.size:
            raise DomainError("density grid/values must be 1-d and of equal length >= 2")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise DomainError("density grid and values must be finite")
        dg = np.diff(g)
        if np.any(dg <= 0) or not np.allclose(dg, dg[0], rtol=1e-9, atol=0.0):
            raise DomainError("density grid must be strictly increasing and uniform")
        if np.any(v < 0):
            raise DomainError("density values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.grid.size, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w

    def mass(self) -> float:
        with np.errstate(over="ignore"):    # Kernel rejects an infinite mass
            return float(self.weights @ self.values)


@dataclass(frozen=True)
class Kernel:
    """Normalized interaction kernel: atoms (location, mass) + optional density.

    As a discrete measure K is `nodes` with `masses`: the atoms of positive
    mass, then the density nodes of positive trapezoid weight times value.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: Density | None = None
    total_mass: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    masses: np.ndarray = field(init=False, repr=False, compare=False)
    _atom_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple((float(s), float(m)) for s, m in self.atoms)
        for s, m in atoms:
            if not (math.isfinite(s) and math.isfinite(m)):
                raise DomainError(f"atom (s={s}, mass={m}) is not finite")
            if m < 0:
                raise DomainError(f"atom at s={s} has negative mass {m}")
        object.__setattr__(self, "atoms", atoms)
        mass = sum(m for _, m in atoms)
        if self.density is not None:
            mass += self.density.mass()
        if not math.isfinite(mass):
            raise DomainError(f"kernel mass {mass} overflows a float")
        object.__setattr__(self, "total_mass", float(mass))
        nodes = np.array([s for s, _ in atoms], dtype=float)
        masses = np.array([m for _, m in atoms], dtype=float)
        if self.density is not None:
            nodes = np.append(nodes, self.density.grid)
            masses = np.append(masses, self.density.weights
                               * self.density.values)
        object.__setattr__(self, "nodes", nodes[masses > 0])
        object.__setattr__(self, "masses", masses[masses > 0])
        object.__setattr__(self, "_atom_count",
                           sum(m > 0 for _, m in atoms))

    # -- geometry ---------------------------------------------------------

    def support(self) -> tuple[float, float]:
        """Smallest interval containing every node of positive mass."""
        if self.nodes.size == 0:
            raise DomainError("kernel has empty support")
        return float(self.nodes.min()), float(self.nodes.max())

    # -- moments ----------------------------------------------------------

    def moment(self, fn, side: str = "both") -> float:
        """Integral of fn(s) dK(s) over all of R ("both"), the left half-line
        s < 0 ("left") or the right half-line s > 0 ("right").

        fn takes and returns arrays.  "both" is masses @ fn(nodes).  On a
        half-line, atoms at exactly 0 count for neither half; the density is
        integrated cell by cell, and the one cell straddling 0 is split
        there at the linear interpolant of v fn, or of v times fn(0) past an
        end where v fn overflowed.  So left + right + (atom at 0) fn(0)
        equals "both" up to rounding.
        """
        if side == "both":
            return float(self.masses @ fn(self.nodes))
        if side not in ("left", "right"):
            raise DomainError(f"side must be left/right/both, got {side!r}")
        s, m = self.nodes[:self._atom_count], self.masses[:self._atom_count]
        half = s < 0 if side == "left" else s > 0
        total = float(m[half] @ fn(s[half]))
        if self.density is None:
            return total
        g, v = self.density.grid, self.density.values
        # zero values stay zero where fn overflows (0 * inf)
        pos = v > 0
        fv = np.zeros_like(v)
        fv[pos] = v[pos] * fn(g[pos])
        a, b, fa, fb = g[:-1], g[1:], fv[:-1], fv[1:]
        cell = 0.5 * (fa + fb) * (b - a)
        total += float(np.sum(cell[b <= 0 if side == "left" else a >= 0]))
        for j in np.nonzero((a < 0) & (b > 0))[0]:    # at most one cell
            ya, yb, scale = fa[j], fb[j], 1.0
            if max(ya, yb) == math.inf:
                ya, yb, scale = v[j], v[j + 1], fn(np.zeros(1))[0]
            f0 = (ya + (yb - ya) * -a[j] / (b[j] - a[j])) * scale
            total += (0.5 * (fa[j] + f0) * -a[j] if side == "left"
                      else 0.5 * (f0 + fb[j]) * b[j])
        return float(total)


def normalize(k: Kernel) -> Kernel:
    """Rescale masses so the kernel integrates to one."""
    if k.total_mass <= 0:
        raise DomainError("cannot normalize a zero-mass kernel")
    c = 1.0 / k.total_mass
    if math.isinf(c):
        raise DomainError(f"kernel mass {k.total_mass} is too small to "
                          "normalize: its inverse overflows a float")
    atoms = tuple((s, m * c) for s, m in k.atoms)
    dens = None
    if k.density is not None:
        dens = Density(k.density.grid, k.density.values * c)
    return Kernel(atoms, dens)


def _check_speed(c: float):
    if c <= 0:
        raise DomainError(f"wave speed must be positive, got c={c}")


def alpha_plus(k: Kernel, c: float) -> float:
    """Speed-normalized first absolute moment of the kernel over s < 0."""
    _check_speed(c)
    return k.moment(np.negative, "left") / c


def alpha_minus(k: Kernel, c: float) -> float:
    """Speed-normalized first moment of the kernel over s > 0."""
    _check_speed(c)
    return k.moment(np.positive, "right") / c


def _exp_clip(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(x > 700.0, np.inf, np.exp(np.minimum(x, 700.0)))


def exp_moment(k: Kernel, rate: float, side: str = "both") -> float:
    """Integral of exp(rate*s) dK(s) over a half-line or all of R, by
    `Kernel.moment`; overflow is reported as +inf."""
    return k.moment(lambda s: _exp_clip(rate * s), side)


def smooth_len(n: int) -> int:
    """Smallest 2·3·5-smooth integer >= n >= 1: for each 3^b 5^c below the
    best length so far, its smallest power-of-two multiple >= n."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        m = odd
        while m < best:
            # m 2^k >= n from k = bit length of (n - 1) // m
            k = m << ((n - 1) // m).bit_length()
            if k < best:
                best = k
            m *= 3
        odd *= 5
    return best


@dataclass(frozen=True)
class Stencil:
    """K lumped onto the offsets lo..hi of a grid of step h: `convolve`
    computes (K * phi)_i = sum_k weights[k - lo] phi_{i-k}.  The FFT path
    caches here the transform length of each window length and the
    weights' spectrum of each transform length."""

    h: float
    lo: int
    weights: np.ndarray
    _lengths: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def hi(self) -> int:
        return self.lo + self.weights.size - 1

    def reversed(self) -> Stencil:
        """The mirrored kernel K(-s), i.e. the u(x + s) orientation."""
        return Stencil(self.h, -self.hi, self.weights[::-1].copy())


def stencil(k: Kernel, h: float) -> Stencil:
    """Lump K onto a grid of step h in the phi(t - s) orientation: mass at
    s/h = j + f goes to offsets j and j + 1 with weights 1 - f and f (linear
    interpolation of phi), so the stencil is nonnegative.  Offsets within
    1e-9 of an integer are snapped to it."""
    pos, masses = k.nodes / h, k.masses
    if pos.size == 0:
        raise DomainError("kernel has zero mass")
    near = np.rint(pos)
    pos = np.where(np.abs(pos - near) < 1e-9, near, pos)
    j = np.floor(pos)
    idx = (j - j.min()).astype(int)
    w = np.zeros(idx.max() + 2)
    np.add.at(w, idx, masses * (1.0 - (pos - j)))
    np.add.at(w, idx + 1, masses * (pos - j))
    (nz,) = np.nonzero(w)
    if nz.size == 0:    # subnormal masses may lump to zero weights
        raise DomainError("kernel mass lumps to zero weights")
    return Stencil(float(h), int(j.min()) + int(nz[0]), w[nz[0]:nz[-1] + 1])


def _fft_convolve(st: Stencil, window: np.ndarray) -> np.ndarray:
    """The 'valid' part of window (*) st.weights by one rfft/irfft pair."""
    taps = st.weights.size
    nfft = st._lengths.get(window.size)
    if nfft is None:
        nfft = st._lengths[window.size] = smooth_len(window.size + taps - 1)
    spec = st._spectra.get(nfft)
    if spec is None:
        spec = st._spectra[nfft] = np.fft.rfft(st.weights, nfft)
    full = np.fft.irfft(np.fft.rfft(window, nfft) * spec, nfft)
    return full[taps - 1:window.size]


def convolve(st: Stencil, vals, left: float = 0.0, right: float = None,
             left_rate: float = None) -> np.ndarray:
    """(K * phi) on the grid of `vals`, for the stencil `st` of K.

    Beyond the grid phi has explicit tails: on the left
    left + (vals[0] - left) e^{left_rate (t - t0)}, or the constant `left`
    without a rate; on the right the constant `right` (default vals[-1]).
    """
    vals = np.asarray(vals, dtype=float)
    n_left, n_right = max(st.hi, 0), max(-st.lo, 0)
    if left_rate is None:
        left_tail = np.full(n_left, float(left))
    else:
        p = np.arange(-n_left, 0)
        left_tail = left + (vals[0] - left) * np.exp(left_rate * st.h * p)
    right_tail = np.full(n_right, vals[-1] if right is None else float(right))
    window = np.concatenate((left_tail, vals, right_tail))
    # measured against the cached-spectrum FFT, direct convolution is as
    # fast or faster up to ~128 taps on grids of 1e3-4e4 points, and the FFT
    # is faster from ~256 taps, short grids included: 31 against 49 us at
    # 257 taps on 3,000 points (2-core x86-64 VM, numpy 2.4)
    out = (np.convolve(window, st.weights, "valid") if st.weights.size <= 128
           else _fft_convolve(st, window))
    return out[n_left - st.hi:][:vals.size]


# -- constructors ----------------------------------------------------------

def dirac(s: float, mass: float = 1.0) -> Kernel:
    """Single-atom kernel K = mass * delta(. - s)."""
    return Kernel(atoms=((s, mass),))


# most density nodes a config may ask for: the tests and workloads use at
# most a few thousand, and 10^6 nodes take 8 MB per array
MAX_DENSITY_NODES = 10 ** 6


def finite_number(value, name: str) -> float:
    """`value` as a float if it is a finite real number and not a bool (an
    int is converted); anything else, a numeric string included, is a
    DomainError.  The one rule for numbers read from a JSON config."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = float(value) if abs(value) < 1e308 else math.inf
    if not (isinstance(value, float) and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} config must be a JSON object, "
                          f"got {type(value).__name__}")
    return value


def from_config(cfg: dict) -> tuple[Kernel, float]:
    """Build a kernel from its JSON dict; returns (normalized kernel, raw mass).

    Schema: {"atoms": [{"s": ..., "mass": ...}],
             "density": {"lo", "hi", "n", "kind": "gaussian"|"uniform"|"table",
                         "params": {...}, "values": [...]}}
    """
    atoms = tuple((finite_number(a["s"], "atom s"),
                   finite_number(a["mass"], "atom mass"))
                  for a in _object(cfg, "kernel").get("atoms", []))
    dens = None
    d = cfg.get("density")
    if d is not None:
        n = _object(d, "density").get("n", 401)
        if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                or not 2 <= n <= MAX_DENSITY_NODES):
            raise DomainError(f"density n must be an integer in "
                              f"[2, {MAX_DENSITY_NODES}], got {n!r}")
        lo = finite_number(d["lo"], "density lo")
        hi = finite_number(d["hi"], "density hi")
        if not lo < hi:
            raise DomainError(f"density window [{lo}, {hi}] is empty")
        grid = np.linspace(lo, hi, n)
        kind = d.get("kind", "table")
        if kind == "uniform":
            vals = np.full(n, 1.0 / (hi - lo))
        elif kind == "gaussian":
            params = _object(d.get("params", {}), "density params")
            sigma = finite_number(params.get("sigma", 1.0), "gaussian sigma")
            if not sigma > 0:
                raise DomainError(f"gaussian sigma must be > 0, got {sigma}")
            # for a tiny sigma, (grid / sigma)**2 may overflow, giving
            # exp(-inf) = 0, and a peak that overflows is rejected by Density
            with np.errstate(over="ignore"):
                vals = (np.exp(-0.5 * (grid / sigma) ** 2)
                        / (sigma * math.sqrt(2 * math.pi)))
        elif kind == "table":
            vals = np.array([finite_number(x, "table value")
                             for x in d["values"]])
            if vals.size != n:
                raise DomainError("table density needs exactly n values")
        else:
            raise DomainError(f"unknown density kind {kind!r}")
        dens = Density(grid, vals)
    raw = Kernel(atoms, dens)
    return normalize(raw), raw.total_mass
