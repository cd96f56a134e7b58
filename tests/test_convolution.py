"""The grid operator K * phi against a per-node interpolation oracle, on
asymmetric kernels in both orientations and with every tail kind."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.fft import next_fast_len

from nlkpp import DomainError
from nlkpp import kernels as ker
from nlkpp import pdesim


def oracle(k, h, vals, left, right, left_rate, sign):
    """sum over atoms and density nodes of m * phi(t_i + sign * s), phi the
    piecewise-linear interpolant of the grid values extended node by node by
    their tails; sign = -1 is the profile orientation phi(t - s), sign = +1
    the PDE orientation u(x + s)."""
    n = vals.size
    pairs = [(s, m) for s, m in k.atoms if m > 0]
    if k.density is not None:
        w = k.density.weights * k.density.values
        pairs += list(zip(k.density.grid, w))
    pad = int(np.ceil(max(abs(s) for s, _ in pairs) / h)) + 2
    idx = np.arange(-pad, n + pad)
    ext = np.empty(idx.size)
    below, above = idx < 0, idx >= n
    if left_rate is None:
        ext[below] = left
    else:
        ext[below] = left + (vals[0] - left) * np.exp(left_rate * h * idx[below])
    ext[(~below) & (~above)] = vals
    ext[above] = right
    out = np.zeros(n)
    i = np.arange(n)
    for s, m in pairs:
        out += m * np.interp(i + sign * s / h, idx, ext)
    return out


def _gaussian(center, sigma, n):
    g = np.linspace(center - 4 * sigma, center + 4 * sigma, n)
    return ker.Density(g, np.exp(-0.5 * ((g - center) / sigma) ** 2))


def asymmetric_kernel(kind, a, h):
    """One of four asymmetric kernels; `a` in [0.2, 1.8] sets the distance
    scale, and atoms sit at fractional grid offsets."""
    s = (a + 0.37) * h * 5.0
    if kind == "advanced atom":
        k = ker.dirac(-s)
    elif kind == "delayed atom":
        k = ker.dirac(s)
    elif kind == "off-centre density":
        g = np.linspace(0.3 * a, 0.3 * a + 1.4, 29)
        k = ker.Kernel(density=ker.Density(g, np.ones_like(g)))
    else:  # "atom + gaussian"
        k = ker.Kernel(atoms=((s, 0.3),), density=_gaussian(-0.2 * a, 0.5, 41))
    return ker.normalize(k)


KINDS = ("advanced atom", "delayed atom", "off-centre density",
         "atom + gaussian")
# exponential left tails (decaying to 0, or relaxing to a nonzero limit),
# constant tails, and the PDE's edge extension by the boundary values
TAILS = ("exp-left", "exp-left to limit", "constant", "edge")


def _tails(tail, vals, rate):
    """(left, right, left_rate) for a tail kind."""
    if tail == "exp-left":
        return 0.0, 0.7, rate
    if tail == "exp-left to limit":
        return 0.4, 0.7, rate
    if tail == "constant":
        return 0.25, 1.3, None
    return vals[0], vals[-1], None


@given(kind=st.sampled_from(KINDS), tail=st.sampled_from(TAILS),
       a=st.floats(0.2, 1.8), h=st.floats(0.03, 0.3),
       n=st.integers(8, 300), rate=st.floats(0.1, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_operator_matches_oracle_both_orientations(kind, tail, a, h, n, rate,
                                                   seed):
    k = asymmetric_kernel(kind, a, h)
    vals = np.random.default_rng(seed).uniform(0.0, 2.0, n)
    left, right, left_rate = _tails(tail, vals, rate)
    st_phi = ker.stencil(k, h)
    assert np.all(st_phi.weights >= 0)
    assert st_phi.weights.sum() == pytest.approx(1.0, rel=1e-12)
    got = ker.convolve(st_phi, vals, left, right, left_rate=left_rate)
    ref = oracle(k, h, vals, left, right, left_rate, sign=-1)
    assert np.max(np.abs(got - ref)) < 1e-12
    got = ker.convolve(st_phi.reversed(), vals, left, right,
                       left_rate=left_rate)
    ref = oracle(k, h, vals, left, right, left_rate, sign=+1)
    assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_pde_adapter_matches_edge_extension_oracle(kind):
    kernel = asymmetric_kernel(kind, 1.1, 0.2)
    state = pdesim.initial_state(kernel, X=40.0, dx=0.2)
    u = state.u
    got = pdesim.convolve_grid(state, u)
    ref = oracle(kernel, state.dx, u, u[0], u[-1], None, sign=+1)
    assert np.max(np.abs(got - ref)) < 1e-12
    # the state's stencil is the grid operator's, in the u(x + s) orientation
    st_u = ker.stencil(kernel, state.dx).reversed()
    assert np.array_equal(got, ker.convolve(st_u, u, u[0], u[-1]))


@pytest.mark.parametrize("sign", [-1, +1])
def test_fft_path_matches_oracle(sign):
    # a long stencil on a long grid is applied by FFT convolution
    h, n = 0.005, 6000
    k = asymmetric_kernel("atom + gaussian", 1.0, h)
    st_phi = ker.stencil(k, h)
    st_k = st_phi if sign < 0 else st_phi.reversed()
    assert st_k.weights.size > 128
    t = h * np.arange(n) - 10.0
    vals = 1.0 / (1.0 + np.exp(-t))
    got = ker.convolve(st_k, vals, 0.0, vals[-1], left_rate=1.0)
    ref = oracle(k, h, vals, 0.0, vals[-1], 1.0, sign)
    assert np.max(np.abs(got - ref)) < 1e-12


def _direct(st_k, vals, left, right):
    """sum_k weights[k - lo] phi_{i-k} by np.convolve of the weights with
    the values padded by their constant tails."""
    pad = max(abs(st_k.lo), abs(st_k.hi)) + 1
    ext = np.concatenate((np.full(pad, left), vals, np.full(pad, right)))
    full = np.convolve(ext, st_k.weights, "full")
    return full[pad - st_k.lo:][:vals.size]


def test_fft_path_caches_one_spectrum_per_length():
    # one stencil applied to two grid lengths, in both orientations; each
    # length gets its own cached spectrum and a reversed stencil its own
    h = 0.005
    k = asymmetric_kernel("atom + gaussian", 1.0, h)
    st_phi = ker.stencil(k, h)
    rng = np.random.default_rng(5)
    for st_k, sign in ((st_phi, -1), (st_phi.reversed(), +1)):
        assert st_k._spectra == {}
        for n in (3000, 4321, 3000):
            assert st_k.weights.size > 128
            vals = rng.uniform(0.0, 2.0, n)
            got = ker.convolve(st_k, vals, 0.25, 1.3)
            ref = oracle(k, h, vals, 0.25, 1.3, None, sign)
            assert np.max(np.abs(got - ref)) < 1e-12
            assert np.max(np.abs(got - _direct(st_k, vals, 0.25, 1.3))) < 1e-12
        assert len(st_k._spectra) == 2
    assert st_phi.reversed()._spectra is not st_phi._spectra


def test_smooth_len_is_scipys_real_fft_length():
    ns = range(1, 200_001)
    assert [ker.smooth_len(n) for n in ns] == [
        next_fast_len(n, real=True) for n in ns]


def test_fft_length_is_searched_once_per_window_length(monkeypatch):
    # repeated convolutions on one grid, as in Picard sweeps or PDE steps,
    # search for the transform length once; a second grid once more
    search, calls = ker.smooth_len, []
    monkeypatch.setattr(ker, "smooth_len",
                        lambda n: calls.append(n) or search(n))
    h = 0.005
    st_k = ker.stencil(asymmetric_kernel("atom + gaussian", 1.0, h), h)
    assert st_k.weights.size > 128
    rng = np.random.default_rng(11)
    for n, searches in ((3000, 1), (4321, 2), (3000, 2)):
        for _ in range(3):
            vals = rng.uniform(0.0, 2.0, n)
            got = ker.convolve(st_k, vals, 0.25, 1.3)
            assert np.max(np.abs(got - _direct(st_k, vals, 0.25, 1.3))) < 1e-12
        assert len(calls) == searches
    assert len(st_k._lengths) == 2


def test_mid_length_stencil_on_short_grid_takes_fft_path(monkeypatch):
    # 257 taps on 3,000 points: fewer than 1e6 taps x points, but the FFT
    # is faster than direct convolution from ~256 taps on any grid
    fft, calls = ker._fft_convolve, []
    monkeypatch.setattr(ker, "_fft_convolve",
                        lambda *a: calls.append(1) or fft(*a))
    rng = np.random.default_rng(7)
    w = rng.uniform(0.0, 1.0, 257)
    st_k = ker.Stencil(0.01, -100, w / w.sum())
    vals = rng.uniform(0.0, 2.0, 3000)
    got = ker.convolve(st_k, vals, 0.25, 1.3)
    assert calls == [1]
    assert np.max(np.abs(got - _direct(st_k, vals, 0.25, 1.3))) < 1e-12


def test_orientations_read_opposite_sides():
    # a delayed atom reads behind in phi(t - s) and ahead in u(x + s)
    h = 0.1
    vals = np.arange(40.0)
    st_phi = ker.stencil(ker.dirac(0.5), h)
    conv = ker.convolve(st_phi, vals, left=-1.0)
    assert np.array_equal(conv[5:], vals[:-5])
    assert np.all(conv[:5] == -1.0)
    conv = ker.convolve(st_phi.reversed(), vals, right=99.0)
    assert np.array_equal(conv[:-5], vals[5:])
    assert np.all(conv[-5:] == 99.0)


def test_stencil_lumps_fractional_atom_linearly():
    st_phi = ker.stencil(ker.dirac(0.25), 0.1)
    assert st_phi.lo == 2 and st_phi.hi == 3
    assert st_phi.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    rev = st_phi.reversed()
    assert rev.lo == -3 and rev.weights == pytest.approx([0.5, 0.5])


def test_stencil_rejects_zero_mass():
    with pytest.raises(DomainError, match="kernel has zero mass"):
        ker.stencil(ker.Kernel(atoms=((1.0, 0.0),)), 0.1)


def test_stencil_rejects_mass_lumped_to_zero():
    # half of the smallest subnormal rounds to zero on both nodes
    with pytest.raises(DomainError, match="lumps to zero weights"):
        ker.stencil(ker.Kernel(atoms=((1.0, 5e-324),)), 2.0)


# subnormal masses round to zero when split (see the test below)
_mass = st.one_of(st.floats(0, 5, allow_subnormal=False), st.just(0.0))


@st.composite
def _random_kernel(draw):
    """Up to four atoms and an optional uniformly gridded density, at any
    offsets within +-40, with some zero masses and zero density values."""
    atoms = draw(st.lists(st.tuples(st.floats(-40, 40), _mass), max_size=4))
    dens = None
    if draw(st.booleans()):
        lo = draw(st.floats(-40, 40))
        n = draw(st.integers(2, 60))
        grid = np.linspace(lo, lo + draw(st.floats(0.01, 20)), n)
        dens = ker.Density(grid, draw(st.lists(_mass, min_size=n, max_size=n)))
    k = ker.Kernel(atoms, dens)
    assume(k.total_mass > 0)
    return k


@given(k=_random_kernel(), h=st.floats(0.005, 2.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_stencil_keeps_mass_and_first_moment(k, h):
    # linear lumping splits each mass between its two neighbouring nodes in
    # proportion to the distance, so the total mass and the first moment
    # h * sum(j w_j) = int s dK hold up to rounding, plus the move of an
    # offset within 1e-9 steps of a node onto it
    st_phi = ker.stencil(k, h)
    w = st_phi.weights
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(k.total_mass, rel=1e-12)
    first = h * float(np.arange(st_phi.lo, st_phi.hi + 1) @ w)
    scale = k.moment(np.abs) + h * k.total_mass
    snap = 1e-9 * h * k.total_mass
    assert abs(first - k.moment(lambda s: s)) <= 1e-12 * scale + snap
