import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from nlkpp import DomainError
from nlkpp import kernels as ker


def _density(kind, lo, hi, n):
    """A normalized density kernel (a gaussian has sigma 1), built from its
    config, the one way the package builds gridded densities."""
    cfg = {"lo": lo, "hi": hi, "n": n, "kind": kind}
    return ker.from_config({"density": cfg})[0]


def test_dirac_mass_and_support():
    k = ker.dirac(-1.0, 2.0)
    assert k.total_mass == 2.0
    assert k.support() == (-1.0, -1.0)
    kn = ker.normalize(k)
    assert kn.total_mass == pytest.approx(1.0)


def test_normalize_uniform_halves():
    g = np.linspace(-1.0, 1.0, 401)
    k = ker.Kernel(density=ker.Density(g, np.ones_like(g)))
    assert k.total_mass == pytest.approx(2.0, abs=1e-12)
    kn = ker.normalize(k)
    assert kn.total_mass == pytest.approx(1.0, abs=1e-12)
    assert kn.density.values[0] == pytest.approx(0.5)


def test_zero_mass_rejected():
    with pytest.raises(DomainError, match="zero-mass kernel"):
        ker.normalize(ker.Kernel(atoms=((0.0, 0.0),)))


def test_negative_atom_rejected():
    with pytest.raises(DomainError, match="negative mass"):
        ker.Kernel(atoms=((0.0, -1.0),))


def test_nonuniform_grid_rejected():
    with pytest.raises(DomainError, match="strictly increasing and uniform"):
        ker.Density(np.array([0.0, 1.0, 3.0]), np.ones(3))


def test_alpha_plus_single_advanced_atom():
    # K = delta(. + 1): interaction mass one unit ahead of the front
    k = ker.dirac(-1.0)
    assert ker.alpha_plus(k, 2.5) == pytest.approx(0.4, abs=1e-12)
    assert ker.alpha_minus(k, 2.5) == pytest.approx(0.0, abs=1e-12)


def test_alpha_uniform_symmetric():
    k = _density("uniform", -1.0, 1.0, 2001)
    assert ker.alpha_plus(k, 2.0) == pytest.approx(0.125, abs=1e-6)
    assert ker.alpha_minus(k, 2.0) == pytest.approx(0.125, abs=1e-6)


def test_exp_moment_gaussian_right_tail():
    # int_0^inf e^{-s} N(0,1)(s) ds = e^{1/2} (1 - Phi(1))
    k = _density("gaussian", -8.0, 8.0, 1601)
    oracle = math.exp(0.5) * (1.0 - norm.cdf(1.0))
    assert ker.exp_moment(k, -1.0, "right") == pytest.approx(oracle, abs=5e-3)


def test_exp_moment_atom_exact():
    k = ker.dirac(2.0, 1.0)
    assert ker.exp_moment(k, -0.5, "both") == pytest.approx(math.exp(-1.0))
    assert ker.exp_moment(k, -0.5, "left") == 0.0


def test_exp_moment_overflow_is_inf():
    k = ker.dirac(1000.0, 1.0)
    assert ker.exp_moment(k, 10.0, "right") == math.inf


def test_convolve_constant_profile():
    k = ker.normalize(ker.Kernel(atoms=((-1.0, 0.3), (2.0, 0.7))))
    conv = ker.convolve(ker.stencil(k, 0.1), np.ones(50), 1.0, 1.0)
    assert np.max(np.abs(conv - 1.0)) < 1e-14


def test_convolve_shifts_atom():
    h = 0.1
    t = h * np.arange(60)
    st = ker.stencil(ker.dirac(1.0), h)
    assert (st.lo, st.weights.tolist()) == (10, [1.0])
    conv = ker.convolve(st, t ** 2)
    # (K * phi)(t) = phi(t - 1)
    assert conv[30] == pytest.approx(4.0, abs=1e-12)
    assert np.max(np.abs(conv[10:] - (t[10:] - 1.0) ** 2)) < 1e-12


def test_convolve_density_linear_profile():
    k = _density("uniform", -1.0, 1.0, 801)
    h = 0.01
    t = -2.0 + h * np.arange(501)
    conv = ker.convolve(ker.stencil(k, h), 2.0 * t + 1.0)
    # linear profiles pass through symmetric kernels unchanged, including
    # at fractional node offsets, where the stencil interpolates linearly
    inner = (t > -1.0) & (t < 2.0)
    assert np.max(np.abs(conv[inner] - (2.0 * t[inner] + 1.0))) < 1e-12
    assert conv[250] == pytest.approx(2.0, abs=1e-12)


def test_from_config_roundtrip():
    cfg = {
        "atoms": [{"s": -1.0, "mass": 1.0}, {"s": 0.5, "mass": 1.0}],
        "density": {"lo": -2.0, "hi": 2.0, "n": 101, "kind": "uniform"},
    }
    k, raw_mass = ker.from_config(cfg)
    assert k.total_mass == pytest.approx(1.0, abs=1e-12)
    assert raw_mass == pytest.approx(3.0, abs=1e-9)
    assert k.support() == (-2.0, 2.0)


def test_from_config_table_length_mismatch():
    cfg = {"density": {"lo": 0.0, "hi": 1.0, "n": 5, "kind": "table",
                       "values": [1.0, 2.0]}}
    with pytest.raises(DomainError, match="exactly n values"):
        ker.from_config(cfg)


@pytest.mark.parametrize("cfg", [
    {"atoms": [{"s": 0.0, "mass": 1e308}, {"s": 1.0, "mass": 1e308}]},
    {"density": {"lo": 0.0, "hi": 3.0, "n": 2, "kind": "gaussian",
                 "params": {"sigma": 3e-309}}},
])
def test_from_config_overflowing_mass_rejected(cfg):
    with pytest.raises(DomainError, match="overflows"):
        ker.from_config(cfg)


def test_from_config_gaussian_far_narrower_than_grid():
    # (grid / sigma)**2 overflows off the centre node, leaving an atom at 0
    k, _ = ker.from_config({"density": {"lo": -1.0, "hi": 1.0, "n": 3,
                                        "kind": "gaussian",
                                        "params": {"sigma": 1e-200}}})
    assert k.density.values == pytest.approx([0.0, 1.0, 0.0])


def test_exp_moment_zero_value_where_exponential_overflows():
    # e^{40 s} overflows at s = 18, where the density is zero
    k = ker.Kernel(density=ker.Density(np.array([6.0, 18.0]),
                                       np.array([1.0, 0.0])))
    assert ker.exp_moment(k, 40.0) == pytest.approx(6.0 * math.exp(240.0))


def test_exp_moment_split_past_overflowed_end_uses_density_at_zero():
    # e^{800} overflows at the left end of the one cell, which straddles 0:
    # the integrand at 0 is the density there, 1 + 2 * 0.8 = 2.6, not inf
    k = ker.Kernel(density=ker.Density(np.array([-800.0, 200.0]),
                                       np.array([1.0, 3.0])))
    right = 0.5 * (2.6 + 3.0 * math.exp(-200.0)) * 200.0
    assert ker.exp_moment(k, -1.0, "right") == pytest.approx(right, rel=1e-15)
    assert ker.exp_moment(k, -1.0, "left") == math.inf


# a uniform density on [-1, 1] with an even node count, so one cell straddles
# 0, plus an atom at 0
STRADDLING = {"lo": -1.0, "hi": 1.0, "n": 40, "kind": "uniform"}


@pytest.mark.parametrize("fn", [lambda s: np.exp(-0.3 * s),
                                lambda s: s ** 2], ids=["exp", "square"])
def test_half_lines_and_atom_at_zero_sum_to_whole_line(fn):
    k, _ = ker.from_config({"atoms": [{"s": 0.0, "mass": 0.5}],
                            "density": STRADDLING})
    (s0, m0), = k.atoms
    assert s0 == 0.0
    halves = k.moment(fn, "left") + k.moment(fn, "right")
    # the atom at 0 counts for neither half
    assert halves + m0 * fn(np.zeros(1))[0] == pytest.approx(
        k.moment(fn), abs=1e-12)


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_alpha_on_straddling_grid(c):
    # the straddling cell is split at 0, so each half is integrated to
    # O(h^2); here v |s| is linear on every piece, so to rounding (a sum over
    # the nodes on one side was off by 6.6e-4 relative on this grid)
    k = _density(**STRADDLING)
    assert ker.alpha_plus(k, c) == pytest.approx(0.25 / c, rel=1e-13)
    assert ker.alpha_minus(k, c) == pytest.approx(0.25 / c, rel=1e-13)


def test_moment_rejects_unknown_side():
    with pytest.raises(DomainError, match="side"):
        ker.dirac(1.0).moment(np.ones_like, "up")


@pytest.mark.parametrize("n", [401.5, 10 ** 6 + 1])
def test_from_config_density_node_count_checked(n):
    # a float was truncated, and any count went to np.linspace unchecked
    with pytest.raises(DomainError, match="density n must be an integer"):
        ker.from_config({"density": {"lo": -1.0, "hi": 1.0, "n": n,
                                     "kind": "uniform"}})


# every number of a kernel config follows the CLI's rule for config
# numbers: a finite real number, not a bool and not a numeric string
@pytest.mark.parametrize("cfg", [
    {"atoms": [{"s": "-0.5", "mass": True}],
     "density": {"lo": "-1", "hi": True, "n": 5, "kind": "gaussian",
                 "params": {"sigma": "0.5"}}},
    {"atoms": [{"s": "-0.5", "mass": 1.0}]},
    {"atoms": [{"s": -0.5, "mass": True}]},
    {"atoms": [{"s": None, "mass": 1.0}]},
    {"density": {"lo": "-1", "hi": 1, "n": 5, "kind": "uniform"}},
    {"density": {"lo": -1, "hi": True, "n": 5, "kind": "uniform"}},
    {"density": {"lo": -1, "hi": 1, "n": 5, "kind": "gaussian",
                 "params": {"sigma": "0.5"}}},
    {"density": {"lo": -1, "hi": 1, "n": 3, "kind": "table",
                 "values": [1.0, "2", 1.0]}},
    {"density": {"lo": -1, "hi": 1, "n": 3, "kind": "table",
                 "values": [1.0, False, 1.0]}},
    {"density": {"lo": -1, "hi": 10 ** 400, "n": 3, "kind": "uniform"}},
], ids=["all-fields", "atom-s-string", "atom-mass-bool", "atom-s-null",
        "lo-string", "hi-bool", "sigma-string", "table-string",
        "table-bool", "hi-huge-int"])
def test_from_config_rejects_non_numbers(cfg):
    with pytest.raises(DomainError, match="must be a finite number"):
        ker.from_config(cfg)


def test_from_config_accepts_integers():
    k, raw = ker.from_config({"atoms": [{"s": -1, "mass": 2}],
                              "density": {"lo": -1, "hi": 1, "n": 3,
                                          "kind": "table",
                                          "values": [0, 1, 0]}})
    assert raw == pytest.approx(3.0)
    assert k.nodes.tolist() == [-1.0, 0.0]


atom_lists = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(0.01, 10)), min_size=1, max_size=4
)


@given(atom_lists)
@settings(max_examples=50, deadline=None)
def test_normalize_idempotent(atoms):
    k = ker.normalize(ker.Kernel(atoms=tuple(atoms)))
    k2 = ker.normalize(k)
    assert k2.total_mass == pytest.approx(1.0, rel=1e-12)
    for (s1, m1), (s2, m2) in zip(k.atoms, k2.atoms):
        assert m1 == pytest.approx(m2, rel=1e-12)


@given(atom_lists, st.floats(0.5, 10), st.floats(1.1, 5))
@settings(max_examples=50, deadline=None)
def test_alpha_scales_inversely_with_speed(atoms, c, factor):
    k = ker.normalize(ker.Kernel(atoms=tuple(atoms)))
    assert ker.alpha_plus(k, c * factor) * factor == pytest.approx(
        ker.alpha_plus(k, c), rel=1e-10, abs=1e-12)
    assert ker.alpha_minus(k, c * factor) * factor == pytest.approx(
        ker.alpha_minus(k, c), rel=1e-10, abs=1e-12)


@given(atom_lists)
@settings(max_examples=50, deadline=None)
def test_exp_moment_zero_rate_is_mass(atoms):
    k = ker.normalize(ker.Kernel(atoms=tuple(atoms)))
    assert ker.exp_moment(k, 0.0, "both") == pytest.approx(1.0, rel=1e-12)


@given(atom_lists)
@settings(max_examples=50, deadline=None)
def test_sides_partition_moment(atoms):
    # atoms strictly off the origin: left + right = both
    atoms = tuple((s if abs(s) > 1e-3 else s + 1.0, m) for s, m in atoms)
    k = ker.normalize(ker.Kernel(atoms=atoms))
    tot = ker.exp_moment(k, -0.3, "left") + ker.exp_moment(k, -0.3, "right")
    assert tot == pytest.approx(ker.exp_moment(k, -0.3, "both"), rel=1e-10)
