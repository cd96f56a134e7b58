import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlkpp import cli


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out


def load(out, name):
    return json.loads((out / name).read_text())


def test_roots_reports_quadratic_and_census(tmp_path):
    code, out = run_cli(tmp_path, "roots", "--c", "2.5", "--tau", "5")
    assert code == 0
    rep = load(out, "roots.json")
    assert rep["quadratic"]["lam"] == pytest.approx(0.5)
    assert rep["quadratic"]["mu"] == pytest.approx(2.0)
    assert rep["census"]["count"] == 3


def test_roots_without_arguments_is_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "roots")
    assert code == 1


def test_roots_unconverged_census_is_numeric_failure(tmp_path, capsys):
    # at tau = 1e6 the contour count far exceeds the roots Newton locates
    code, out = run_cli(tmp_path, "roots", "--tau", "1e6")
    assert code == 2
    assert "numeric failure:" in capsys.readouterr().err
    assert load(out, "roots.json")["census"]["converged"] is False


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_nonfinite_speed_is_config_error(tmp_path, value):
    code, out = run_cli(tmp_path, "classify", "--c", value)
    assert code == 1
    assert not (out / "classify.json").exists()


def test_classify_subcritical_speed(tmp_path):
    code, out = run_cli(tmp_path, "classify", "--c", "1.5")
    assert code == 0
    rep = load(out, "classify.json")
    assert rep["semi_wavefront_exists"] is False


def test_classify_local_kernel(tmp_path):
    code, out = run_cli(tmp_path, "classify", "--c", "2.5")
    assert code == 0
    rep = load(out, "classify.json")
    assert rep["semi_wavefront_exists"] is True
    assert rep["monotone_front_exists"] is True
    assert rep["intensity_case"] == "local"


def test_classify_with_kernel_config(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(
        {"kernel": {"atoms": [{"s": -0.5, "mass": 1.0}]}}))
    code, out = run_cli(tmp_path, "classify", "--c", "2.5",
                        "--config", str(cfgp))
    assert code == 0
    rep = load(out, "classify.json")
    assert rep["alpha_plus"] > 0 and rep["alpha_minus"] == 0
    assert rep["intensity_case"] == "c"


def test_bad_config_path_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "classify", "--c", "2.5",
                      "--config", str(tmp_path / "missing.json"))
    assert code == 1


def _front_with_kernel(tmp_path, kernel_text):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text('{"kernel": %s}' % kernel_text)
    return run_cli(tmp_path, "front", "--c", "2.5", "--config", str(cfgp))


@pytest.mark.parametrize("kernel_text", [
    '{"atoms": [{"s": NaN, "mass": 1}]}',
    '{"atoms": [{"s": Infinity, "mass": 1}]}',
    '{"atoms": [{"s": -0.5, "mass": NaN}]}',
    '{"atoms": [{"s": -0.5, "mass": -Infinity}]}',
    '{"density": {"lo": NaN, "hi": 4, "kind": "uniform"}}',
    '{"density": {"lo": -4, "hi": Infinity, "kind": "gaussian"}}',
    '{"density": {"lo": -4, "hi": 4, "kind": "gaussian",'
    ' "params": {"sigma": NaN}}}',
    '{"density": {"lo": -4, "hi": 4, "kind": "gaussian",'
    ' "params": {"sigma": Infinity}}}',
])
def test_front_nonfinite_kernel_is_config_error(tmp_path, capsys,
                                                kernel_text):
    code, out = _front_with_kernel(tmp_path, kernel_text)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error:" in err and "finite" in err
    assert "Traceback" not in err
    assert not (out / "front.csv").exists()


@pytest.mark.parametrize("s", [-5000, 2000])
def test_front_far_atom_is_config_error(tmp_path, capsys, s):
    # U(c, K) overflows: 2 e^{lam (r + sigma)} with r = 5000 for the advanced
    # atom, 1 / e^{-lam s} for the delayed one
    code, out = _front_with_kernel(tmp_path,
                                   '{"atoms": [{"s": %d, "mass": 1}]}' % s)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error:" in err and "overflows" in err
    assert not (out / "front.csv").exists()


def test_write_csv_matches_per_value_formatting(tmp_path):
    def per_value(header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                v if isinstance(v, str) else "%.12g" % v for v in row))
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(5)
    x = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    rows = list(zip(x.tolist(), x[::-1], range(50)))
    rows += [(float("nan"), float("inf"), -0.0), (1, True, np.int64(7)),
             (0.1, "label", float("nan")), ("a", "b", "c"), (1e300, 2.5)]
    header = ["a", "b", "c"]
    cli.write_csv(tmp_path / "x.csv", header, iter(rows))
    assert (tmp_path / "x.csv").read_text() == per_value(header, rows)


def test_region_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "region", "--aplus", "0.0",
                        "--aminus", "0.3", "--grid-n", "100")
    assert code == 0
    rep = load(out, "region.json")
    assert rep["p_min"] == pytest.approx(1.0, abs=1e-2)
    assert rep["P_max"] == pytest.approx(1.0, abs=5e-2)
    lines = (out / "region.csv").read_text().strip().split("\n")
    assert lines[0] == "p,P,feasible"
    assert len(lines) == 1 + 100 * 100


def test_toy_constants_json(tmp_path):
    code, out = run_cli(tmp_path, "toy")
    assert code == 0
    rep = load(out, "toy.json")
    assert rep["a"] == pytest.approx(0.28785, abs=5e-4)
    assert rep["b"] == pytest.approx(0.21215, abs=5e-4)
    lines = (out / "toy.csv").read_text().strip().split("\n")
    assert lines[0] == "t,phi1,phi2,phi3"


def test_simulate_speed_json(tmp_path):
    code, out = run_cli(tmp_path, "simulate", "--T", "25", "--snap", "10")
    assert code == 0
    rep = load(out, "speed.json")
    assert rep["speed"] == pytest.approx(2.0, rel=0.06)
    assert rep["u_min"] >= -1e-12
    lines = (out / "snapshots.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * 2001


def test_manifest_written(tmp_path):
    code, out = run_cli(tmp_path, "toy", "--seed", "7")
    assert code == 0
    man = load(out, "manifest.json")
    assert man["command"] == "toy"
    assert man["seed"] == 7
    assert set(man["versions"]) == {"nlkpp", "numpy", "scipy", "python"}
    assert man["wall_time_s"] >= 0


def test_determinism_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "atlas", "--n", "6", "--seed", "3")
    _, out2 = run_cli(tmp_path / "b", "atlas", "--n", "6", "--seed", "3")
    for name in ("atlas.csv", "atlas.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_atlas_labels_all_five_cases(tmp_path):
    code, out = run_cli(tmp_path, "atlas", "--n", "12",
                        "--aplus-range", "0", "0.6",
                        "--aminus-range", "0", "0.6")
    assert code == 0
    rep = load(out, "atlas.json")
    assert set(rep["cases"]) == {"local", "a", "b", "c", "d", "e"}
    lines = (out / "atlas.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 12 * 12
    # row-major ordering: alpha_plus varies slowest
    ap_col = [float(l.split(",")[0]) for l in lines[1:]]
    assert ap_col == sorted(ap_col)


def test_periodic_below_threshold_is_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "periodic", "--tau", "1.0")
    assert code == 1


@pytest.mark.parametrize("tau", ["7", "8"])
def test_periodic_diverging_newton_is_numeric_failure(tmp_path, capsys, tau):
    # from the small-amplitude seed the orbit Newton converges onto the
    # flat equilibrium p = 1, which is no orbit
    code, out = run_cli(tmp_path, "periodic", "--tau", tau)
    assert code == 2
    assert "numeric failure: periodic-orbit Newton" in capsys.readouterr().err
    assert not (out / "orbit.json").exists()


def run_cli_quietly(tmp_path, *argv):
    # any warning, RuntimeWarning and MatrixRankWarning included, fails
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, *argv)
    assert not seen, [str(w.message) for w in seen]
    return code, out


def test_periodic_collapse_onto_equilibrium_is_numeric_failure(tmp_path,
                                                                capsys):
    # the eps = 0 Newton lands on p = 0, an exact solution but no orbit
    code, out = run_cli_quietly(tmp_path, "periodic", "--tau", "7.54",
                                "--eps", "0.01")
    assert code == 2
    err = capsys.readouterr().err
    assert "numeric failure: periodic-orbit Newton collapsed onto p = 0" in err
    assert not (out / "orbit.json").exists()


@pytest.mark.parametrize("argv", [
    ["connect", "--tau", "100"],
    ["semiwave", "--tau", "5", "--c", "1e10"],
])
def test_diverging_connection_newton_is_numeric_failure(tmp_path, capsys,
                                                        argv):
    # the Newton iterates overflow before the sparse Jacobian turns singular
    code, out = run_cli_quietly(tmp_path, *argv)
    assert code == 2
    assert "numeric failure: connection Newton diverged: residual not " \
        "finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, msg", [
    (["connect", "--tau", "0"], "need tau > 0"),
    (["semiwave", "--tau", "5", "--c", "1e-200"], "c^2 > 0"),
    (["roots", "--tau", "1e-300"], "out of float range"),
    (["classify", "--c", "1e300"], "c^2 overflows"),
    (["front", "--c", "1e300"], "c^2 overflows"),
    (["periodic", "--tau", "5", "--eps", "-1"], "eps >= 0"),
    (["connect", "--tau", "5", "--eps", "-0.1"], "eps >= 0"),
    (["region", "--aplus", "-1", "--aminus", "0"], "nonnegative"),
], ids=["connect-tau0", "semiwave-c-underflow", "roots-tiny-tau",
        "classify-huge-c", "front-huge-c", "periodic-neg-eps",
        "connect-neg-eps", "region-neg-intensity"])
def test_out_of_range_input_is_config_error(tmp_path, capsys, argv, msg):
    code, out = run_cli_quietly(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and msg in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_connect_unknown_kind(tmp_path):
    code, _ = run_cli(tmp_path, "connect", "--tau", "5", "--kind", "spiral")
    assert code == 1


def test_connect_heteroclinic(tmp_path):
    code, out = run_cli(tmp_path, "connect", "--tau", "5", "--eps", "1e-3")
    assert code == 0
    rep = load(out, "connect.json")
    assert rep["eps_ladder"][0] == 0.0
    assert rep["eps_ladder"][-1] == pytest.approx(1e-3)
    for fit in rep["decay_fits"]:
        assert fit["decay_rate"] == pytest.approx(fit["target"], rel=0.05)
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,y"
    y = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert y[0] == pytest.approx(0.0, abs=1e-3)
    assert y[-1] == pytest.approx(1.0, abs=1e-3)


def test_failed_rerun_leaves_no_manifest(tmp_path):
    code, out = run_cli(tmp_path, "toy")
    assert code == 0 and (out / "manifest.json").exists()
    code, _ = run_cli(tmp_path, "toy", "--config", str(tmp_path / "no.json"))
    assert code == 1
    assert not (out / "manifest.json").exists()


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "out").write_text("a file, not a directory\n")
    code, _ = run_cli(tmp_path, "classify", "--c", "2.5")
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: cannot write" in err


def test_artifact_path_taken_by_a_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "out" / "classify.json").mkdir(parents=True)
    code, out = run_cli(tmp_path, "classify", "--c", "2.5")
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: cannot write" in err
    assert not (out / "manifest.json").exists()


def test_rerun_replaces_artifacts_instead_of_writing_through(tmp_path):
    # a link to an artifact keeps the first run's bytes only if the rerun
    # wrote a new file; truncating in place would change it
    _, out = run_cli(tmp_path, "atlas", "--n", "6")
    names = ("atlas.csv", "atlas.json")
    first = {name: (out / name).read_bytes() for name in names}
    for name in names:
        os.link(out / name, tmp_path / ("first-" + name))
    assert run_cli(tmp_path, "atlas", "--n", "7")[0] == 0
    _, fresh = run_cli(tmp_path / "fresh", "atlas", "--n", "7")
    for name in names:
        assert (tmp_path / ("first-" + name)).read_bytes() == first[name]
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert (out / name).read_bytes() != first[name]


@pytest.mark.parametrize("kernel", [
    {"density": {"lo": 1, "hi": 1, "n": 5, "kind": "uniform"}},
    {"density": {"lo": 2, "hi": 1, "n": 5, "kind": "uniform"}},
    [1, 2],
    {"density": [1, 2]},
    {"density": {"lo": -1, "hi": 1, "kind": "gaussian", "params": [1]}},
])
def test_classify_malformed_kernel_is_config_error(tmp_path, capsys, kernel):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": kernel}))
    code, out = run_cli(tmp_path, "classify", "--c", "2.5",
                        "--config", str(cfgp))
    assert code == 1
    assert "config error: bad kernel config" in capsys.readouterr().err
    assert not (out / "classify.json").exists()


# random kernel configs for `classify`: atoms on either side of 0 (delayed,
# advanced or mixed), gaussian, uniform and table densities whose windows may
# be empty or reversed and whose sizes and parameters may be invalid, and
# non-object values where the schema expects an object; atoms and window ends
# reach out to 1e6, where exponential moments and U(c, K) overflow
_number = st.one_of(st.floats(-30, 30), st.sampled_from([0, 1, -1, 0.5]))
_offset = st.one_of(st.floats(-1e6, 1e6), _number)
_atom = st.fixed_dictionaries({"s": _offset,
                               "mass": st.one_of(st.floats(0, 3), _number)})
_window = st.tuples(_offset, st.one_of(st.floats(0.01, 12),
                                       st.sampled_from([0.0, -1.0])))
_other = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3),
                   st.lists(st.integers(0, 3), max_size=3))


@st.composite
def _density(draw):
    lo, width = draw(_window)
    n = draw(st.integers(0, 40))
    d = {"lo": lo, "hi": lo + width, "n": n,
         "kind": draw(st.sampled_from(["gaussian", "uniform", "table"]))}
    if d["kind"] == "gaussian":
        d["params"] = draw(st.one_of(
            st.fixed_dictionaries({"sigma": st.one_of(st.floats(0.05, 5),
                                                      _number)}),
            _other))
    elif d["kind"] == "table":
        d["values"] = draw(st.lists(st.one_of(st.floats(0, 2), _number),
                                    min_size=max(n - 1, 0),
                                    max_size=n + 1))
    return d


_kernel = st.one_of(
    st.fixed_dictionaries({}, optional={
        "atoms": st.lists(_atom, max_size=3), "density": _density()}),
    st.one_of(_other, st.fixed_dictionaries({}, optional={
        "atoms": st.one_of(st.lists(st.one_of(_atom, _other), max_size=3),
                           _other),
        "density": _other})))


def _all_finite(obj):
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return obj not in ("nan", "inf", "-inf")


def _dens(lo, hi, n, kind, **extra):
    return {"density": dict(lo=lo, hi=hi, n=n, kind=kind, **extra)}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kernel=_kernel, c=st.floats(2, 8))
# kernels reaching far enough right that e^{40 s} overflows in the
# monotone-front scan at c = 2, and densities with a tiny sigma, a mass that
# overflows a float or a zero value where the exponential overflows
@example(kernel={"atoms": [{"s": 18.0, "mass": 1.0}]}, c=2.0)
@example(kernel=_dens(0.0, 9.0, 2, "uniform"), c=2.0)
@example(kernel=_dens(6.0, 18.0, 2, "table", values=[1.0, 0.0]), c=2.0)
@example(kernel=_dens(0.0, 1.0, 2, "gaussian", params={"sigma": 6e-210}),
         c=2.0)
@example(kernel=_dens(0.0, 3.0, 2, "gaussian", params={"sigma": 3e-309}),
         c=2.0)
@example(kernel={"atoms": [{"s": 0.0, "mass": 1e308},
                           {"s": 1.0, "mass": 1e308}]}, c=2.0)
def test_classify_random_kernel_exits_cleanly(kernel, c):
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps({"kernel": kernel}))
        out = Path(tmp) / "out"
        code = cli.main(["classify", "--c", repr(c), "--config", str(cfgp),
                         "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            rep = load(out, "classify.json")
            assert _all_finite(rep), rep


@pytest.mark.parametrize("kernel, c, msg", [
    # the mass underflows, so normalizing by 1 / mass overflows
    (_dens(6845.485296693551, 7566.3499044318105, 201, "gaussian",
           params={"sigma": 180.21615193456478}), 4.462360599382275,
     "too small to normalize"),
    # all mass far to the left: U2 = 2 exp(lam (r + sigma)) overflows
    ({"atoms": [{"s": -2000.0, "mass": 1.0}]}, 3.0, "U(c,K) overflows"),
    # U(c, K) = 2.3e305 is finite, but the ALC threshold is not
    (_dens(-2453.096200084702, -2215.4014801650314, 201, "gaussian",
           params={"sigma": 59.423679979917665}), 3.4830093447562365,
     "threshold overflow"),
    # a light atom far to the right: its second moment overflows
    ({"atoms": [{"s": -1.0, "mass": 1.0}, {"s": 1e200, "mass": 1e-5}]}, 2.0,
     "threshold overflow"),
])
def test_classify_far_kernel_is_config_error(tmp_path, capsys, kernel, c, msg):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": kernel}))
    code, out = run_cli(tmp_path, "classify", "--c", repr(c),
                        "--config", str(cfgp))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error:" in err and msg in err
    assert not (out / "classify.json").exists()


def test_classify_wide_straddling_cell_has_finite_bound(tmp_path):
    # the cell straddling 0 is 1712 wide and its left end's integrand
    # overflows; the right half's moment is still below its mass, so U1
    # exists
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": _dens(
        -1106.6754428073466, 341459.3283118394, 201, "uniform")}))
    code, out = run_cli(tmp_path, "classify", "--c", "2.1548854510626856",
                        "--config", str(cfgp))
    assert code == 0
    rep = load(out, "classify.json")
    assert _all_finite(rep), rep
    assert rep["u_bound"] == pytest.approx(1130.29, abs=0.01)
