import ast
import builtins
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlkpp import DomainError, InvariantViolation, NoConvergence, cli, dde
from nlkpp import kernels, profiles, regimes, solver


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


@pytest.mark.parametrize("c, s, route", [
    (2.5, -0.5, "newton-krylov"), (3.0, 2.0, "picard-newton-krylov")])
def test_front_reports_its_solver(tmp_path, c, s, route):
    # the monotone-front criterion holds for the advanced atom (Newton from
    # min(upper, 1)) and fails for the delayed one (Newton from a coarse
    # Picard start, whose sweeps front.json reports)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": s, "mass": 1.0}]},
                                "dt": 0.02}))
    code, out = run_cli(tmp_path, "front", "--c", str(c), "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["solver"] == "newton-krylov"
    assert rep["newton_steps"] > 0 and rep["gmres_iters"] > 0
    assert abs(rep["sigma"]) < 1e-15
    nested = route == "picard-newton-krylov"
    assert (rep["picard_sweeps"] > 0) == nested
    assert (rep["start_beta"] is not None) == nested
    assert rep["monotone"] is not nested


def test_front_oscillating_where_picard_stagnates(tmp_path):
    # K = delta(s - 3), c = 2.2, dt 0.01: Picard alone stagnates (diff 1.6e-6,
    # exit 2); from its coarse start Newton reaches residual 4.1e-5
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": 3.0, "mass": 1.0}]},
                                "dt": 0.01}))
    code, out = run_cli(tmp_path, "front", "--c", "2.2", "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["solver"] == "newton-krylov" and rep["picard_sweeps"] > 0
    assert rep["monotone"] is False and rep["phi_max"] > 1.0
    assert rep["residual"] < 1e-4


def test_front_start_retried_at_step_dt_after_escape(tmp_path):
    # K = delta(s - 5), c = 2.5, dt 0.01: at ctx.beta the start at 2 dt
    # escapes its envelope, and the one at dt converges, so Newton still
    # runs (the start now holds at 2 dt on the ladder's beta 4)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]},
                                "dt": 0.01}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["solver"] == "newton-krylov" and rep["picard_sweeps"] > 0
    assert rep["monotone"] is False


def test_front_coarse_oscillating_start_holds_on_the_ladder(tmp_path):
    # K = delta(s - 5), c = 2.5, dt 0.02: at ctx.beta the start escapes its
    # envelope at step 2 dt and at step dt (exit 2).  At beta 4 it escapes
    # at 2 dt only, and Newton converges from the one at dt in 3 steps
    # (residual 2.4e-3; 7.3e-4 from the dt 0.0025 front on [-20, 20])
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]},
                                "dt": 0.02}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["solver"] == "newton-krylov" and rep["picard_sweeps"] > 0
    assert rep["start_beta"] == 4.0 and rep["beta"] > 13
    assert rep["monotone"] is False and rep["phi_max"] < 4.0
    assert rep["residual"] < 5e-3


def test_front_converges_after_a_step_that_raises_the_residual(
        tmp_path, monkeypatch):
    # K = delta(s - 5), c = 2.05, dt 0.01: Newton's first step raises max|G|
    # from 3.0e-3 to 4.2e-3, and Newton converges in 3 steps to an
    # oscillating, positive front (residual 1.8e-3; 4.5e-4 at dt 0.005)
    seen = []
    equations = cli.profiles._FrontSystem.equations

    def record(self, x, i0):
        G, linearize = equations(self, x, i0)
        seen.append(float(np.max(np.abs(G))))
        return G, linearize

    monkeypatch.setattr(cli.profiles._FrontSystem, "equations", record)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]},
                                "dt": 0.01}))
    code, out = run_cli(tmp_path, "front", "--c", "2.05", "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["newton_steps"] == 3 and len(seen) == 4
    assert seen[1] > seen[0]
    assert rep["residual"] < 2.5e-3
    assert rep["monotone"] is False and rep["phi_min"] > 0


def test_front_newton_failure_is_numeric_failure(tmp_path, capsys,
                                                 monkeypatch):
    # a failed Newton solve exits 2 with its own reason: nothing falls back
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 1)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": -0.5, "mass": 1.0}]},
                                "dt": 0.02}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config",
                        str(cfgp))
    assert code == 2
    assert "numeric failure: front Newton hit 1 steps at max|r| = " in \
        capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_front_reports_gmres_per_step(tmp_path):
    # one entry per Newton step: GMRES's iterations and its rtol, the
    # forcing term, which starts at GMRES_ETA_MAX
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": -0.5, "mass": 1.0}]},
                                "dt": 0.02}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config",
                        str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    per_step, rtols = rep["gmres_per_step"], rep["gmres_rtols"]
    assert len(per_step) == len(rtols) == rep["newton_steps"] > 0
    assert sum(per_step) == rep["gmres_iters"] and min(per_step) > 0
    assert rtols[0] == profiles.GMRES_ETA_MAX
    assert all(profiles.GMRES_RTOL <= r <= profiles.GMRES_ETA_MAX
               for r in rtols)


def test_front_gmres_failure_names_its_tolerance(tmp_path, capsys,
                                                monkeypatch):
    # with one restart cycle (10 iterations) delta(s + 0.5), c 2.5, dt 0.02
    # fails at Newton step 3, whose GMRES runs to that step's forcing term
    # (4.4e-4), not to the floor GMRES_RTOL
    ctx = profiles.WaveContext(2.5, kernels.dirac(-0.5))
    rtols = profiles.solve_front(ctx, dt=0.02).diagnostics["gmres_rtols"]
    monkeypatch.setattr(profiles, "GMRES_MAX_CYCLES", 1)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": -0.5, "mass": 1.0}]},
                                "dt": 0.02}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config",
                        str(cfgp))
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("numeric failure: front Newton diverged: GMRES did not "
                   f"reach rtol={rtols[2]:.3g} in Newton-Krylov step 3\n")
    assert rtols[2] != profiles.GMRES_RTOL
    assert not (out / "front.json").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("c, dt", [(2.5, 20.0), (2.5, 30.0), (50.0, 40.0)])
def test_front_half_level_near_the_grid_end_is_numeric_failure(
        tmp_path, capsys, c, dt):
    # the preconditioner's dgttrf raised a ValueError on a block of one or
    # two rows, which main reported as a config error
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"dt": dt}))
    code, out = run_cli(tmp_path, "front", "--c", str(c), "--config",
                        str(cfgp))
    assert code == 2
    assert capsys.readouterr().err == \
        "numeric failure: start has no interior half-level\n"
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("beta", [None, 10.0], ids=["derived", "configured"])
def test_front_overflowing_bound_is_refused_with_or_without_beta(
        tmp_path, capsys, beta):
    # U(c, K) of delta(s + 1e5) overflows, and a context computes it whether
    # or not beta is configured: with beta 10 a full Newton-Krylov solve
    # used to run for 15 s and exit 2 ("GMRES did not reach rtol=0.01")
    cfg = {"kernel": {"atoms": [{"s": -1e5, "mass": 1}]}, "dt": 1}
    if beta is not None:
        cfg["beta"] = beta
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config", str(cfgp))
    wall = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 1
    assert err == "config error: U(c,K) overflows a float at c=2.5\n"
    assert not (out / "front.json").exists()
    assert wall < 2.0


@pytest.mark.parametrize("c, kernel", [
    (2.5, {"atoms": [{"s": 5.0, "mass": 1.0}]}),
    (3.0, {"atoms": [{"s": 1.0, "mass": 0.3}],
           "density": {"lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
                       "params": {"sigma": 0.5}}}),
], ids=["delayed", "mixed"])
def test_classify_and_front_share_beta(tmp_path, c, kernel):
    # U(c, K), beta and b come from one rule, and `classify` returns the
    # classify.json dict itself
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": kernel, "dt": 0.02}))
    runs = {}
    for command in ("classify", "front"):
        out = tmp_path / command
        assert cli.main([command, "--c", str(c), "--config", str(cfgp),
                         "--out", str(out)]) == 0
        runs[command] = load(out, f"{command}.json")
    assert runs["classify"]["beta"] == runs["front"]["beta"]
    k, _ = kernels.from_config(kernel)
    rep = regimes.classify(c, k)
    assert rep.keys() == runs["classify"].keys()
    assert json.loads(json.dumps(cli._plain(rep))) == runs["classify"]


def test_write_csv_matches_per_value_formatting(tmp_path):
    def per_value(header, columns):
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(
                v if isinstance(v, str) else "%.12g" % v for v in row))
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(5)
    x = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    n = x.size + 4
    columns = [np.append(x, [float("nan"), float("inf"), -float("inf"), -0.0]),
               x[::-1].tolist() + [1e300, 2.5, np.int64(7), True],
               np.arange(n) % 3 == 0,
               np.arange(n, dtype=np.int64),
               [f"label{i}" for i in range(x.size)] + ["a", "b", "nan", ""]]
    header = ["a", "b", "c", "d", "e"]
    cli.write_csv(tmp_path / "x.csv", header, columns)
    assert (tmp_path / "x.csv").read_text() == per_value(header, columns)


@pytest.mark.parametrize("lengths", [(3, 4), (4, 3)])
def test_write_csv_refuses_columns_of_unequal_length(tmp_path, lengths):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "x.csv", ["a", "b"],
                      [np.arange(float(k)) for k in lengths])
    assert not (tmp_path / "x.csv").exists()


def test_write_csv_header_only_table(tmp_path):
    cli.write_csv(tmp_path / "x.csv", ["t", "x", "case"],
                  [np.empty(0), np.empty(0), []])
    assert (tmp_path / "x.csv").read_text() == "t,x,case\n"


def _per_value_csv(header, columns) -> bytes:
    """The oracle: each value formatted on its own, by '%.12g' % or as the
    string it is."""
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns])
    return "".join([",".join(header) + "\n"] + [
        ",".join(v if isinstance(v, str) else "%.12g" % v for v in row)
        + "\n" for row in rows]).encode()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 3 * cli.CSV_BLOCK_ROWS + 1),
       seed=st.integers(0, 2 ** 32 - 1),
       values=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), max_size=40))
@example(n=3 * cli.CSV_BLOCK_ROWS + 1, seed=0, values=[])
def test_write_csv_matches_per_value_formatting_on_any_float(n, seed, values):
    # random 64-bit patterns (nan payloads, subnormals and infinities
    # among them), with hypothesis's floats put at random rows
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2 ** 64, (2, n), dtype=np.uint64).view(np.float64)
    if n:
        x[rng.integers(0, 2, len(values)),
          rng.integers(0, n, len(values))] = values
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        cli.write_csv(path, ["a", "b"], list(x))
        assert path.read_bytes() == _per_value_csv(["a", "b"], list(x))


def _edge_values() -> np.ndarray:
    """Values where a formatter can go wrong: zeros, subnormals, powers of
    two and ten and their neighbours, 13-digit near-ties, and values that
    round across the fixed/exponent switch or to the next power of ten."""
    tiny = np.finfo(float).tiny
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([pow2, pow10])
    ties = np.array([float(f"{m}5e{k}") for k in range(-330, 300, 7)
                     for m in (123456789012, 100000000000, 999999999999,
                               500000000000, 987654321098)])
    across = np.array([float(f"{d}e{k}") for k in range(-8, 16)
                       for d in ("9.999999999995", "9.9999999999951",
                                 "9.99999999999949", "9.9999999999996",
                                 "1.00000000000049", "9.99999999999995")])
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
               np.nextafter(tiny, 0.0), np.finfo(float).max,
               -np.finfo(float).max, 999999999999.5, 999999999999.49,
               999999999999.7, 9.99999999999995e-05, 0.0001, 1e12,
               123456789012.5, 2.0 ** 53 + 2, 0.5, 2.5, 10.0, 1e16,
               np.inf, -np.inf, np.nan, -np.nan]
    return np.concatenate([special, near, np.nextafter(near, 0.0),
                           np.nextafter(near, np.inf), ties, -ties, across,
                           -across, np.ldexp(ties, -40)])


def test_write_csv_edge_values_across_block_seams(tmp_path):
    # 2 blocks and 3 rows: the edge values cycle through every column, and
    # the rows next to each block seam are checked with the rest
    n = 2 * cli.CSV_BLOCK_ROWS + 3
    x = np.resize(_edge_values(), 2 * n).reshape(2, n)
    ints = np.resize([2 ** 53 + 1, -(2 ** 62) - 1, 2 ** 63 - 1, 7, 0,
                      -(2 ** 63)], n).astype(np.int64)
    labels = np.resize(["a", "local", "", "a long label " * 4, "α-β",
                        "0.5"], n)
    columns = [x[0], ints, np.arange(n) % 3 == 0, labels, x[1][::-1]]
    header = ["x", "int", "bool", "label", "y"]
    cli.write_csv(tmp_path / "x.csv", header, columns)
    assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(header,
                                                               columns)


def test_write_csv_formats_few_cells_by_percent(tmp_path, monkeypatch):
    # on the benchmark's front, semiwave and trajectory columns, region's
    # mask (mostly 0) and snapshots whose tails fall to 1e-164 (x = 0 in
    # each), at most 0.5% of the cells are near-ties left to '%', and no
    # zero is one of them
    seen = {"percent": 0, "zeros": 0}
    unsure = cli._CellFormatter._unsure

    def count(x, words, r, c):
        v = x[r, c]
        seen["percent"] += int(np.isfinite(v).sum())
        seen["zeros"] += int((v == 0).sum())
        unsure(x, words, r, c)

    monkeypatch.setattr(cli._CellFormatter, "_unsure", staticmethod(count))
    cfg = tmp_path / "front.json"
    cfg.write_text(json.dumps({"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]},
                               "dt": 0.005}))
    runs = {"front.csv": ["front", "--c", "2.5", "--config", str(cfg)],
            "semiwave.csv": ["semiwave", "--tau", "4.8124", "--c", "7",
                             "--proper"],
            "trajectory.csv": ["connect", "--tau", "5", "--eps", "0.01"],
            "region.csv": ["region", "--aplus", "0.1", "--aminus", "0.2"],
            "snapshots.csv": ["simulate", "--T", "20", "--snap", "1"]}
    for name, argv in runs.items():
        seen.update(percent=0, zeros=0)
        code, out = run_cli(tmp_path / name, *argv)
        assert code == 0
        rows = (out / name).read_text().splitlines()
        cells = (len(rows) - 1) * rows[0].count(",") + len(rows) - 1
        assert seen["percent"] <= 0.005 * cells, (name, seen, cells)
        assert seen["zeros"] == 0, name
    assert np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 2].min() \
        < 1e-150


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    assert run_cli(tmp_path, "toy")[0] == 0

    def build_parser():
        raise AssertionError("main built a second parser")
    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert run_cli(tmp_path, "toy")[0] == 0
    assert cli._parser() is cli._parser()


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


def test_toy_csv_holds_the_closed_forms(tmp_path):
    # each row is the closed-form branches at its t, to the printed digits
    code, out = run_cli(tmp_path, "toy")
    assert code == 0
    t = np.linspace(-10.0, 10.0, 601)
    funcs, _ = profiles.toy_fronts()
    rows = (out / "toy.csv").read_text().strip().split("\n")[1:]
    assert rows == [",".join("%.12g" % v for v in vals)
                    for vals in zip(t, *(f(t) for f in funcs))]


def test_toy_json_is_the_report(tmp_path):
    code, out = run_cli(tmp_path, "toy")
    assert code == 0
    assert load(out, "toy.json") == cli._plain(profiles.toy_fronts()[1])


def test_region_csv_rows_follow_the_mask(tmp_path):
    # row k is (p_i, P_j, mask[i, j]) with k = i * grid_n + j
    code, out = run_cli(tmp_path, "region", "--aplus", "0.1", "--aminus",
                        "0.2", "--grid-n", "100")
    assert code == 0
    geo = regimes.pP_feasible_set(0.1, 0.2, P_cap=5.0, grid_n=100)
    assert 0 < geo["mask"].sum() < geo["mask"].size
    rows = (out / "region.csv").read_text().strip().split("\n")[1:]
    assert rows == ["%.12g,%.12g,%d" % (p, P, geo["mask"][i, j])
                    for i, p in enumerate(geo["p_axis"])
                    for j, P in enumerate(geo["P_axis"])]


def test_region_with_a_huge_cap_is_finite(tmp_path):
    # a+ P (1 - p) at P = 1e200 overflowed to inf before meeting 1 - p = 0
    code, out = run_cli_quietly(tmp_path, "region", "--aplus", "0.1",
                                "--aminus", "0.1", "--P-cap", "1e200")
    assert code == 0
    rep = load(out, "region.json")
    assert math.isfinite(rep["p_min"]) and math.isfinite(rep["P_max"])


# a fresh interpreter runs commands and reports the exit codes, the
# FFT-path convolutions and which heavy scipy subpackages it loaded, right
# after the import and after the commands, and which of scipy.linalg and
# scipy.sparse it had loaded after the import and after each command
STARTUP_PROBE = """\
import json, sys
HEAVY = ("scipy.optimize", "scipy.fft", "scipy.special", "scipy.signal",
         "scipy.stats", "scipy.interpolate")
LINALG = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
loaded = lambda names=HEAVY: [m for m in names if m in sys.modules]
import nlkpp.cli
at_import, linalg = loaded(), [loaded(LINALG)]
from nlkpp import kernels
fft, calls = kernels._fft_convolve, []
kernels._fft_convolve = lambda *a: calls.append(1) or fft(*a)
out, commands = sys.argv[1], json.loads(sys.argv[2])
codes = []
for argv in commands:
    codes.append(nlkpp.cli.main(argv + ["--out", out]))
    linalg.append(loaded(LINALG))
print(json.dumps({"codes": codes, "fft_calls": len(calls),
                  "at_import": at_import, "loaded": loaded(),
                  "linalg": linalg}))
"""


def _startup_probe(tmp_path, commands):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "out"),
         json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_startup_commands_do_not_load_scipy_signal(tmp_path):
    # scipy.signal, with the scipy.stats it loads, was most of the start-up
    # time; the front operator's two recurrences are two BLAS band solves,
    # so no command loads it, the monotone (delta(s + 0.5)) and the
    # oscillating (delta(s - 5)) front included.  scipy.optimize (with
    # scipy.special) and scipy.fft would be loaded for one function each, a
    # root bracket and an FFT length, which the package computes itself.
    # No solver evaluates a profile, so the package never imports
    # scipy.interpolate.  The gaussian (321 taps at dx = 0.2) on 3,501 points
    # takes the FFT path of K * u.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"X": 700, "kernel": {"density": {
        "lo": -32, "hi": 32, "n": 401, "kind": "gaussian",
        "params": {"sigma": 4}}}}))
    fronts = []
    for s in (-0.5, 5.0):
        fronts.append(tmp_path / f"front{s}.json")
        fronts[-1].write_text(json.dumps({
            "kernel": {"atoms": [{"s": s, "mass": 1.0}]}, "dt": 0.02}))
    rep = _startup_probe(tmp_path, [
        ["roots", "--c", "2.5", "--tau", "5"],
        ["classify", "--c", "2.5", "--config", str(cfg)],
        ["simulate", "--T", "15", "--config", str(cfg)]]
        + [["front", "--c", "2.5", "--config", str(f)] for f in fronts])
    assert rep["codes"] == [0, 0, 0, 0, 0]
    assert rep["fft_calls"] > 0
    assert rep["at_import"] == []
    assert rep["loaded"] == []
    # the front's GMRES loads scipy.sparse.linalg at its first solve; the
    # commands before it load neither scipy.linalg nor scipy.sparse
    assert rep["linalg"][:4] == [[]] * 4
    assert "scipy.sparse.linalg" in rep["linalg"][4]


def test_delay_commands_do_not_load_scipy_optimize(tmp_path):
    # connect solves the delay equation's growth rate by the package's own
    # bracketed solver; periodic and semiwave --proper (periodic to point)
    # need no root bracket
    rep = _startup_probe(tmp_path, [
        ["connect", "--tau", "5", "--eps", "0.01"],
        ["periodic", "--tau", "5"],
        ["semiwave", "--tau", "4.8124", "--c", "7", "--proper"]])
    assert rep["codes"] == [0, 0, 0]
    assert rep["at_import"] == []
    assert rep["loaded"] == []


def test_commands_but_front_load_neither_scipy_linalg_nor_sparse(tmp_path):
    # the six routines come from scipy's extension files (nlkpp.solver),
    # not through scipy.linalg's package init, and only the front's GMRES
    # needs scipy.sparse; a silent fallback to scipy.linalg fails here
    rep = _startup_probe(tmp_path, [
        ["roots", "--c", "2.5", "--tau", "5"],
        ["classify", "--c", "3"],
        ["connect", "--tau", "5", "--eps", "0.01"],
        ["periodic", "--tau", "5"],
        ["semiwave", "--tau", "4.8124", "--c", "7", "--proper"],
        ["simulate", "--T", "15"]])
    assert rep["codes"] == [0] * 6
    assert rep["linalg"] == [[]] * 7


def test_simulate_speed_json(tmp_path):
    code, out = run_cli(tmp_path, "simulate", "--T", "25", "--snap", "10")
    assert code == 0
    rep = load(out, "speed.json")
    assert rep["speed"] == pytest.approx(2.0, rel=0.06)
    assert rep["u_min"] >= -1e-12
    lines = (out / "snapshots.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * 2001


MIXED_KERNEL = {"atoms": [{"s": 1.0, "mass": 0.3}],
                "density": {"lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
                            "params": {"sigma": 0.5}}}


@pytest.mark.parametrize("kspec", [None, MIXED_KERNEL],
                         ids=["local", "atom+gaussian"])
def test_simulate_writes_the_measure_speed_report(tmp_path, kspec):
    # simulate is measure_speed at the config's settings, nothing more
    cfg = {"X": 200, "dx": 0.25, "init": {"params": {"front_at": 15}}}
    kernel = cli.dirac(0.0)
    if kspec is not None:
        cfg["kernel"] = kspec
        kernel = cli.from_config(kspec)[0]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    code, out = run_cli(tmp_path, "simulate", "--T", "15", "--snap", "5",
                        "--config", str(cfgp))
    assert code == 0
    rep = cli.pdesim.measure_speed(kernel, T=15.0, X=200.0, dx=0.25,
                                   front_at=15.0, snap=5.0)
    x, snaps = rep.pop("state").x, rep.pop("snapshots")
    assert load(out, "speed.json") == rep
    rows = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3 * x.size, 3)
    assert np.allclose(rows[:, 2], np.concatenate([u for _, u in snaps]),
                       rtol=1e-11, atol=1e-300)


def test_measure_speed_refuses_snapshot_rows_before_the_run(monkeypatch):
    # 500 snapshots of the default 2,001-point grid: 1,000,500 rows
    monkeypatch.setattr(cli.pdesim, "run", _no_call)
    with pytest.raises(DomainError, match="more than 1000000 snapshot rows"):
        cli.pdesim.measure_speed(T=50.0, snap=0.1)


def test_simulate_snapshots_at_the_row_limit(tmp_path, monkeypatch):
    # 499 snapshots of the default 2,001-point grid, 998,499 rows, are
    # within MAX_SNAPSHOT_ROWS: the run is asked for all of them
    asked = []

    def run(state, t_end, dt=None, snapshots_at=()):
        asked.extend(snapshots_at)
        raise NoConvergence("stopped after the size check")

    monkeypatch.setattr(cli.pdesim, "run", run)
    code, _ = run_cli(tmp_path, "simulate", "--T", "49.9", "--snap", "0.1")
    assert code == 2
    assert len(asked) * 2001 == 998499 <= cli.pdesim.MAX_SNAPSHOT_ROWS


def test_simulate_span_below_one_step_takes_one_step(tmp_path, capsys):
    # it took zero steps and divided by zero
    code, out = run_cli(tmp_path, "simulate", "--T", "1e-300")
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "numeric failure: only 1 front positions")


def test_simulate_negative_snap_is_config_error(tmp_path, capsys,
                                                monkeypatch):
    # it used to write an empty snapshots.csv and exit 0
    monkeypatch.setattr(cli.pdesim, "initial_state", _no_call)
    code, out = run_cli(tmp_path, "simulate", "--T", "5", "--snap", "-1")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: --snap must be >= 0")
    assert not (out / "snapshots.csv").exists()


def _simulate_with(tmp_path, cfg):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    return run_cli(tmp_path, "simulate", "--T", "5", "--config", str(cfgp))


@pytest.mark.parametrize("dt, msg", [
    (0, "dt must be > 0"), (-1, "dt must be > 0"),
    (float("inf"), "dt must be a finite number"),
    (float("nan"), "dt must be a finite number"),
    ("0.01", "dt must be a finite number"),
    (True, "dt must be a finite number"), (0.1, "ringing cap")],
    ids=["zero", "negative", "inf", "nan", "string", "bool", "10dx2"])
def test_simulate_bad_dt_is_config_error(tmp_path, capsys, monkeypatch,
                                         dt, msg):
    # refused before the grid is allocated
    def no_grid(*args, **kwargs):
        raise AssertionError("initial_state called")
    monkeypatch.setattr(cli.pdesim, "initial_state", no_grid)
    code, out = _simulate_with(tmp_path, {"dx": 0.1, "dt": dt})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and msg in err
    assert "Traceback" not in err
    assert not (out / "speed.json").exists()


def _no_call(*args, **kwargs):
    raise AssertionError("called past the config check")


def test_simulate_front_off_the_grid_is_config_error(tmp_path, capsys,
                                                     monkeypatch):
    # it used to run and exit 2 with "no recorded front positions"
    monkeypatch.setattr(cli.pdesim, "run", _no_call)
    cfg = {"init": {"params": {"front_at": 1000}}}
    code, out = _simulate_with(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: front_at 1000.0 is off the grid "
                          "[0, 400)")
    assert not (out / "speed.json").exists()


@pytest.mark.parametrize("argv, cfg, msg", [
    (["simulate"], {"dx": "0.2"}, "dx must be a finite number"),
    (["simulate"], {"dx": None}, "dx must be a finite number"),
    (["simulate"], {"dx": True}, "dx must be a finite number"),
    (["simulate"], {"X": "400"}, "X must be a finite number"),
    (["simulate"], {"X": 10 ** 400}, "X must be a finite number"),
    (["simulate"], {"init": {"params": {"front_at": "20"}}},
     "init.params.front_at must be a finite number"),
    (["simulate"], {"init": [1]}, "'init' must be a JSON object"),
    (["simulate"], [1, 2], "must hold a JSON object"),
    (["front", "--c", "2.5"], {"dt": "0.01"}, "dt must be a finite number"),
    (["front", "--c", "2.5"], {"tol": "1e-9"}, "tol must be a finite number"),
    (["front", "--c", "2.5"], {"tol": None}, "tol must be a finite number"),
    (["front", "--c", "2.5"], {"tol": 0}, "tol must be > 0"),
    (["front", "--c", "2.5"], {"tol": -1e-9}, "tol must be > 0"),
    (["front", "--c", "2.5"], {"beta": "3"}, "beta must be a finite number"),
    (["front", "--c", "2.5"], {"beta": False}, "beta must be a finite number"),
], ids=["dx-string", "dx-null", "dx-bool", "X-string", "X-huge-int",
        "front_at-string", "init-list", "config-list", "front-dt-string",
        "tol-string", "tol-null", "tol-zero", "tol-negative", "beta-string",
        "beta-bool"])
def test_bad_config_number_is_config_error(tmp_path, capsys, monkeypatch,
                                           argv, cfg, msg):
    # refused before the kernel is built, any solve runs or the grid is
    # allocated: a string tol used to fail only after a full sweep
    for owner, name in [(cli, "_kernel_from"), (cli.pdesim, "initial_state"),
                        (cli.profiles, "WaveContext"),
                        (cli.profiles, "solve_front")]:
        monkeypatch.setattr(owner, name, _no_call)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    code, out = run_cli(tmp_path, *argv, "--config", str(cfgp))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and msg in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("cfg, msg", [
    ({"beta": 0.5, "dt": 0.02}, "beta must be >= 1, got 0.5"),
    ({"beta": 0, "dt": 0.02}, "beta must be >= 1, got 0.0"),
    ({"beta": 1e308}, "beta = 1e+308 is too large: b = 2 beta + 3 overflows"),
], ids=["half", "zero", "overflow"])
def test_front_beta_out_of_range_is_config_error(tmp_path, capsys,
                                                 monkeypatch, cfg, msg):
    # g_beta is the identity only on [0, beta] and every front approaches 1;
    # refused before the kernel is built or any solve runs (beta 0.5 used to
    # exit 0 with residual 0.125, and beta 0 with "math domain error")
    for owner, name in [(cli, "_kernel_from"), (cli.profiles, "WaveContext"),
                        (cli.profiles, "solve_front")]:
        monkeypatch.setattr(owner, name, _no_call)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config", str(cfgp))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and msg in err
    assert not (out / "manifest.json").exists()


def test_front_above_beta_is_config_error(tmp_path, capsys):
    # the delayed-atom front overshoots 1 to phi_max = 1.857 > beta = 1.2,
    # where g_beta is no longer the identity: it used to exit 0 with
    # residual 0.663 against the paper's equation
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]},
                                "dt": 0.01, "beta": 1.2}))
    code, out = run_cli(tmp_path, "front", "--c", "2.5", "--config", str(cfgp))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: the front reaches phi_max = 1.857")
    assert "> beta = 1.2" in err and "raise beta" in err
    assert not (out / "front.json").exists()
    assert not (out / "manifest.json").exists()


def test_front_small_beta_at_speed_two(tmp_path):
    # beta = 2 is below the derived U(2, K) + 1 = 799 but above the front
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"beta": 2, "tol": 5e-5, "dt": 0.005}))
    code, out = run_cli(tmp_path, "front", "--c", "2", "--config", str(cfgp))
    assert code == 0
    rep = load(out, "front.json")
    assert rep["beta"] == 2.0 and rep["monotone"] is True
    assert rep["phi_max"] == pytest.approx(1.0, abs=1e-4)


class _NoNumpy:
    """Stands in for a module's numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used past the size check")


@pytest.mark.parametrize("argv, cfg, owner, name, msg", [
    (["region", "--aplus", "0.1", "--aminus", "0.2", "--grid-n",
      str(cli.regimes.MAX_REGION_GRID + 1)], None, cli.regimes, "np",
     "100 <= grid_n <= 1000, got (5.0, 1001)"),
    (["atlas", "--n", str(cli.ATLAS_MAX_N + 1)], None, cli, "np",
     "atlas --n must be <= 1000, got 1001"),
    (["simulate"], {"X": (cli.pdesim.MAX_SIM_NODES + 1) * 0.2},
     cli.pdesim, "np", "cells exceeds 1000000; raise dx or lower X"),
    (["simulate", "--T", str((cli.pdesim.MAX_SIM_STEPS + 1) * 0.05)], None,
     cli.pdesim, "initial_state", "takes more than 1000000 steps"),
    # 500 snapshots of the default 2,001-point grid: 1,000,500 rows
    (["simulate", "--T", "50", "--snap", "0.1"], None, cli.pdesim, "run",
     "--snap 0.1 at --T 50 writes more than 1000000 snapshot rows"),
    (["simulate", "--T", "40", "--snap", "1e-300"], None, cli.pdesim, "run",
     "writes more than 1000000 snapshot rows"),
], ids=["region-grid", "atlas-n", "simulate-nodes", "simulate-steps",
        "simulate-snapshots", "simulate-tiny-snap"])
def test_size_limit_is_config_error(tmp_path, capsys, monkeypatch, argv, cfg,
                                    owner, name, msg):
    # each size is refused before anything of that size is allocated
    monkeypatch.setattr(owner, name,
                        _NoNumpy() if name == "np" else _no_call)
    if cfg is not None:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(cfgp)]
    code, out = run_cli(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and msg in err
    assert not (out / "manifest.json").exists()


# one call of each command, with only the options it needs
_COMMANDS = {
    "roots": ["roots", "--c", "2.5"],
    "classify": ["classify", "--c", "2.5"],
    "region": ["region", "--aplus", "0.1", "--aminus", "0.2"],
    "front": ["front", "--c", "2.5"],
    "toy": ["toy"],
    "periodic": ["periodic", "--tau", "5"],
    "connect": ["connect", "--tau", "5"],
    "semiwave": ["semiwave", "--tau", "5", "--c", "7"],
    "simulate": ["simulate"],
    "atlas": ["atlas"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_seed_is_a_usage_error(tmp_path, capsys, command):
    # no command reads a seed: the data artifacts depend on nothing random
    code, out = run_cli(tmp_path, *_COMMANDS[command], "--seed", "0")
    assert code == 1
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["roots", "region", "toy", "periodic",
                                     "connect", "semiwave", "atlas"])
def test_config_on_a_command_without_one_is_a_usage_error(tmp_path, capsys,
                                                          command):
    # only classify, front and simulate read a config file
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text("{}")
    code, out = run_cli(tmp_path, *_COMMANDS[command], "--config", str(cfgp))
    assert code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_p2p_connection_reports_no_residual(tmp_path):
    # nothing measures the nonlocal residual of the forward run yet, so
    # connect.json must not report one
    code, out = run_cli(tmp_path, "connect", "--tau", "4.8124", "--eps",
                        "0.01", "--kind", "p2p")
    assert code == 0
    assert '"residual": null' in (out / "connect.json").read_text()
    # one rung, whose Newton residual and counts are null as well
    rep = load(out, "connect.json")
    assert rep["kind"] == "periodic-to-point"
    assert rep["rungs"] == [{"eps": 0.01, "residual": None,
                             "newton_steps": None}]
    assert len(rep["decay_fits"]) == 1


def test_simulate_positivity_violation_is_config_error(tmp_path, capsys):
    # dt = 1 is under the cap 5 dx^2 = 5 but over 0.5 / max|1 - K*u| = 0.5
    code, out = _simulate_with(tmp_path, {"dx": 1.0, "dt": 1.0})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: positivity violated")
    assert not (out / "speed.json").exists()


def test_manifest_written(tmp_path):
    code, out = run_cli(tmp_path, "toy")
    assert code == 0
    man = load(out, "manifest.json")
    assert man["command"] == "toy"
    assert set(man) == {"command", "config", "versions", "wall_time_s"}
    assert set(man["versions"]) == {"nlkpp", "numpy", "scipy", "python"}
    assert man["wall_time_s"] >= 0


def test_determinism_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "atlas", "--n", "6")
    _, out2 = run_cli(tmp_path / "b", "atlas", "--n", "6")
    for name in ("atlas.csv", "atlas.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_semiwave_proper_reports_where_it_stopped(tmp_path):
    code, out = run_cli(tmp_path, "semiwave", "--tau", "4.8124", "--c", "7",
                        "--proper")
    assert code == 0
    rep = load(out, "semiwave.json")
    assert rep["settle_time"] + 5 * 4.8124 <= rep["t_end"] < dde.P2P_T_MAX
    assert rep["decay_rate"] == pytest.approx(-2 / (1 + math.sqrt(1 - 4 / 49)),
                                              rel=0.05)
    # phi(t) = 1 - y(-t/c): the profile starts at t = -c t_end
    first = (out / "semiwave.csv").read_text().split("\n")[1]
    assert float(first.split(",")[0]) == pytest.approx(-7 * rep["t_end"])


def test_p2p_cap_is_numeric_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(dde, "P2P_T_MAX", 30.0)
    code, out = run_cli_quietly(tmp_path, "connect", "--tau",
                                str(dde.HOPF_TAU + 0.1), "--kind", "p2p")
    assert code == 2
    assert not (out / "manifest.json").exists()


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
    ["connect", "--tau", "500"],
    ["semiwave", "--tau", "500", "--c", "3"],
])
def test_diverging_connection_newton_is_numeric_failure(tmp_path, capsys,
                                                        argv):
    # the Newton iterates overflow before the sparse Jacobian turns singular
    # (on the eps = 0 rung at tau = 500)
    code, out = run_cli_quietly(tmp_path, *argv)
    assert code == 2
    assert "numeric failure: connection Newton diverged: residual not " \
        "finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, msg", [
    (["connect", "--tau", "0"], "need tau > 0"),
    (["semiwave", "--tau", "5", "--c", "1e-200"], "--c >= 2"),
    # below c = 2 the zero-to-one profile goes negative
    (["semiwave", "--tau", "2", "--c", "1"], "--c >= 2"),
    (["semiwave", "--tau", "2", "--c", "1.9"], "--c >= 2"),
    # c^2 overflows, so eps = 1/c^2 is 0: no finite wave speed
    (["semiwave", "--tau", "5", "--c", "1e200"], "no finite wave speed"),
    (["roots", "--tau", "1e-300"], "out of float range"),
    (["classify", "--c", "1e300"], "c^2 overflows"),
    (["front", "--c", "1e300"], "c^2 overflows"),
    (["periodic", "--tau", "5", "--eps", "-1"], "eps >= 0"),
    (["connect", "--tau", "5", "--eps", "-0.1"], "eps >= 0"),
    (["region", "--aplus", "-1", "--aminus", "0"], "nonnegative"),
    # size and range limits: the grid and the forward run are refused
    # before they are allocated, eps > 1/4 before any solve
    (["front", "--c", "711"], "front grid of 1.14e+07 steps exceeds"),
    (["connect", "--tau", "5", "--eps", "1e-12", "--kind", "p2p"],
     "steps, more than 10000000"),
    (["connect", "--tau", "5", "--eps", "0.3", "--kind", "p2p"],
     "eps <= 1/4"),
    (["semiwave", "--tau", "5", "--c", "1.9", "--proper"], "eps <= 1/4"),
    # numpy's own error for a negative sample count is not caught; --n 0
    # wrote an empty atlas
    (["atlas", "--n", "-1"], "atlas --n must be >= 1, got -1"),
    (["atlas", "--n", "0"], "atlas --n must be >= 1, got 0"),
    # refused before the connection is solved, not left to the root
    # solver's or numpy's own errors
    (["connect", "--tau", "1e-300"], "needs more than 200000 nodes"),
    (["semiwave", "--tau", "1e300", "--c", "7"],
     "growth rate at tau=1e+300 is below 1e-9"),
    # the snapshot times were built before the run refused the span
    (["simulate", "--T", "-1", "--snap", "1e-300"], "--T must be > 0"),
], ids=["connect-tau0", "semiwave-c-underflow", "semiwave-c1",
        "semiwave-c1.9", "semiwave-c-overflow", "roots-tiny-tau",
        "classify-huge-c", "front-huge-c", "periodic-neg-eps",
        "connect-neg-eps", "region-neg-intensity", "front-grid-limit",
        "p2p-step-limit", "p2p-eps-limit", "semiwave-p2p-eps-limit",
        "atlas-negative-n", "atlas-zero-n", "connect-tiny-tau",
        "semiwave-huge-tau", "simulate-negative-T"])
def test_out_of_range_input_is_config_error(tmp_path, capsys, argv, msg):
    code, out = run_cli_quietly(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and msg in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("c", ["711", "1e5", "1e20"])
def test_classify_large_speed_has_finite_report(tmp_path, c):
    # e^{c s} in the U2 radius overflowed from c = 711 on
    code, out = run_cli_quietly(tmp_path, "classify", "--c", c)
    assert code == 0
    rep = load(out, "classify.json")
    assert _all_finite(rep), rep
    assert rep["u_bound"] >= 1.0
    # the monotone-front root is about -1/c, not rounded to 0
    assert rep["fz_root"] * float(c) == pytest.approx(-1.0, rel=1e-5)


def test_connect_unknown_kind(tmp_path):
    # refused by the parser, before --out is created
    code, out = run_cli(tmp_path, "connect", "--tau", "5", "--kind", "spiral")
    assert code == 1
    assert not out.exists()


def test_connect_heteroclinic(tmp_path):
    code, out = run_cli(tmp_path, "connect", "--tau", "5", "--eps", "1e-3")
    assert code == 0
    rep = load(out, "connect.json")
    assert rep["eps_ladder"][0] == 0.0
    assert rep["eps_ladder"][-1] == pytest.approx(1e-3)
    for fit in rep["decay_fits"]:
        assert fit["decay_rate"] == pytest.approx(fit["target"], rel=0.05)
    # per rung: Newton's final residual and its integer step count
    assert [r["eps"] for r in rep["rungs"]] == rep["eps_ladder"]
    for rung in rep["rungs"]:
        assert set(rung) == {"eps", "residual", "newton_steps"}
        assert rung["residual"] < 1e-12
        assert type(rung["newton_steps"]) is int
        assert rung["newton_steps"] >= 1
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,y"
    y = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert y[0] == pytest.approx(0.0, abs=1e-3)
    assert y[-1] == pytest.approx(1.0, abs=1e-3)


def test_failed_rerun_leaves_no_manifest(tmp_path):
    code, out = run_cli(tmp_path, "classify", "--c", "2.5")
    assert code == 0 and (out / "manifest.json").exists()
    code, _ = run_cli(tmp_path, "classify", "--c", "2.5", "--config",
                      str(tmp_path / "no.json"))
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


# -- the failure types and their exit codes --------------------------------

_FAILURE_TYPES = {"DomainError": "ValueError", "NoConvergence": "RuntimeError",
                  "InvariantViolation": "NoConvergence"}


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else node.id


def _is_exception_name(name):
    obj = getattr(builtins, name, None)
    return ((isinstance(obj, type) and issubclass(obj, BaseException))
            or name in _FAILURE_TYPES or name.endswith(("Error", "Warning")))


def test_package_defines_and_raises_only_its_failure_types():
    defined, raised = set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    _is_exception_name(_base_name(b)) for b in node.bases):
                defined.add((path.name, node.name,
                             tuple(_base_name(b) for b in node.bases)))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add((path.name, ast.unparse(exc)))
    assert defined == {("__init__.py", name, (base,))
                       for name, base in _FAILURE_TYPES.items()}
    # argparse turns a type function's ArgumentTypeError into a usage
    # error inside parse_args, so it never reaches main's exit mapping
    others = {r for r in raised if r[1] not in _FAILURE_TYPES}
    assert others == {("cli.py", "argparse.ArgumentTypeError")}


@pytest.mark.parametrize("error, code, prefix", [
    (DomainError("outside the construction"), 1, "config error:"),
    (NoConvergence("did not converge"), 2, "numeric failure:"),
    (InvariantViolation("escaped its envelope"), 2, "numeric failure:"),
])
def test_main_maps_each_failure_type_to_its_exit_code(tmp_path, capsys,
                                                      monkeypatch, error,
                                                      code, prefix):
    def command(args, cfg, out):
        raise error
    monkeypatch.setitem(cli._DISPATCH, "toy", command)
    assert run_cli(tmp_path, "toy")[0] == code
    assert capsys.readouterr().err == f"{prefix} {error}\n"


@pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug"),
                                   RuntimeError("a bug")])
def test_main_lets_any_other_exception_propagate(tmp_path, monkeypatch,
                                                 error):
    # an internal bug shows as a traceback, not as a config error
    def command(args, cfg, out):
        raise error
    monkeypatch.setitem(cli._DISPATCH, "toy", command)
    with pytest.raises(type(error), match="a bug"):
        run_cli(tmp_path, "toy")
