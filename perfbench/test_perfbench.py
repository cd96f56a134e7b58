"""Self-tests of the benchmark: seeded inputs, output checks, the
determinism digest, and the span-to-metric mapping.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import importlib
import json
import math
import signal
import time
import types

import pytest

import checks
import speed
import tracing
import workloads
from nlkpp import cli, profiles

MODULES = {name: importlib.import_module(f"nlkpp.{name}")
           for name in tracing.MODULES}


def run_cli(tmp_path, name, argv, config=None):
    out = tmp_path / name
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    return cli.main(argv + ["--out", str(out)]), out


def rewrite_json(path, **changes):
    rep = json.loads(path.read_text())
    rep.update(changes)
    path.write_text(json.dumps(rep))


# -- seeds -----------------------------------------------------------------

def test_seed_zero_runs_the_reference_inputs():
    adv, dly, sim = workloads.build("atomic_fronts", 0)
    assert adv.argv == ["front", "--c", "2.5"]
    assert adv.config == {"kernel": {"atoms": [{"s": -0.5, "mass": 1.0}]}}
    assert dly.config["kernel"]["atoms"] == [{"s": 5.0, "mass": 1.0}]
    assert sim.argv == ["simulate", "--T", "80"]
    semi = workloads.build("delay_orbits", 0)[-1]
    assert semi.argv == ["semiwave", "--tau", "4.8124", "--c", "7.0",
                         "--proper"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seeds_jitter_reproducibly_within_range(workload):
    ref = workloads.build(workload, 0)
    for seed in range(1, 200):
        invs = workloads.build(workload, seed)
        assert invs == workloads.build(workload, seed)
        for inv, base in zip(invs, ref):
            opts = dict(zip(inv.argv[1::2], inv.argv[2::2]))
            base_opts = dict(zip(base.argv[1::2], base.argv[2::2]))
            for key in ("--c", "--tau"):
                if key in opts:
                    rel = float(opts[key]) / float(base_opts[key]) - 1.0
                    assert 0 < abs(rel) <= 0.01
                    if workload == "nonlocal_mixed":
                        assert rel > 0
            if "--c" in opts:
                assert float(opts["--c"]) > 2.0
            if inv.command in ("periodic", "semiwave"):
                assert float(opts["--tau"]) > 1.5 * math.pi


# -- output checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def local_front(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("front")
    inv = workloads.Invocation(
        "front", ["front", "--c", "3"],
        {"kernel": {"atoms": [{"s": 0.0, "mass": 1.0}]}, "dt": 0.02},
        {"kind": "front", "residual_max": 1e-3, "monotone": True})
    checks.prepare([inv])
    rc, out = run_cli(tmp, "front", inv.argv, inv.config)
    return rc, out, inv.check


def test_front_check_accepts_a_real_front(local_front):
    rc, out, spec = local_front
    assert checks.check(out, rc, spec) == []
    assert checks.check(out, 2, spec) == ["exit code 2"]


def test_front_check_rejects_a_large_residual(local_front, tmp_path):
    _, out, spec = local_front
    bad = tmp_path / "bad"
    bad.mkdir()
    for p in out.iterdir():
        (bad / p.name).write_bytes(p.read_bytes())
    rewrite_json(bad / "front.json", residual=2e-3)
    errs = checks.check(bad, 0, spec)
    assert len(errs) == 1 and errs[0].startswith("residual")


def test_front_check_rejects_a_non_monotone_or_unbounded_front(
        local_front, tmp_path):
    _, out, spec = local_front
    lines = (out / "front.csv").read_text().splitlines()
    t, _ = lines[-1].split(",")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "front.json").write_bytes((out / "front.json").read_bytes())
    (bad / "front.csv").write_text(
        "\n".join(lines[:-1] + [f"{t},{spec['u_bound'] * 2}", ""]))
    errs = checks.check(bad, 0, spec)
    assert any("leaves (0, U" in e for e in errs)
    (bad / "front.csv").write_text("\n".join(lines[:-1] + [f"{t},0.5", ""]))
    errs = checks.check(bad, 0, spec)
    assert any("monotone" in e for e in errs)


def test_simulate_check_rejects_a_wrong_speed(tmp_path):
    rc, out = run_cli(tmp_path, "sim", ["simulate", "--T", "40"])
    spec = {"kind": "simulate", "speed": 2.0, "speed_rtol": 0.05}
    assert checks.check(out, rc, spec) == []
    rewrite_json(out / "speed.json", speed=2.2)
    errs = checks.check(out, rc, spec)
    assert len(errs) == 1 and errs[0].startswith("speed 2.2")


GOOD = {
    "connect": ("connect.json", {"eps": 0.01}, {
        "residual": 1e-14, "eps_ladder": [0.0, 0.01],
        "decay_fits": [{"eps": 0.0, "decay_rate": 0.265, "target": 0.2653},
                       {"eps": 0.01, "decay_rate": 0.265, "target": 0.2650}]},
        [{"residual": 1e-5}, {"eps_ladder": [0.0, 0.008]},
         {"decay_fits": [{"eps": 0.0, "decay_rate": 0.3, "target": 0.2653}]}]),
    "periodic": ("orbit.json", {}, {
        "residual": 1e-13, "multipliers": [6.07, 0.9998, 0.86, 0.3],
        "adjoint_pairing": 1.0},
        [{"residual": 1e-8}, {"multipliers": [6.07, 1.2, 0.9998]},
         {"multipliers": [6.07, 0.86]}, {"adjoint_pairing": 1.001}]),
    "semiwave": ("semiwave.json", {"c": 7.0}, {"tail_period": 45.03},
                 [{"tail_period": 50.0}]),
    "roots": ("roots.json", {}, {"census": {
        "count": 1, "converged": True, "roots": [{"re": 0.5, "im": 0.0}]}},
        [{"census": {"count": 2, "converged": True,
                     "roots": [{"re": 0.5, "im": 0.0}]}},
         {"census": {"count": 1, "converged": False,
                     "roots": [{"re": 0.5, "im": 0.0}]}}]),
    "classify": ("classify.json", {}, {"semi_wavefront_exists": True},
                 [{"semi_wavefront_exists": False}]),
}


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_report_checks_reject_each_corruption(kind, tmp_path):
    name, spec, good, corruptions = GOOD[kind]
    spec = dict(spec, kind=kind)
    (tmp_path / name).write_text(json.dumps(good))
    assert checks.check(tmp_path, 0, spec) == []
    for change in corruptions:
        (tmp_path / name).write_text(json.dumps(dict(good, **change)))
        assert checks.check(tmp_path, 0, spec), change
    (tmp_path / name).write_text("{")
    assert checks.check(tmp_path, 0, spec)[0].startswith("unreadable")


def test_digest_sees_a_changed_byte_and_ignores_the_manifest(local_front,
                                                              tmp_path):
    _, out, _ = local_front
    for p in out.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    ref = checks.artifact_digest(tmp_path)
    assert "manifest.json" not in ref and "front.csv" in ref
    (tmp_path / "manifest.json").write_text("{}")
    assert checks.artifact_digest(tmp_path) == ref
    data = bytearray((tmp_path / "front.csv").read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    (tmp_path / "front.csv").write_bytes(bytes(data))
    assert checks.artifact_digest(tmp_path)["front.csv"] != ref["front.csv"]


# -- tracing ---------------------------------------------------------------

def test_layer_self_times_account_for_the_command(tmp_path):
    originals = dict(vars(profiles))
    originals_cli = dict(vars(cli))
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        assert "profiles._fast_conv" in tracer.wrapped
        assert "dde.spsolve" in tracer.wrapped
        assert cli._DISPATCH["roots"] is cli.cmd_roots
        assert cli.cmd_roots.__wrapped__ is originals_cli["cmd_roots"]
        with tracer.command("roots"):
            rc, _ = run_cli(tmp_path, "roots",
                            ["roots", "--c", "2.5", "--tau", "5"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert vars(profiles) == originals
    spans = tracer.take()
    row = tracing.by_command(spans)["roots"]
    assert row["spectral"] > 0
    assert sum(row[k] for k in tracing.MODULES) == pytest.approx(
        row["wall_s"], rel=1e-9)


def test_tracing_leaves_artifacts_unchanged(tmp_path):
    argv = ["front", "--c", "3"]
    config = {"kernel": {"atoms": [{"s": -0.2, "mass": 1.0}]}, "dt": 0.02}
    _, plain = run_cli(tmp_path, "plain", argv, config)
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        with tracer.command("front"):
            _, traced = run_cli(tmp_path, "traced", argv, config)
    finally:
        tracer.uninstall()
    assert checks.artifact_digest(plain) == checks.artifact_digest(traced)
    m = tracing.layer_metrics(tracer.take())
    assert m["profiles.grid_points"] == (
        (traced / "front.csv").read_text().count("\n") - 1)
    assert m["profiles.picard_iters"] > 0 and m["kernels.conv_calls"] > 0
    assert 0 < m["profiles.operator_s"] < m["profiles.sweep_ms"] * 1e-3 * \
        m["profiles.picard_iters"]


def test_missing_wrapped_names_are_skipped():
    fake = types.ModuleType("nlkpp.fake")

    def solve_front(x):
        return x

    solve_front.__module__ = fake.__name__
    fake.solve_front = solve_front
    tracer = tracing.Tracer({"profiles": fake})
    tracer.install()
    try:
        assert tracer.wrapped == ["profiles.solve_front"]
        with tracer.command("front"):
            assert fake.solve_front(3) == 3
    finally:
        tracer.uninstall()
    assert fake.solve_front is solve_front
    spans = tracer.take()
    assert [s[0] for s in spans] == ["cli.main", "profiles.solve_front"]
    m = tracing.layer_metrics(spans)
    assert m["kernels.conv_calls"] == 0 and m["profiles.sweep_ms"] == 0.0
    assert m["profiles.picard_iters"] == 0
    assert tracing.layer_metrics([]).keys() == m.keys()


# -- speed probe -----------------------------------------------------------

def test_rescale_subtracts_probe_time_and_scales_by_speed():
    slow = [2 * speed.REF_S] * 10
    assert speed.rescale(1.0, slow, [0.001] * 10) == pytest.approx(0.495)
    assert speed.rescale(1.0, [], []) == 1.0


def test_probe_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) == before
    assert probe.mark() - mark >= 5
    assert 0 < probe.rescale(wall, mark)
