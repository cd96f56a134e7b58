"""End-to-end checks of every CLI command and example script, each row in
a fresh interpreter (`python -m nlkpp.cli ... --out <tmp>`).

These rows are the package's checks on the dependency floors as well:
both CI jobs run this module, the floors job (numpy 2.0, scipy 1.13,
Python 3.10) with pytest alone, so it imports only the standard library,
pytest, numpy and nlkpp.  Run it alone with
`PYTHONPATH=src python -m pytest -q tests/test_smoke.py`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from nlkpp import cli

SRC = Path(cli.__file__).resolve().parents[1]
REPO = Path(__file__).resolve().parents[1]
PREFIX = {1: "config error:", 2: "numeric failure:"}

MIXED = {"kernel": {"atoms": [{"s": 1.0, "mass": 0.3}], "density": {
    "lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
    "params": {"sigma": 0.5}}}}


def atom(s, dt, **extra):
    """A front config on the one-atom kernel delta(t - s)."""
    return {"kernel": {"atoms": [{"s": s, "mass": 1.0}]}, "dt": dt, **extra}


class Run(NamedTuple):
    out: Path
    stderr: str

    def json(self, name):
        return json.loads((self.out / name).read_text())


class Row(NamedTuple):
    id: str
    argv: tuple  # a CLI command's, or a path under scripts/ and its own
    config: dict = None
    code: int = 0
    check: Callable[[Run], None] = None
    timeout: float = 300.0
    flags: tuple = ()  # the interpreter's options


def simulate_speed(run):
    r = run.json("speed.json")
    assert (abs(r["speed"] / 2.0 - 1.0) <= 0.05 and r["u_min"] >= 0.0
            and r["u_max"] <= 1.0 + 1e-9 and r["dt_halvings"] == 0), r


def wake_halves_default_step(run):
    # behind the front of delta(s - 5) K*u reaches about 10, so the default
    # step 0.05 breaks 0.5 / max|1 - K*u| midway and halves once; a record
    # every 0.5 to T 80 all the same
    r = run.json("speed.json")
    assert (1.95 <= r["speed"] <= 2.02 and r["n_records"] == 161
            and r["u_min"] >= 0.0 and r["dt"] == 0.025
            and r["dt_halvings"] == 1), r


def positivity_violated(run):
    assert run.stderr.startswith("config error: positivity violated: "
                                 "dt = 0.05 > 0.5/max|1 - K*u|"), run.stderr


def imported(run):
    """The modules a row's interpreter imported (-X importtime logs each)."""
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in run.stderr.splitlines()
              if line.startswith("import time:")}
    assert "nlkpp.solver" in loaded, run.stderr[-2000:]
    return loaded


def loads_neither_signal_nor_interpolate(run):
    # the operator's two recurrences are two dtbsv solves, so the front
    # loads no scipy.signal, and no solver evaluates a profile, so it
    # loads no scipy.interpolate
    loaded = imported(run)
    assert "scipy.signal" not in loaded
    assert "scipy.interpolate" not in loaded


def loads_no_scipy_linalg(run):
    # the six BLAS/LAPACK routines come from scipy's extension files, so a
    # solver command without a front runs no scipy.linalg package init and
    # loads no scipy.sparse; a silent fallback to scipy.linalg fails here
    loaded = imported(run)
    assert "scipy.linalg" not in loaded
    assert "scipy.sparse" not in loaded


def newton_rises_and_converges(run):
    # on delta(s - 5) at c 2.05 the first Newton-Krylov step raises max|G|
    r = run.json("front.json")
    assert (r["newton_steps"] <= 20 and r["monotone"] is False
            and r["residual"] < 2.5e-3), r


def forcing_terms_fit(run):
    # on delta(s - 6) at dt 0.01 Newton step 1 needs 250 GMRES iterations
    # at a fixed rtol of 1e-6, over the budget of 200; solved to its
    # forcing term it fits
    r = run.json("front.json")
    assert (r["newton_steps"] <= 6 and r["gmres_iters"] <= 400
            and r["residual"] < 1e-3 and r["monotone"] is False), r


def rungs_converged(run):
    rungs = run.json("connect.json")["rungs"]
    assert rungs and all(r["residual"] < 1e-12 for r in rungs), rungs


def newton_ladder(run):
    # one block-triangular linearization per Newton step: four steps from
    # the logistic start, two on each warm-started eps rung; and no
    # scipy.linalg package init on the way
    rungs_converged(run)
    c = run.json("connect.json")
    got = (c["eps_ladder"], [r["newton_steps"] for r in c["rungs"]])
    assert got == ([0, 0.001, 0.002, 0.004, 0.008, 0.01],
                   [4, 2, 2, 2, 2, 2]), got
    loads_no_scipy_linalg(run)


def periodic_to_point(run):
    # one rung, no Newton residual, and the approach rate to 1 at its
    # linearized target
    r = run.json("connect.json")
    assert r["residual"] is None and r["eps_ladder"] == [0.02], r
    (f,) = r["decay_fits"]
    assert abs(f["decay_rate"] / f["target"] - 1) < 0.05, f


def toy_residuals(run):
    # phi1's defect on the lag window is 1/12, and every front solves the
    # equation outside it
    r = run.json("toy.json")
    d = [r[f"phi{i}_diagnostics"] for i in (1, 2, 3)]
    assert abs(d[0]["residual_window_sup"] - 1 / 12) < 1e-6, d[0]
    assert all(x["residual_outside_window"] < 1e-10 for x in d), d


def region_band(run):
    # (1, 1) is feasible, and the default 400 x 400 grid writes one row
    # per point
    r = run.json("region.json")
    assert r["p_min"] <= 1 <= r["P_max"], r
    assert (run.out / "region.csv").read_bytes().count(b"\n") == 160001


def atlas_cases(run):
    r = run.json("atlas.json")
    assert sum(r["cases"].values()) == 25, r


def orbit_spectrum(run):
    # one unstable and one trivial Floquet multiplier; the pairing
    # re-evaluates the adjoint's normalization, so it is 1 to rounding
    # whenever the adjoint exists
    r = run.json("orbit.json")
    m = r["multipliers"]
    assert (sum(x > 1 + 1e-3 for x in m) == 1
            and sum(abs(x - 1) < 1e-2 for x in m) == 1), m
    assert abs(r["adjoint_pairing"] - 1) < 1e-6, r["adjoint_pairing"]


def gallery_csvs(run):
    # the script writes through cli.write_csv: a `t,phi` header, and every
    # value as %.12g writes it
    for name in ("local_c3", "advanced_c2.5", "delayed_c2.5"):
        head, *rows = (run.out / f"{name}.csv").read_text().splitlines()
        cells = [c for row in rows for c in row.split(",")]
        assert head == "t,phi" and len(cells) == 2 * len(rows) > 1000, name
        assert all("%.12g" % float(c) == c for c in cells), name


def settled_semiwave(run):
    # the approach rate to 1 near its linearized target, and at least
    # P2P_SETTLE_DELAYS delays run after settling
    r = run.json("semiwave.json")
    assert (-1.1 < r["decay_rate"] < -0.95
            and r["t_end"] >= r["settle_time"] + 5 * r["tau"]), r


ROWS = [
    Row("roots", ("roots", "--c", "2.5", "--tau", "5", "--eps", "0.01"),
        check=loads_no_scipy_linalg, flags=("-X", "importtime")),
    # the PDE cross-check with its default (IMEX) stepper
    Row("simulate", ("simulate", "--T", "20"), check=simulate_speed),
    # with no dt the run keeps the positivity bound by itself; a given dt
    # that breaks it is the user's, a config error
    Row("simulate-delayed", ("simulate", "--T", "80"),
        {"kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]}, "dx": 0.1},
        check=wake_halves_default_step),
    Row("simulate-delayed-dt0.05", ("simulate", "--T", "80"),
        atom(5.0, 0.05, dx=0.1), code=1, check=positivity_violated),
    # the quadrature against K (U(c, K), alpha+-, the monotone-front root)
    # on the asymmetric atom+gaussian kernel, and on the local kernel
    Row("classify-mixed", ("classify", "--c", "3"), MIXED),
    Row("classify-local", ("classify", "--c", "3")),
    # Newton-Krylov from the advanced atom's monotone start
    Row("front-advanced", ("front", "--c", "2.5"), atom(-0.5, 0.01)),
    # the delayed atom fails the monotone criterion, so Newton-Krylov
    # starts from a coarse Picard front on the start's beta ladder
    Row("front-delayed-dt0.005", ("front", "--c", "2.5"), atom(5.0, 0.005)),
    Row("front-delayed", ("front", "--c", "2.5"), atom(5.0, 0.02),
        check=loads_neither_signal_nor_interpolate,
        flags=("-X", "importtime")),
    Row("front-c2.05", ("front", "--c", "2.05"), atom(5.0, 0.01),
        check=newton_rises_and_converges),
    Row("front-delta6", ("front", "--c", "2.5"), atom(6.0, 0.01),
        check=forcing_terms_fit),
    # the start at beta 4 escapes its envelope at step 2 dt and at step dt
    Row("front-delta8", ("front", "--c", "2.5"), atom(8.0, 0.02), code=2),
    # U(c, K) of delta(s + 1e5) overflows, and a configured beta does not
    # skip the one U/beta/b rule, so front exits at once
    Row("front-far-advanced", ("front", "--c", "2.5"),
        atom(-1e5, 1, beta=10), code=1, timeout=20),
    Row("atlas-negative-n", ("atlas", "--n", "-1"), code=1),
    # the target eps's mesh is refused before the eps ladder climbs
    Row("connect-mesh-cap", ("connect", "--tau", "5", "--eps", "1e6"),
        code=1, timeout=60),
    Row("connect", ("connect", "--tau", "5", "--eps", "0.01"),
        check=newton_ladder, flags=("-X", "importtime")),
    # the left end of the mesh sits where y ~ 1e-25, and the node-order
    # block solve (kappa's border last) still converges there
    Row("connect-tau45", ("connect", "--tau", "45", "--eps", "0"),
        check=rungs_converged),
    Row("connect-p2p",
        ("connect", "--tau", "5", "--eps", "0.02", "--kind", "p2p"),
        check=periodic_to_point),
    Row("toy", ("toy",), check=toy_residuals),
    Row("region", ("region", "--aplus", "0.1", "--aminus", "0.2"),
        check=region_band),
    Row("atlas", ("atlas", "--n", "5"), check=atlas_cases),
    Row("periodic", ("periodic", "--tau", "5"), check=orbit_spectrum),
    # the periodic-to-point path (the Floquet period map and the forward
    # run's prefix scans), stopped once settled at 1
    Row("semiwave-proper",
        ("semiwave", "--tau", "4.8124", "--c", "7", "--proper"),
        check=settled_semiwave),
    Row("semiwave", ("semiwave", "--tau", "5", "--c", "3")),
    # eps = 1/c^2 rounds to 0: no finite wave
    Row("semiwave-huge-c", ("semiwave", "--tau", "5", "--c", "1e200"),
        code=1, timeout=60),
    # the example scripts with their defaults call the package API by name
    Row("connection_ladder", ("scripts/connection_ladder.py",)),
    Row("orbit_spectrum", ("scripts/orbit_spectrum.py",)),
    Row("speed_refinement", ("scripts/speed_refinement.py",)),
    Row("front_gallery", ("scripts/front_gallery.py", "--out", "out"),
        check=gallery_csvs),
]


def assert_exit(proc, code):
    """The exit code; a failure's first stderr line is its error prefix,
    and no exit shows a traceback."""
    assert proc.returncode == code, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    if code:
        assert proc.stderr.startswith(PREFIX[code]), proc.stderr


@pytest.mark.parametrize("row", ROWS, ids=[r.id for r in ROWS])
def test_row(row, tmp_path):
    out = tmp_path / "out"
    if row.argv[0].startswith("scripts/"):
        argv = [str(REPO / row.argv[0]), *row.argv[1:]]
    else:
        argv = ["-m", "nlkpp.cli", *row.argv, "--out", str(out)]
        if row.config is not None:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(row.config))
            argv += ["--config", str(cfg)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *row.flags, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=row.timeout)
    assert_exit(proc, row.code)
    if row.check is not None:
        row.check(Run(out, proc.stderr))


def test_every_command_and_script_has_a_row():
    firsts = {row.argv[0] for row in ROWS}
    scripts = {f"scripts/{p.name}" for p in (REPO / "scripts").glob("*.py")}
    assert set(cli._DISPATCH) | scripts <= firsts


def test_write_csv_is_percent_formatting(tmp_path):
    # the CSV writer's uint64 views, np.ldexp, the ufuncs' out= and take's
    # mode="clip": a seeded table of edge values and 200,000 random bit
    # patterns, byte for byte against '%.12g' % value by value
    near = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                           [float(f"1e{k}") for k in range(-323, 309)]])
    edge = np.concatenate([
        [0.0, -0.0, 999999999999.5, 999999999999.7, 9.99999999999995e-05,
         123456789012.5, 2.0 ** 53 + 2, np.inf, -np.inf, np.nan],
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        [float(f"{m}5e{k}") for k in range(-330, 300, 7)
         for m in (123456789012, 999999999999)]])
    bits = np.random.default_rng(0).integers(0, 2 ** 64, 200000,
                                             dtype=np.uint64)
    x = np.concatenate([edge, bits.view(np.float64)])
    cols = [x, x[::-1].copy()]
    path = tmp_path / "x.csv"
    cli.write_csv(path, ["a", "b"], cols)
    want = "a,b\n" + "".join("%.12g,%.12g\n" % row
                             for row in zip(*(c.tolist() for c in cols)))
    assert path.read_bytes() == want.encode(), "write_csv is not %.12g"
