"""The solver core's loader of scipy's BLAS/LAPACK extension files, checked
in fresh interpreters.

Under pytest `scipy.linalg` is loaded before any test runs (the
`filterwarnings` entry of pyproject.toml imports `scipy.sparse.linalg`), so
in-process `nlkpp.solver` only ever takes the registered modules.  These
tests start fresh interpreters for the other two paths: loading the files
by path, and the fallback to `scipy.linalg.blas`/`lapack` when no file is
found, forced by emptying `importlib.machinery.EXTENSION_SUFFIXES` around
the package import.  The module also holds the guard on which package
modules a bare import of each loads, the package's GMRES checked against
scipy's `gmres` as its oracle, and a front that writes the same bytes at
one and two BLAS threads.  Like tests/test_smoke.py, it needs pytest alone
(no hypothesis), so the floors CI job (scipy 1.13) runs it too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from nlkpp import NoConvergence, kernels, profiles, solver

SRC = Path(solver.__file__).resolve().parents[1]

# argv[1] is "file" or "fallback"; a fallback finds no extension file
PRELUDE = """\
import importlib.machinery, json, sys
suffixes = importlib.machinery.EXTENSION_SUFFIXES
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = []
import nlkpp.cli
from nlkpp import solver
importlib.machinery.EXTENSION_SUFFIXES = suffixes
linalg_loaded = "scipy.linalg" in sys.modules
"""

# the six routines as the package calls them: Fortran-ordered bands,
# in-place right-hand sides, dde's positional offsets
ROUTINES = PRELUDE + """\
import numpy as np
rng = np.random.default_rng(0)
n = 40
x, y = rng.standard_normal(n), rng.standard_normal(n)
band = np.asfortranarray(rng.uniform(-0.5, 0.5, (2, n)))
wide = np.asfortranarray(rng.uniform(-0.3, 0.3, (4, n)))
dl, d, du = rng.standard_normal(n - 1), 4 + rng.random(n), \\
    rng.standard_normal(n - 1)
gt = solver.dgttrf(dl, d, du)
pt = solver.dpttrf(2 + rng.random(n), rng.uniform(-0.5, 0.5, n - 1))
out = {
    "dtbsv-lower": solver.dtbsv(1, band, x.copy(), lower=1, diag=1,
                                overwrite_x=1),
    "dtbsv-upper": solver.dtbsv(1, band, x.copy(), diag=1, overwrite_x=1),
    "dtbsv-offset": solver.dtbsv(3, wide[:, 5:25], x.copy(), 1, 5, 1, 0, 1,
                                 1),
    "dgbmv": solver.dgbmv(10, 12, 1, 2, -1.0, wide[:, 8:20], x, 1, 3, 1.0,
                          y.copy(), 1, 20, 0, 1),
    "dgttrf": gt,
    "dgttrs": solver.dgttrs(*gt[:5], y[:, None].copy(), overwrite_b=1),
    "dpttrf": pt,
    "dpttrs": solver.dpttrs(*pt[:2], y.copy(), overwrite_b=1),
}
bits = {k: [np.asarray(a).tobytes().hex()
            for a in (v if isinstance(v, tuple) else (v,))]
        for k, v in out.items()}
print(json.dumps({"linalg_loaded": linalg_loaded, "bits": bits}))
"""

CONNECT = PRELUDE + """\
sys.exit(nlkpp.cli.main(["connect", "--tau", "5", "--eps", "0.01",
                         "--out", sys.argv[2]]))
"""

ONE_COPY = PRELUDE + """\
import scipy.linalg
print(json.dumps({"linalg_loaded": linalg_loaded,
                  "fblas": scipy.linalg.blas._fblas is solver._fblas,
                  "flapack": scipy.linalg.lapack._flapack is solver._flapack}))
"""

# the package modules a bare import of argv[1] loads besides itself
MODULE_GRAPH = """\
import importlib, json, sys
importlib.import_module("nlkpp." + sys.argv[1])
print(json.dumps(sorted(name.split(".", 1)[1] for name in sys.modules
                        if name.startswith("nlkpp.")
                        and name != "nlkpp." + sys.argv[1])))
"""


def _env(**extra):
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _child(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_file_and_fallback_routines_agree_bitwise():
    file, fallback = (json.loads(_child(ROUTINES, path))
                      for path in ("file", "fallback"))
    assert not file["linalg_loaded"] and fallback["linalg_loaded"]
    assert file["bits"] == fallback["bits"]
    # info == 0: the factorizations succeeded
    for name in ("dgttrf", "dpttrf"):
        assert int(file["bits"][name][-1], 16) == 0, name


def test_connect_writes_the_same_bytes_under_the_fallback(tmp_path):
    outs = {path: tmp_path / path for path in ("file", "fallback")}
    for path, out in outs.items():
        _child(CONNECT, path, str(out))
    for name in ("trajectory.csv", "connect.json"):
        assert ((outs["file"] / name).read_bytes()
                == (outs["fallback"] / name).read_bytes()), name


def test_one_copy_of_each_extension_per_process():
    # the package's modules are the ones a later `import scipy.linalg` uses
    rep = json.loads(_child(ONE_COPY, "file"))
    assert rep == {"linalg_loaded": False, "fblas": True, "flapack": True}


def test_registered_modules_are_taken_from_sys_modules():
    # in-process, scipy.linalg was loaded first: its modules, not new copies
    assert solver._fblas is scipy.linalg.blas._fblas
    assert solver._flapack is scipy.linalg.lapack._flapack
    assert solver._fblas is sys.modules["scipy.linalg._fblas"]


# the package modules each module's bare import loads besides itself: the
# delay-equation side (dde) and the PDE (pdesim) load none of the front
# solver (profiles, regimes); only cli, which is every command, loads all
LOADS = {
    "kernels": [],
    "solver": [],
    "spectral": ["kernels"],
    "regimes": ["kernels", "spectral"],
    "profiles": ["kernels", "regimes", "solver", "spectral"],
    "dde": ["kernels", "solver", "spectral"],
    "pdesim": ["kernels", "solver"],
}


@pytest.mark.parametrize("module", LOADS)
def test_bare_import_loads_only_its_package_dependencies(module):
    assert json.loads(_child(MODULE_GRAPH, module)) == LOADS[module]


def test_the_import_guard_covers_every_module_but_cli():
    modules = {p.stem for p in (SRC / "nlkpp").glob("*.py")}
    assert set(LOADS) == modules - {"__init__", "cli"}


# -- GMRES, with scipy's gmres as the oracle --------------------------------

def _banded_system(n, seed, dominance=1.05, band=3):
    """A random nonsymmetric band matrix, diagonally dominant by the factor
    `dominance` with diagonal entries of either sign, and a right-hand
    side.  Jacobi-preconditioned GMRES needs restarts on it at rtol 1e-6."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= abs(np.subtract.outer(np.arange(n), np.arange(n))) <= band
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, dominance * abs(a).sum(1)
                     * rng.choice([-1.0, 1.0], n))
    return a, rng.standard_normal(n)


def _both(matvec, psolve, b, rtol, restart, cycles):
    """(x, converged, trace) from the package's gmres and from scipy's."""
    ours = []
    x, converged = solver.gmres(matvec, psolve, b, rtol, restart, cycles,
                                ours)
    op = lambda f: LinearOperator((b.size,) * 2, matvec=f, dtype=float)
    theirs = []
    y, info = scipy_gmres(op(matvec), b, rtol=rtol, atol=0.0,
                          M=op(psolve), restart=restart, maxiter=cycles,
                          callback=theirs.append, callback_type="pr_norm")
    return (x, converged, ours), (y, info == 0, theirs)


def _close(x, y, rel):
    return np.max(np.abs(x - y)) <= rel * np.max(np.abs(y))


@pytest.mark.parametrize("rtol", [1e-2, 1e-6])
@pytest.mark.parametrize("n", [50, 100, 200, 400])
def test_gmres_matches_scipy(n, rtol):
    # step for step: the same inner iterations (6-9 at rtol 1e-2, and
    # 18-20 over two restart cycles at 1e-6), the same residual trace and
    # the same solution but for rounding, since the inner products are
    # pairwise sums here and BLAS dot products in scipy
    a, b = _banded_system(n, seed=n)
    jacobi = 1.0 / np.diag(a)
    (x, ok, trace), (y, scipy_ok, scipy_trace) = _both(
        lambda u: a @ u, lambda r: jacobi * r, b, rtol, 10, 20)
    assert ok and scipy_ok
    assert len(trace) == len(scipy_trace) > 1
    assert _close(np.array(trace), np.array(scipy_trace), 1e-9)
    assert _close(x, y, 1e-12)
    assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)


def test_gmres_stops_at_a_breakdown():
    # b = e_0 lies in the invariant subspace of the first three
    # coordinates, on which A = I + P (P the cyclic shift): the third
    # Krylov vector orthogonalizes to exactly zero, and both stop there
    n = 200
    a, _ = _banded_system(n, seed=1)
    a[:3, :], a[:, :3] = 0.0, 0.0
    a[:3, :3] = np.eye(3) + np.roll(np.eye(3), 1, axis=0)
    b = np.zeros(n)
    b[0] = 1.0
    jacobi = 1.0 / np.diag(a)
    (x, ok, trace), (y, scipy_ok, scipy_trace) = _both(
        lambda u: a @ u, lambda r: jacobi * r, b, 1e-6, 10, 20)
    assert ok and scipy_ok
    assert len(trace) == len(scipy_trace) == 3
    assert _close(x, y, 1e-12)
    assert _close(x[:3], np.array([0.5, -0.5, 0.5]), 1e-12)
    assert not x[3:].any()


def test_gmres_reports_an_exhausted_budget():
    # one cycle of restart 2 does not reach rtol 1e-6: not converged, where
    # scipy returns info > 0, after the same two inner iterations
    a, b = _banded_system(100, seed=2)
    jacobi = 1.0 / np.diag(a)
    (x, ok, trace), (y, scipy_ok, scipy_trace) = _both(
        lambda u: a @ u, lambda r: jacobi * r, b, 1e-6, 2, 1)
    assert not ok and not scipy_ok
    assert len(trace) == len(scipy_trace) == 2
    assert _close(x, y, 1e-12)


@pytest.mark.parametrize("rtol", [profiles.GMRES_ETA_MAX,
                                  profiles.GMRES_RTOL])
def test_gmres_matches_scipy_on_the_front_system(monkeypatch, rtol):
    # the first Newton-Krylov step of delta(s - 5) at c 2.5, dt 0.02 from
    # its Picard start, through _FrontSystem.linearize's two closures: 17
    # inner iterations at the first step's forcing term and 40 at the floor
    starts = []

    def start(ctx, v, h, tol, monotone):
        starts.append((ctx, v, h))
        raise NoConvergence("start taken")

    monkeypatch.setattr(profiles, "_newton_front", start)
    ctx = profiles.WaveContext(2.5, kernels.dirac(5.0))
    with pytest.raises(NoConvergence, match="start taken"):
        profiles.solve_front(ctx, dt=0.02)
    ctx, v, h = starts[0]
    i0 = int(np.argmax(v >= 0.5))
    system = profiles._FrontSystem(ctx, h, v.size)
    x = v.copy()
    x[i0] = 0.0  # sigma
    G, _ = system.equations(x, i0)
    x[i0] = 0.5
    jv, precondition = system.linearize(x, i0)
    (step, ok, trace), (y, scipy_ok, scipy_trace) = _both(
        jv, precondition, G, rtol, profiles.GMRES_RESTART,
        profiles.GMRES_MAX_CYCLES)
    assert ok and scipy_ok
    assert len(trace) == len(scipy_trace) > profiles.GMRES_RESTART
    assert _close(step, y, 1e-10)


# -- results that do not depend on the BLAS thread count --------------------

def test_front_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # GMRES takes its inner products as numpy's pairwise sums, not as
    # threaded BLAS dot products; the front of delta(s - 5) at c 2.05,
    # dt 0.01 takes 35, 7 and 50 GMRES iterations in three Newton-Krylov
    # steps.  manifest.json, which holds the wall time, is left out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel": {"atoms": [{"s": 5.0, "mass": 1.0}]}, "dt": 0.01}))
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "nlkpp.cli", "front", "--c", "2.05",
             "--config", str(cfg), "--out", str(outs[threads])],
            env=_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    for name in ("front.csv", "front.json"):
        assert ((outs["1"] / name).read_bytes()
                == (outs["2"] / name).read_bytes()), name
