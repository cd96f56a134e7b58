"""The solver core's loader of scipy's BLAS/LAPACK extension files, checked
in fresh interpreters.

Under pytest `scipy.linalg` is loaded before any test runs (the
`filterwarnings` entry of pyproject.toml imports `scipy.sparse.linalg`), so
in-process `nlkpp.solver` only ever takes the registered modules.  These
tests start fresh interpreters for the other two paths: loading the files
by path, and the fallback to `scipy.linalg.blas`/`lapack` when no file is
found, forced by emptying `importlib.machinery.EXTENSION_SUFFIXES` around
the package import.  The module also holds the guard on which package
modules a bare import of each loads.  Like tests/test_smoke.py, it needs
pytest alone (no hypothesis), so the floors CI job (scipy 1.13) runs it too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

from nlkpp import solver

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


def _child(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
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
