"""Output checks for each CLI command the benchmark runs.

A check reads the artifacts one invocation wrote and returns a list of
failure messages; an empty list means the output is correct.  The
thresholds all hold on the reference inputs; the tightest is the
advanced-atom front residual, 8.1e-7 against its 1e-6 bound on seed 0.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"


def artifact_digest(out: Path) -> dict:
    """sha256 of every data artifact in `out`; the manifest carries the
    wall time, so it is the one file left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != MANIFEST}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name != MANIFEST)


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _column(out: Path, name: str, col: int) -> np.ndarray:
    return np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=col,
                      ndmin=1)


def check_front(out: Path, spec: dict) -> list:
    from nlkpp.regimes import band_inequalities
    rep = _load(out, "front.json")
    phi = _column(out, "front.csv", 1)
    errs = []
    if not rep["residual"] < spec["residual_max"]:
        errs.append(f"residual {rep['residual']} >= {spec['residual_max']}")
    if not (phi.min() > 0.0 and phi.max() <= spec["u_bound"]):
        errs.append(f"front leaves (0, U={spec['u_bound']}]: "
                    f"[{phi.min()}, {phi.max()}]")
    monotone = bool(np.all(np.diff(phi) > -1e-10))
    if rep["monotone"] != spec["monotone"] or monotone != spec["monotone"]:
        errs.append(f"monotone is {rep['monotone']} (csv: {monotone}), "
                    f"expected {spec['monotone']}")
    if spec.get("band"):
        tail = phi[2 * phi.size // 3:]
        lower, upper = band_inequalities(tail.min(), tail.max(),
                                         rep["alpha_plus"], rep["alpha_minus"])
        if not (lower >= 1.0 and upper <= 1.0):
            errs.append(f"tail (p, P) = ({tail.min()}, {tail.max()}) breaks "
                        f"the band inequalities: {lower} >= 1, {upper} <= 1")
    return errs


def check_simulate(out: Path, spec: dict) -> list:
    rep = _load(out, "speed.json")
    errs = []
    if not rep["u_min"] >= -1e-12:
        errs.append(f"u_min {rep['u_min']} < -1e-12")
    if "speed" in spec:
        rel = abs(rep["speed"] / spec["speed"] - 1.0)
        if not rel <= spec["speed_rtol"]:
            errs.append(f"speed {rep['speed']} is {rel:.3%} off "
                        f"{spec['speed']}")
    return errs


def check_connect(out: Path, spec: dict) -> list:
    rep = _load(out, "connect.json")
    errs = []
    if not rep["residual"] < 1e-6:
        errs.append(f"residual {rep['residual']} >= 1e-6")
    for fit in rep["decay_fits"]:
        rel = abs(fit["decay_rate"] / fit["target"] - 1.0)
        if not rel <= 0.05:
            errs.append(f"rung eps={fit['eps']}: decay rate "
                        f"{fit['decay_rate']} is {rel:.3%} off "
                        f"{fit['target']}")
    if not rep["eps_ladder"] or not math.isclose(rep["eps_ladder"][-1],
                                                 spec["eps"], rel_tol=1e-12):
        errs.append(f"ladder {rep['eps_ladder']} does not end at "
                    f"eps={spec['eps']}")
    return errs


def check_periodic(out: Path, spec: dict) -> list:
    rep = _load(out, "orbit.json")
    mods = np.asarray(rep["multipliers"], dtype=float)
    errs = []
    if not rep["residual"] < 1e-9:
        errs.append(f"residual {rep['residual']} >= 1e-9")
    n_unstable = int(np.sum(mods > 1.0 + 1e-3))
    n_trivial = int(np.sum(np.abs(mods - 1.0) < 1e-2))
    if n_unstable != 1 or n_trivial != 1:
        errs.append(f"{n_unstable} multipliers above 1 + 1e-3 and "
                    f"{n_trivial} within 1e-2 of 1; expected one each")
    pairing = rep["adjoint_pairing"]
    if not (isinstance(pairing, float) and abs(pairing - 1.0) < 1e-6):
        errs.append(f"adjoint pairing {pairing} is not within 1e-6 of 1")
    return errs


def check_semiwave(out: Path, spec: dict) -> list:
    rep = _load(out, "semiwave.json")
    if "tail_period" not in rep:
        return ["no tail_period in semiwave.json"]
    ratio = rep["tail_period"] / (2.0 * math.pi * spec["c"])
    if not abs(ratio - 1.0) <= 0.1:
        return [f"tail_period / (2 pi c) = {ratio}, not within 10% of 1"]
    return []


def check_roots(out: Path, spec: dict) -> list:
    census = _load(out, "roots.json")["census"]
    errs = []
    if census["converged"] is not True:
        errs.append("root census did not converge")
    if len(census["roots"]) != census["count"]:
        errs.append(f"{len(census['roots'])} roots for a census count of "
                    f"{census['count']}")
    return errs


def check_classify(out: Path, spec: dict) -> list:
    rep = _load(out, "classify.json")
    if rep["semi_wavefront_exists"] is not True:
        return ["classify reports no semi-wavefront for c > 2"]
    return []


CHECKS = {
    "front": check_front,
    "simulate": check_simulate,
    "connect": check_connect,
    "periodic": check_periodic,
    "semiwave": check_semiwave,
    "roots": check_roots,
    "classify": check_classify,
}


def check(out: Path, rc: int, spec: dict) -> list:
    """All failures of one invocation: nonzero exit, unreadable or missing
    artifacts, or a failed output check."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKS[spec["kind"]](out, spec)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        return [f"unreadable artifact: {type(e).__name__}: {e}"]


def prepare(invocations) -> None:
    """Add the a-priori bound U(c, K) to every front check, computed by the
    package's own `regimes.u_bound` before any timing starts."""
    from nlkpp.kernels import from_config
    from nlkpp.regimes import u_bound
    for inv in invocations:
        if inv.check.get("kind") == "front":
            c = float(inv.argv[inv.argv.index("--c") + 1])
            kernel, _ = from_config(inv.config["kernel"])
            inv.check["u_bound"] = u_bound(c, kernel)
