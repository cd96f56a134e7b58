"""Command-line front end tying all modules together.

Each run writes JSON reports and CSV grids into --out together with a
manifest (command, config echo, package versions, wall time).  Only
`classify`, `front` and `simulate` take --config; an option a command does
not read is a usage error.  The data artifacts are deterministic: identical
options and config produce byte-identical files.  A rerun replaces each
artifact with a new file, so a symlink or hard link inside --out is not
written through.  `manifest.json` is written last and
only on success: a run removes the previous one first.

Exit codes: 0 success, 1 configuration error (a `DomainError`, including an
--out that cannot be created or written), 2 numeric non-convergence (a
`NoConvergence`).  `main` is the one place that maps the two types to exit
codes; any other exception is a bug and propagates as a traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from . import DomainError, NoConvergence, __version__
from .kernels import (Kernel, dirac, finite_number, from_config, alpha_plus,
                      alpha_minus)
from .spectral import quad_roots, chi1_roots
from . import regimes, profiles, dde, pdesim


# -- serialization helpers -------------------------------------------------

def _plain(obj):
    """Recursively convert numpy scalars/arrays so json emits stable text."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_artifact(path: Path, text: str) -> None:
    """Write `text` to `path` as a new file, after unlinking the old one.

    Truncating a just-written file, or moving a temp file over it with
    os.replace, cost 40-80 ms per file on ext4 (likely its flush-on-replace
    heuristic, auto_da_alloc); unlinking first cost under 0.1 ms.
    """
    try:
        path.unlink(missing_ok=True)
        path.write_text(text)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e}") from e


def write_json(path: Path, obj) -> None:
    _write_artifact(path,
                    json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, columns) -> None:
    """Write the table of `columns` (equal-length arrays or lists), one line
    per row, in one `%` format call: a column of strings as it is (`%s`),
    any other column's values as numbers in `%.12g`.  Columns of unequal
    length are refused with a ValueError."""
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size
    fmt = ",".join("%s" if c.dtype.kind == "U" else "%.12g" for c in cols)
    # the values row by row: column j fills every len(cols)-th place
    flat = [None] * (len(cols) * n)
    for j, c in enumerate(cols):
        flat[j::len(cols)] = c.tolist()
    _write_artifact(path, ",".join(header) + "\n"
                    + (fmt + "\n") * n % tuple(flat))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    return cfg


def _config_number(cfg: dict, *path: str, positive: bool = False):
    """The config value at cfg[path[0]][path[1]]..., which must be a finite
    real number and not a bool (and > 0 if `positive`); None where the key
    is absent.  Anything else is a DomainError."""
    name = ".".join(path)
    where = cfg
    for key in path[:-1]:
        where = where.get(key, {})
        if not isinstance(where, dict):
            raise DomainError(f"config {key!r} must be a JSON object")
    if path[-1] not in where:
        return None
    value = finite_number(where[path[-1]], name)
    if positive and not value > 0:
        raise DomainError(f"{name} must be > 0, got {value!r}")
    return value


def _given(**values) -> dict:
    """The keyword arguments that are not None: the config numbers present,
    so the solver's own defaults stand for the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _kernel_from(cfg: dict) -> Kernel:
    kspec = cfg.get("kernel")
    if kspec is None:
        return dirac(0.0)
    try:
        k, _ = from_config(kspec)
    except (DomainError, KeyError, TypeError) as e:
        raise DomainError(f"bad kernel config: {e}") from e
    return k


def _write_manifest(out: Path, command: str, cfg: dict, wall: float) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "versions": {"nlkpp": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": platform.python_version()},
        "wall_time_s": round(wall, 3),
    })


# -- commands --------------------------------------------------------------

def cmd_roots(args, cfg, out: Path) -> None:
    report = {}
    if args.c is not None:
        lam, mu = quad_roots(args.c)
        report["quadratic"] = {"c": args.c, "lam": lam, "mu": mu}
    if args.tau is not None:
        rr = chi1_roots(args.tau, args.eps)
        report["census"] = rr.as_dict()
    if not report:
        raise DomainError("roots needs --c and/or --tau")
    write_json(out / "roots.json", report)
    if args.tau is not None and not rr.converged:
        raise NoConvergence(
            f"root census not converged: count {rr.count}, "
            f"{len(rr.roots)} roots located")


def cmd_classify(args, cfg, out: Path) -> None:
    write_json(out / "classify.json",
               regimes.classify(args.c, _kernel_from(cfg)))


def cmd_region(args, cfg, out: Path) -> None:
    geo = regimes.pP_feasible_set(args.aplus, args.aminus,
                                  P_cap=args.P_cap, grid_n=args.grid_n)
    p_axis, P_axis, mask = geo["p_axis"], geo["P_axis"], geo["mask"]
    # row-major over (p, P), as the mask is
    write_csv(out / "region.csv", ["p", "P", "feasible"],
              [np.repeat(p_axis, P_axis.size), np.tile(P_axis, p_axis.size),
               mask.ravel()])
    write_json(out / "region.json", {
        "alpha_plus": args.aplus, "alpha_minus": args.aminus,
        "p_min": geo["p_min"], "P_max": geo["P_max"],
        "anchors": [list(a) for a in geo["anchors"]]})


def cmd_front(args, cfg, out: Path) -> None:
    given = _given(tol=_config_number(cfg, "tol", positive=True),
                   dt=_config_number(cfg, "dt"))
    beta = _config_number(cfg, "beta")
    if beta is not None:
        regimes.operator_b(beta)    # before the kernel is built
    k = _kernel_from(cfg)
    ctx = profiles.WaveContext(args.c, k, beta=beta)
    prof = profiles.solve_front(ctx, **given)
    vals, d = prof.values, prof.diagnostics
    if vals.max() > ctx.beta:
        raise DomainError(f"the front reaches phi_max = {vals.max():.6g} > "
                          f"beta = {ctx.beta}, off the equation; raise beta")
    write_csv(out / "front.csv", ["t", "phi"], [prof.grid, prof.values])
    write_json(out / "front.json", {
        "c": args.c, "beta": ctx.beta,
        "residual": d["residual_sup"],
        "phi_max": float(vals.max()), "phi_min": float(vals.min()),
        "monotone": d["monotone"],
        "alpha_plus": alpha_plus(k, args.c),
        "alpha_minus": alpha_minus(k, args.c),
        "solver": d["solver"], "picard_sweeps": d["iterations"],
        "start_beta": d["start_beta"],
        "newton_steps": d["newton_steps"], "gmres_iters": d["gmres_iters"],
        "gmres_per_step": d["gmres_per_step"],
        "gmres_rtols": d["gmres_rtols"], "sigma": d["sigma"]})


def cmd_toy(args, cfg, out: Path) -> None:
    funcs, report = profiles.toy_fronts()
    write_json(out / "toy.json", report)
    t = np.linspace(-10.0, 10.0, 601)
    write_csv(out / "toy.csv", ["t", "phi1", "phi2", "phi3"],
              [t] + [f(t) for f in funcs])


def cmd_periodic(args, cfg, out: Path) -> None:
    orbit = dde.find_periodic(args.tau, eps=args.eps)
    mults, adj = [], None
    if args.eps == 0:
        mults = dde.floquet(orbit)[0]
        adj = dde.resonance_pairing(orbit)
    write_csv(out / "orbit.csv", ["t", "p", "dp"], orbit.mesh.T)
    write_json(out / "orbit.json", {
        "tau": args.tau, "eps": args.eps, "period": orbit.period,
        "gamma": orbit.gamma, "amplitude": orbit.amplitude,
        "residual": orbit.residual,
        "multipliers": [abs(m) for m in mults],
        "adjoint_pairing": adj,
        "critical_points": orbit.critical_points()})


def cmd_connect(args, cfg, out: Path) -> None:
    if args.kind == "het":
        kind, sols = "zero-to-one", dde.zero_to_one(args.tau, args.eps)
    else:
        kind = "periodic-to-point"
        sols = [dde.periodic_to_point(args.tau, args.eps)]
    write_csv(out / "trajectory.csv", ["t", "y"],
              [sols[-1]["t"], sols[-1]["y"]])
    # a periodic-to-point run has no Newton residual or counts: null
    rungs = [{k: s.get(k) for k in ("eps", "residual", "newton_steps",
                                    "factorizations")} for s in sols]
    write_json(out / "connect.json", {
        "tau": args.tau, "kind": kind, "eps_ladder": [s["eps"] for s in sols],
        "decay_fits": [{"eps": s["eps"], "decay_rate": s["decay_rate"],
                        "target": s["rate_target"]} for s in sols],
        "rungs": rungs, "residual": rungs[-1]["residual"]})


def cmd_semiwave(args, cfg, out: Path) -> None:
    sol, prof = dde.semiwave(args.tau, args.c, proper=args.proper)
    write_csv(out / "semiwave.csv", ["t", "phi"], [prof.grid, prof.values])
    report = {"tau": args.tau, "c": args.c, "eps": sol["eps"],
              "kind": "periodic-to-point" if args.proper else "zero-to-one"}
    if args.proper:
        report.update(tail_period=prof.tail_period,
                      settle_time=sol["settle_time"],
                      decay_rate=sol["decay_rate"],
                      t_end=float(sol["t"][-1]))
    write_json(out / "semiwave.json", report)


def cmd_simulate(args, cfg, out: Path) -> None:
    if not args.T > 0:
        raise DomainError(f"--T must be > 0, got {args.T}")
    if not args.snap >= 0:
        raise DomainError(f"--snap must be >= 0 (0 disables), got {args.snap}")
    given = _given(dx=_config_number(cfg, "dx"), X=_config_number(cfg, "X"),
                   front_at=_config_number(cfg, "init", "params", "front_at"),
                   dt=_config_number(cfg, "dt", positive=True))
    rep = pdesim.measure_speed(_kernel_from(cfg), T=args.T, snap=args.snap,
                               **given)
    x, snaps = rep.pop("state").x, rep.pop("snapshots")
    # snapshot by snapshot, x ascending within each
    write_csv(out / "snapshots.csv", ["t", "x", "u"],
              [np.repeat([t for t, _ in snaps], x.size),
               np.tile(x, len(snaps)),
               np.ravel([u for _, u in snaps])])
    write_json(out / "speed.json", rep)


ATLAS_MAX_N = 1000  # the atlas builds n^2 rows in Python


def cmd_atlas(args, cfg, out: Path) -> None:
    ap_lo, ap_hi = args.aplus_range
    am_lo, am_hi = args.aminus_range
    if ap_lo < 0 or am_lo < 0 or ap_hi < ap_lo or am_hi < am_lo:
        raise DomainError("atlas ranges must be nonnegative and increasing")
    if args.n < 1:
        raise DomainError(f"atlas --n must be >= 1, got {args.n}")
    if not args.n <= ATLAS_MAX_N:
        raise DomainError(f"atlas --n must be <= {ATLAS_MAX_N}, got {args.n}")
    # row-major over (alpha_plus, alpha_minus)
    ap = np.repeat(np.linspace(ap_lo, ap_hi, args.n), args.n).tolist()
    am = np.tile(np.linspace(am_lo, am_hi, args.n), args.n).tolist()
    cases = [regimes.intensity_case(p, m) for p, m in zip(ap, am)]
    bounds = [regimes.estm_bound(p, m) if p > 0 and p + m <= 0.5
              else math.nan for p, m in zip(ap, am)]
    write_csv(out / "atlas.csv",
              ["alpha_plus", "alpha_minus", "case", "oscillation_bound"],
              [ap, am, cases, bounds])
    write_json(out / "atlas.json", {"n": args.n, "cases": Counter(cases)})


# -- argument parsing and dispatch -----------------------------------------

def _finite(text: str) -> float:
    """argparse type for float options: rejects nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlkpp",
        description="Traveling-wave numerics for the nonlocal KPP-Fisher "
                    "equation u_t = u_xx + u(1 - K*u)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="artifact directory")
    # the commands that read a config file
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", default=None, help="JSON config file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="characteristic roots and censuses")
    p.add_argument("--c", type=_finite, default=None)
    p.add_argument("--tau", type=_finite, default=None)
    p.add_argument("--eps", type=_finite, default=0.0)

    p = sub.add_parser("classify", parents=[configured],
                       help="regime report for a speed and kernel")
    p.add_argument("--c", type=_finite, required=True)

    p = sub.add_parser("region", parents=[common],
                       help="(p,P) oscillation-band feasible set")
    p.add_argument("--aplus", type=_finite, required=True)
    p.add_argument("--aminus", type=_finite, required=True)
    p.add_argument("--P-cap", dest="P_cap", type=_finite, default=5.0)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=400)

    p = sub.add_parser("front", parents=[configured],
                       help="wave profile by monotone iteration")
    p.add_argument("--c", type=_finite, required=True)

    sub.add_parser("toy", parents=[common],
                   help="piecewise-explicit example profiles and constants")

    p = sub.add_parser("periodic", parents=[common],
                       help="periodic orbit of the associated delay equation")
    p.add_argument("--tau", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, default=0.0)

    p = sub.add_parser("connect", parents=[common],
                       help="connecting orbits by continuation")
    p.add_argument("--tau", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, default=0.0)
    p.add_argument("--kind", default="het", choices=("het", "p2p"))

    p = sub.add_parser("semiwave", parents=[common],
                       help="semi-wavefront profile from the delay equation")
    p.add_argument("--tau", type=_finite, required=True)
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--proper", action="store_true",
                   help="periodic-tail (proper) semi-wavefront")

    p = sub.add_parser("simulate", parents=[configured],
                       help="direct PDE simulation")
    p.add_argument("--T", type=_finite, default=40.0)
    p.add_argument("--snap", type=_finite, default=0.0,
                   help="snapshot interval (0 disables)")

    p = sub.add_parser("atlas", parents=[common],
                       help="intensity-plane case sweep")
    p.add_argument("--aplus-range", dest="aplus_range", type=_finite, nargs=2,
                   default=(0.0, 0.6))
    p.add_argument("--aminus-range", dest="aminus_range", type=_finite, nargs=2,
                   default=(0.0, 0.6))
    p.add_argument("--n", type=int, default=25)
    return ap


_DISPATCH = {
    "roots": cmd_roots, "classify": cmd_classify, "region": cmd_region,
    "front": cmd_front, "toy": cmd_toy, "periodic": cmd_periodic,
    "connect": cmd_connect, "semiwave": cmd_semiwave,
    "simulate": cmd_simulate, "atlas": cmd_atlas,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    t0 = time.perf_counter()
    out = Path(args.out)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.json").unlink(missing_ok=True)
        except OSError as e:
            raise DomainError(f"cannot write {out}: {e}") from e
        cfg = _load_config(getattr(args, "config", None))
        _DISPATCH[args.command](args, cfg, out)
        _write_manifest(out, args.command, cfg, time.perf_counter() - t0)
    except DomainError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NoConvergence as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
