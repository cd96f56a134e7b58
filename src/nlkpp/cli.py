"""Command-line front end tying all modules together.

Each run writes JSON reports and CSV grids into --out together with a
manifest (config echo, package versions, wall time).  The data artifacts are
deterministic: identical config + seed produce byte-identical files.  A
rerun replaces each artifact with a new file, so a symlink or hard link
inside --out is not written through.  `manifest.json` is written last and
only on success: a run removes the previous one first.

Exit codes: 0 success, 1 configuration error (including an --out that cannot
be created or written), 2 numeric non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .kernels import (Kernel, KernelError, dirac, from_config,
                      alpha_plus, alpha_minus)
from .spectral import (DomainError, NoConvergence, quad_roots, chi1_roots,
                       monotone_front_root)
from . import regimes, profiles, dde, pdesim


class ConfigError(ValueError):
    pass


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
        raise ConfigError(f"cannot write {path}: {e}") from e


def write_json(path: Path, obj) -> None:
    _write_artifact(path,
                    json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows) -> None:
    """Rows of numbers as %.12g; strings are written as they are."""
    fmt = ",".join(["%.12g"] * len(header))
    lines = [",".join(header)]
    for row in rows:
        try:
            lines.append(fmt % tuple(row))
        except TypeError:   # a string value, or a row of another length
            lines.append(",".join(
                v if isinstance(v, str) else "%.12g" % v for v in row))
    _write_artifact(path, "\n".join(lines) + "\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def _kernel_from(cfg: dict) -> Kernel:
    kspec = cfg.get("kernel")
    if kspec is None:
        return dirac(0.0)
    try:
        k, _ = from_config(kspec)
    except (KernelError, KeyError, TypeError) as e:
        raise ConfigError(f"bad kernel config: {e}") from e
    return k


def _write_manifest(out: Path, command: str, cfg: dict, seed: int,
                    wall: float) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "seed": seed,
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
        raise ConfigError("roots needs --c and/or --tau")
    write_json(out / "roots.json", report)
    if args.tau is not None and not rr.converged:
        raise NoConvergence(
            f"root census not converged: count {rr.count}, "
            f"{len(rr.roots)} roots located")


def cmd_classify(args, cfg, out: Path) -> None:
    k = _kernel_from(cfg)
    rep = regimes.classify(args.c, k)
    d = rep.as_dict()
    d["intensity_case"] = regimes.intensity_case(rep.alpha_plus,
                                                 rep.alpha_minus)
    write_json(out / "classify.json", d)


def cmd_region(args, cfg, out: Path) -> None:
    geo = regimes.pP_feasible_set(args.aplus, args.aminus,
                                  P_cap=args.P_cap, grid_n=args.grid_n)
    rows = []
    for i, p in enumerate(geo["p_axis"]):
        for j, P in enumerate(geo["P_axis"]):
            rows.append((p, P, int(geo["mask"][i, j])))
    write_csv(out / "region.csv", ["p", "P", "feasible"], rows)
    write_json(out / "region.json", {
        "alpha_plus": args.aplus, "alpha_minus": args.aminus,
        "p_min": geo["p_min"], "P_max": geo["P_max"],
        "anchors": [list(a) for a in geo["anchors"]]})


def cmd_front(args, cfg, out: Path) -> None:
    k = _kernel_from(cfg)
    ctx = profiles.WaveContext(args.c, k, beta=cfg.get("beta"))
    prof = profiles.solve_front(ctx, tol=cfg.get("tol", 1e-9),
                                dt=cfg.get("dt", 0.0025))
    vals = prof.values
    write_csv(out / "front.csv", ["t", "phi"],
              zip(prof.grid, prof.values))
    write_json(out / "front.json", {
        "c": args.c, "beta": ctx.beta,
        "residual": prof.diagnostics["residual_sup"],
        "phi_max": float(vals.max()), "phi_min": float(vals.min()),
        "monotone": bool(np.all(np.diff(vals) > -1e-10)),
        "alpha_plus": alpha_plus(k, args.c),
        "alpha_minus": alpha_minus(k, args.c)})


def cmd_toy(args, cfg, out: Path) -> None:
    p1, p2, p3, consts = profiles.toy_fronts()
    report = dict(consts)
    for name, prof in (("phi1", p1), ("phi2", p2), ("phi3", p3)):
        report[name + "_diagnostics"] = prof.diagnostics
    write_json(out / "toy.json", report)
    t = np.linspace(-10.0, 10.0, 601)
    write_csv(out / "toy.csv", ["t", "phi1", "phi2", "phi3"],
              zip(t, p1(t), p2(t), p3(t)))


def cmd_periodic(args, cfg, out: Path) -> None:
    orbit = dde.find_periodic(args.tau, eps=args.eps)
    adj = None
    if args.eps == 0:
        dde.floquet(orbit)
        dde.adjoint_periodic(orbit)
        adj = dde.resonance_pairing(orbit)
    write_csv(out / "orbit.csv", ["t", "p", "dp"],
              orbit.mesh)
    write_json(out / "orbit.json", {
        "tau": args.tau, "eps": args.eps, "period": orbit.period,
        "gamma": orbit.gamma, "amplitude": orbit.amplitude,
        "residual": orbit.residual,
        "multipliers": [abs(m) for m in (orbit.multipliers or [])],
        "adjoint_pairing": adj,
        "critical_points": orbit.critical_points()})


def cmd_connect(args, cfg, out: Path) -> None:
    kind = {"het": "zero-to-one", "p2p": "periodic-to-point"}.get(args.kind)
    if kind is None:
        raise ConfigError(f"--kind must be het or p2p, got {args.kind!r}")
    run = dde.heteroclinic(args.tau, args.eps, kind=kind)
    sol = run.solutions[-1]
    write_csv(out / "trajectory.csv", ["t", "y"], zip(sol["t"], sol["y"]))
    fits = [{"eps": e, "decay_rate": f, "target": t}
            for e, (f, t) in zip(run.eps_ladder, run.decay_fits)]
    write_json(out / "connect.json", {
        "tau": args.tau, "kind": kind, "eps_ladder": list(run.eps_ladder),
        "decay_fits": fits,
        "residual": sol.get("residual")})


def cmd_semiwave(args, cfg, out: Path) -> None:
    c2 = args.c * args.c
    if not (args.c > 0 and c2 > 0):
        raise ConfigError(f"semiwave needs --c > 0 with c^2 > 0, got {args.c}")
    eps = 1.0 / c2
    kind = "periodic-to-point" if args.proper else "zero-to-one"
    run = dde.heteroclinic(args.tau, eps, kind=kind)
    prof = dde.to_wavefront(run, args.c)
    write_csv(out / "semiwave.csv", ["t", "phi"],
              zip(prof.grid, prof.values))
    report = {"tau": args.tau, "c": args.c, "eps": eps, "kind": kind}
    if prof.tail_period is not None:
        report["tail_period"] = prof.tail_period
    write_json(out / "semiwave.json", report)


def cmd_simulate(args, cfg, out: Path) -> None:
    k = _kernel_from(cfg)
    state = pdesim.initial_state(k, X=cfg.get("X", 400.0),
                                 dx=cfg.get("dx", 0.2),
                                 front_at=cfg.get("init", {}).get(
                                     "params", {}).get("front_at", 20.0))
    snap_times = list(np.arange(args.snap, args.T + 1e-9, args.snap)) \
        if args.snap else []
    snaps = pdesim.run(state, args.T, dt=cfg.get("dt"),
                       snapshots_at=snap_times)
    rows = []
    for t, u in snaps:
        for xi, ui in zip(state.x, u):
            rows.append((t, xi, ui))
    write_csv(out / "snapshots.csv", ["t", "x", "u"], rows)
    write_json(out / "speed.json", {
        "T": args.T, "speed": pdesim.front_speed(state),
        "u_min": float(state.u.min()), "u_max": float(state.u.max()),
        "n_records": len(state.times)})


def cmd_atlas(args, cfg, out: Path) -> None:
    ap_lo, ap_hi = args.aplus_range
    am_lo, am_hi = args.aminus_range
    if ap_lo < 0 or am_lo < 0 or ap_hi < ap_lo or am_hi < am_lo:
        raise ConfigError("atlas ranges must be nonnegative and increasing")
    rows = []
    for ap in np.linspace(ap_lo, ap_hi, args.n).tolist():
        for am in np.linspace(am_lo, am_hi, args.n).tolist():
            bound = (regimes.estm_bound(ap, am) if ap > 0 and ap + am <= 0.5
                     else float("nan"))
            rows.append((ap, am, regimes.intensity_case(ap, am), bound))
    write_csv(out / "atlas.csv",
              ["alpha_plus", "alpha_minus", "case", "oscillation_bound"],
              rows)
    counts = {}
    for _, _, label, _ in rows:
        counts[label] = counts.get(label, 0) + 1
    write_json(out / "atlas.json", {"n": args.n, "cases": counts})


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
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=".", help="artifact directory")
    common.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="characteristic roots and censuses")
    p.add_argument("--c", type=_finite, default=None)
    p.add_argument("--tau", type=_finite, default=None)
    p.add_argument("--eps", type=_finite, default=0.0)

    p = sub.add_parser("classify", parents=[common],
                       help="regime report for a speed and kernel")
    p.add_argument("--c", type=_finite, required=True)

    p = sub.add_parser("region", parents=[common],
                       help="(p,P) oscillation-band feasible set")
    p.add_argument("--aplus", type=_finite, required=True)
    p.add_argument("--aminus", type=_finite, required=True)
    p.add_argument("--P-cap", dest="P_cap", type=_finite, default=5.0)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=400)

    p = sub.add_parser("front", parents=[common],
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
    p.add_argument("--kind", default="het", help="het | p2p")

    p = sub.add_parser("semiwave", parents=[common],
                       help="semi-wavefront profile from the delay equation")
    p.add_argument("--tau", type=_finite, required=True)
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--proper", action="store_true",
                   help="periodic-tail (proper) semi-wavefront")

    p = sub.add_parser("simulate", parents=[common],
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
            raise ConfigError(f"cannot write {out}: {e}") from e
        cfg = _load_config(args.config)
        _DISPATCH[args.command](args, cfg, out)
        _write_manifest(out, args.command, cfg, args.seed,
                        time.perf_counter() - t0)
    except (ConfigError, KernelError, DomainError, ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NoConvergence, pdesim.MeasurementError,
            profiles.InvariantViolation) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
