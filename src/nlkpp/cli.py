"""Command-line front end tying all modules together.

Each run writes JSON reports and CSV grids into --out together with a
manifest (command, config echo, package versions, wall time).  Only
`classify`, `front` and `simulate` take --config; an option a command does
not read is a usage error.  The data artifacts are deterministic: identical
options and config produce byte-identical files.  A rerun replaces each
artifact with a new file, so a symlink or hard link inside --out is not
written through.  `manifest.json` is written last and
only on success: a run removes the previous one first.

A CSV holds what `'%.12g' %` writes, value by value, but `write_csv` makes
it with numpy, CSV_BLOCK_ROWS rows at a time, and writes each block's bytes
as they are made.  Each value is scaled to y in [1e11, 1e12) by a
correctly rounded power of ten from frexp's exponent, rounded to its 12
digits, and its text is looked up: the digits four at a time, the sign,
the '.', the "0.000" prefix and the exponent suffix, as uint64 words with
NUL padding that bytes.translate drops.  The few cells whose y lies within
1e-3 of a half-integer, where the scaling's error could change the
rounding, are formatted by `%` one at a time.

Exit codes: 0 success, 1 configuration error (a `DomainError`, including an
--out that cannot be created or written), 2 numeric non-convergence (a
`NoConvergence`).  `main` is the one place that maps the two types to exit
codes; any other exception is a bug and propagates as a traceback.
"""
from __future__ import annotations

import argparse
import functools
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
    return obj


def _write_artifact(path: Path, chunks) -> None:
    """Write the byte strings `chunks` to `path`, in order, as a new file,
    after unlinking the old one.

    Truncating a just-written file, or moving a temp file over it with
    os.replace, cost 40-80 ms per file on ext4 (likely its flush-on-replace
    heuristic, auto_da_alloc); unlinking first cost under 0.1 ms.
    """
    try:
        path.unlink(missing_ok=True)
        with path.open("wb") as f:
            f.writelines(chunks)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e}") from e


def write_json(path: Path, obj) -> None:
    _write_artifact(path, [(json.dumps(_plain(obj), indent=2, sort_keys=True)
                            + "\n").encode()])


# -- CSV cells: '%.12g' from table lookups ----------------------------------
#
# A cell is a row of little-endian uint64 words whose non-NUL bytes, in
# order, are its text.  A number takes five: a prefix ('-' in byte 0, then
# "0." and zeros for -4 <= e < 0), its 12 significant digits in three words
# of four, each digit followed by a NUL gap that may hold the '.', and a
# suffix ("e+dd" or "e-ddd" in exponent form, the separator in byte 7).

CSV_BLOCK_ROWS = 8192
_POW5_MIN, _POW5_MAX = -297, 336
_ALL = ~np.uint64(0)


def _pow5() -> np.ndarray:
    """5.0**k for k from _POW5_MIN to _POW5_MAX, each correctly rounded (as
    Python's int-to-float conversion and int / int division are)."""
    p = [1]
    for _ in range(_POW5_MAX):
        p.append(p[-1] * 5)
    return np.array([1 / q for q in p[-_POW5_MIN:0:-1]]
                    + [float(q) for q in p])


def _bytes_at(values, shift) -> np.ndarray:
    """The uint64 words holding the byte values `values` (0 for a NUL)
    shifted up by `shift` bits, elementwise."""
    return np.left_shift(np.asarray(values, np.uint64),
                         np.asarray(shift, np.uint64))


# frexp gives x = mant 2**e2 with 0.5 <= |mant| < 1 and e2 from -1073 (the
# least subnormal) to 1024, held at index e2 + 1073 of the e2 tables.
# _SCALE = fl(2**e2 10**k) lies in [2e11, 2e12], so y = |mant| _SCALE lies
# in [1e11, 2e12) and |x| = y 10**(e - 11) with e = 11 - k, held as its
# index e + 324 of the e tables (e from -324 to 308)
_E2 = np.arange(-1073, 1025)
_K = np.ceil(np.log10(2e11) - _E2 * np.log10(2.0)).astype(np.int64)
_SCALE = np.ldexp(_pow5()[_K - _POW5_MIN], _E2 + _K)
_E_AT = 11 - _K + 324
# the ASCII digits of 0..9999 at bytes 0, 2, 4 and 6; and the mask of those
# up to the last nonzero one, without the gap after it (0 for 0), which
# drops trailing zeros
_G = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]
_DIGITS = sum(_bytes_at(48 + _G[i], 16 * i) for i in range(4)).ravel()
_TRIM = _bytes_at(1, 8 * np.where(
    _G[3] > 0, 7, np.where(_G[2] > 0, 5, np.where(
        _G[1] > 0, 3, np.where(_G[0] > 0, 1, 0)))).ravel()) - np.uint64(1)
# %g's form by the decimal exponent e of the rounded value: fixed for
# _FIXED_LO <= e < _FIXED_HI, else exponent form.  By e: the prefix, the
# digit words' '.' (after digit d, if a digit after it shows) and the
# digits that show whatever follows (the integer part, at least one digit),
# and the suffix
_FIXED_LO, _FIXED_HI = -4, 12
_E = np.arange(-324, 309)
_FIXED = (_FIXED_LO <= _E) & (_E < _FIXED_HI)
_PREFIX = np.zeros(_E.size, np.uint64)
for _e in range(_FIXED_LO, 0):
    _PREFIX[_e + 324] = int.from_bytes(b"\0" + b"0." + b"0" * (-_e - 1),
                                       "little")
_D = np.where(_FIXED, np.maximum(_E, 0), 0)   # the '.' after digit _D
# (for -4 <= e < 0 the '.' is in the prefix)
_DOT = np.where((_D // 4 == np.arange(3)[:, None]) & ~(_FIXED & (_E < 0)),
                _bytes_at(ord("."), 8 * (2 * (_D % 4) + 1)), np.uint64(0))
_LEAD = np.minimum(np.maximum(2 * _D + 1 - 8 * np.arange(3)[:, None], 0), 8)
_LEAD = np.where(_LEAD == 8, _ALL,
                 _bytes_at(1, 8 * np.minimum(_LEAD, 7)) - np.uint64(1))
_A = np.abs(_E)
_SUFFIX = np.where(_FIXED, np.uint64(0), sum(
    [_bytes_at(ord("e"), 0), _bytes_at(np.where(_E < 0, 45, 43), 8),
     _bytes_at(np.where(_A >= 100, 48 + _A // 100, 0), 16),
     _bytes_at(48 + _A // 10 % 10, np.where(_A >= 100, 24, 16)),
     _bytes_at(48 + _A % 10, np.where(_A >= 100, 32, 24))]))
# y is within 2.3e-4 of exact: _SCALE and the product are rounded, each by
# at most 2**-53 relative, on y < 1e12, or on y < 2e12 before the division
# by 10, a third rounding.  Within _MARGIN = (3 + 1) 2.5e-4 of a
# half-integer the rounding of y is not proven
_MARGIN = 1e-3
_NAN, _INF = (int.from_bytes(b, "little") for b in (b"nan", b"inf"))
_WORD_AT = _E.size * np.arange(3).reshape(3, 1, 1)


class _CellFormatter:
    """The '%.12g' cells of float blocks of `cols` columns and up to `rows`
    rows, as five planes of uint64 words (prefix, three digit words,
    suffix), each block by table lookups in work arrays made once: a fresh
    array of a block's size costs its page faults on every block."""

    def __init__(self, rows: int, cols: int):
        shape = (rows, cols)
        self.y, self.t, self.m = (np.empty(shape) for _ in range(3))
        self.e2 = np.empty(shape, np.intc)
        self.e2i, self.ei, self.mi, self.low = (np.empty(shape, np.intp)
                                                for _ in range(4))
        self.flag = np.empty(shape, bool)
        self.g, self.e3 = (np.empty((3,) + shape, np.intp) for _ in range(2))
        self.trim, self.tab = (np.empty((3,) + shape, np.uint64)
                               for _ in range(2))
        self.words = np.empty((5,) + shape, np.uint64)
        # the separator in byte 7 of the suffix: ',' but '\n' at the end
        self.sep = np.full(shape, ord(","), np.uint64)
        self.sep[:, -1] = ord("\n")
        self.sep <<= np.uint64(56)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The word planes of the block x (rows by columns), each cell
        ending in its separator."""
        b = len(x)
        y, t, m, e2, e2i, ei, mi, low, flag, sep = (
            a[:b] for a in (self.y, self.t, self.m, self.e2, self.e2i,
                            self.ei, self.mi, self.low, self.flag, self.sep))
        g, e3, trim, tab, words = (
            a[:, :b] for a in (self.g, self.e3, self.trim, self.tab,
                               self.words))
        with np.errstate(invalid="ignore"):   # a non-finite x gives y = nan
            np.frexp(x, out=(y, e2))
            np.add(e2, 1073, out=e2i)
            np.abs(y, out=y)
            y *= np.take(_SCALE, e2i, out=t, mode="clip")
            np.take(_E_AT, e2i, out=ei, mode="clip")
            # y >= 1e12: y / 10 and e + 1
            np.greater_equal(y, 1e12, out=flag)
            ei += flag
            y /= np.add(np.multiply(flag, 9.0, out=t), 1.0, out=t)
            np.rint(y, out=m)
            np.abs(np.subtract(y, m, out=t), out=t)
            np.logical_not(np.less_equal(t, 0.5 - _MARGIN, out=flag),
                           out=flag)
            unsure = np.flatnonzero(flag)
            # 999999999999.5 <= y < 1e12 rounds to 10**12: 10**11, e + 1
            np.equal(m, 1e12, out=flag)
            ei += flag
            m -= np.multiply(flag, 9e11, out=t)
            # 0 and -0 (frexp exponent 0, so e = -1) are written with e = 0
            ei += np.equal(m, 0, out=flag)
            np.copyto(mi, m, casting="unsafe")
        # the 12 digits in three groups of four
        np.floor_divide(mi, 10 ** 8, out=g[0])
        np.subtract(mi, np.multiply(g[0], 10 ** 8, out=low), out=low)
        np.floor_divide(low, 10 ** 4, out=g[1])
        np.subtract(low, np.multiply(g[1], 10 ** 4, out=g[2]), out=g[2])
        # the digits to show: up to the last nonzero one, the integer part
        # (_LEAD), and all of a group with a nonzero digit after it
        np.take(_TRIM, g, out=trim, mode="clip")
        np.add(ei, _WORD_AT, out=e3)   # ei in each digit word's e table
        trim |= np.take(_LEAD, e3, out=tab, mode="clip")
        np.multiply(np.not_equal(low, 0, out=flag), _ALL, out=tab[0])
        np.multiply(np.not_equal(g[2], 0, out=flag), _ALL, out=tab[1])
        trim[:2] |= tab[:2]
        digits = words[1:4]
        np.take(_DIGITS, g, out=digits, mode="clip")
        digits |= np.take(_DOT, e3, out=tab, mode="clip")
        digits &= trim
        np.take(_PREFIX, ei, out=words[0], mode="clip")
        # '-' in byte 0 of the prefix, which is NUL
        np.multiply(np.signbit(x, out=flag), np.uint8(ord("-")),
                    out=words[0].view(np.uint8)[:, ::8])
        np.take(_SUFFIX, ei, out=words[4], mode="clip")
        words[4] |= sep
        if unsure.size:
            self._unsure(x, words, *np.divmod(unsure, x.shape[1]))
        return words

    @staticmethod
    def _unsure(x, words, r, c) -> None:
        """Write the cells (r, c) the lookups did not prove: nan and +-inf
        as words, the near-ties by '%' one at a time."""
        v = x[r, c]
        cells = np.zeros((4, v.size), np.uint64)
        tie = np.isfinite(v)
        text = "".join(["%-32.12g" % f for f in v[tie].tolist()])
        cells[:, tie] = np.frombuffer(text.replace(" ", "\0").encode(),
                                      "<u8").reshape(-1, 4).T
        cells[0, v == -np.inf] = ord("-")
        cells[1, ~tie] = np.where(np.isnan(v[~tie]), _NAN, _INF)
        words[:4, r, c] = cells
        words[4, r, c] &= np.uint64(0xFF << 56)


def _csv_bytes(header, cols: list):
    """The CSV text of `header` and the columns `cols` (float or str arrays
    of one length) as bytes: the header line, then CSV_BLOCK_ROWS rows at a
    time."""
    yield (",".join(header) + "\n").encode()
    n = cols[0].size
    rows = min(n, CSV_BLOCK_ROWS)
    cells = _CellFormatter(rows, len(cols))
    x = np.zeros((rows, len(cols)))   # 0 in the str columns
    for start in range(0, n, CSV_BLOCK_ROWS):
        block = slice(start, min(start + CSV_BLOCK_ROWS, n))
        xb = x[:block.stop - start]
        labels = {}
        for j, c in enumerate(cols):
            if c.dtype.kind == "U":
                labels[j] = np.array([v.encode() for v in c[block].tolist()],
                                     dtype=bytes)
            else:
                xb[:, j] = c[block]
        words = cells(xb).transpose(1, 2, 0)
        if labels:
            # a label and its separator fill a cell of `width` words
            width = max([5] + [s.itemsize // 8 + 1 for s in labels.values()])
            words = np.concatenate(
                [words, np.zeros(xb.shape + (width - 5,), np.uint64)], axis=2)
            for j, s in labels.items():
                cell = np.zeros((s.size, 8 * width), np.uint8)
                cell[:, :s.itemsize] = s.view(np.uint8).reshape(s.size, -1)
                cell[:, -1] = cells.sep[0, j] >> np.uint64(56)
                words[:, j] = cell.view("<u8")
        yield words.tobytes().translate(None, b"\0")


def write_csv(path: Path, header, columns) -> None:
    """Write the table of `columns` (equal-length arrays or lists), one line
    per row, byte for byte as `%` would write it value by value: a column
    of strings as it is (`%s`, UTF-8), any other column's values as numbers
    in `%.12g` (bools and ints converted to float as `%` converts them).
    Columns of unequal length are refused with a ValueError before the file
    is opened.

    The table is formatted and written CSV_BLOCK_ROWS rows at a time by
    `_CellFormatter`'s lookups, so no Python float or str is made per
    value; only the near-ties at the 12th digit go through `%`."""
    cols = [c if c.dtype.kind == "U" else c.astype(float, copy=False)
            for c in map(np.asarray, columns)]
    # numpy's ValueError on unequal lengths: (0, length) blocks must agree
    np.concatenate([np.empty((0, c.size)) for c in cols])
    _write_artifact(path, _csv_bytes(header, cols))


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
    rungs = [{k: s.get(k) for k in ("eps", "residual", "newton_steps")}
             for s in sols]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process (about 1 ms a build, 35
    add_argument calls each making a HelpFormatter), for `main`, which
    only parses with it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
