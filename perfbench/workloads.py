"""The benchmark's workloads: which CLI commands run, with which inputs, and
what their outputs must satisfy.

Seed 0 runs the reference inputs exactly.  Any other seed jitters the speed
`c` (by up to 0.5%), the atom positions and masses (1%) and the delay `tau`
(1%), staying inside `c > 2` and `tau > 3 pi / 2` and on the same monotone
or oscillating side for every front, so that a claim can be re-checked on
an unseen seed.  Nothing here imports numpy or the package under test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

HOPF_TAU = 1.5 * math.pi

# relative jitter half-widths for seeds other than 0.  They are small
# because the work moves with them and the spread across seeds must stay
# inside the benchmark's bounds: a front's Picard iteration count moves
# about 5% per 1% of c and, for the delayed atom, 3% per 1% of its position;
# the semiwave step count moves 2% per 1% of c.  tau sits 0.1 above the
# periodic-orbit onset in `semiwave`.
C_JITTER = 0.005
ATOM_JITTER = 0.01
TAU_JITTER = 0.01

# commands short enough (10-30 ms) that their time is counted in pass_s only
UNTIMED_COMMANDS = ("roots", "classify")


@dataclass
class Invocation:
    """One CLI call: its argv (without --config/--out), its config (or
    None), and the check spec the output must pass."""

    name: str
    argv: list
    config: dict | None
    check: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(float(x))


class _Jitter:
    def __init__(self, seed: int, workload: str):
        self.rng = None if seed == 0 else random.Random(f"{workload}/{seed}")

    def scale(self, x: float, width: float, lo: float = -1.0) -> float:
        if self.rng is None:
            return x
        return x * (1.0 + width * self.rng.uniform(lo, 1.0))

    def c(self, c: float, upward: bool = False) -> float:
        return self.scale(c, C_JITTER, 0.0 if upward else -1.0)

    def tau(self, tau: float) -> float:
        return self.scale(tau, TAU_JITTER)

    def atoms(self, atoms):
        return [{"s": self.scale(s, ATOM_JITTER),
                 "mass": self.scale(m, ATOM_JITTER)} for s, m in atoms]


def atomic_fronts(seed: int) -> list:
    j = _Jitter(seed, "atomic_fronts")
    c_adv, c_del = j.c(2.5), j.c(2.5)
    adv = {"kernel": {"atoms": j.atoms([(-0.5, 1.0)])}}
    dly = {"kernel": {"atoms": j.atoms([(5.0, 1.0)])}, "dt": 0.005}
    return [
        Invocation("front_advanced", ["front", "--c", _num(c_adv)], adv,
                   {"kind": "front", "residual_max": 1e-6, "monotone": True}),
        Invocation("front_delayed", ["front", "--c", _num(c_del)], dly,
                   {"kind": "front", "residual_max": 1e-3, "monotone": False,
                    "band": True}),
        Invocation("simulate_local", ["simulate", "--T", "80"], {"dx": 0.1},
                   {"kind": "simulate", "speed": 2.0, "speed_rtol": 0.05}),
    ]


def nonlocal_mixed(seed: int) -> list:
    j = _Jitter(seed, "nonlocal_mixed")
    # at dt = 0.02 the Picard update plateaus just under the solver's 1e-6
    # stagnation limit for c >= 3 (9.9e-7 at c = 3) and just over it below
    # (1.03e-6 at c = 2.956, exit 2), so c only moves up
    c = j.c(3.0, upward=True)
    kernel = {"atoms": j.atoms([(1.0, 0.3)]),
              "density": {"lo": -4, "hi": 4, "n": 201, "kind": "gaussian",
                          "params": {"sigma": 0.5}}}
    return [
        Invocation("classify", ["classify", "--c", _num(c)],
                   {"kernel": kernel}, {"kind": "classify"}),
        Invocation("front_mixed", ["front", "--c", _num(c)],
                   {"kernel": kernel, "dt": 0.02},
                   {"kind": "front", "residual_max": 1e-4, "monotone": True}),
        Invocation("simulate_mixed", ["simulate", "--T", "15"],
                   {"kernel": kernel, "X": 200}, {"kind": "simulate"}),
    ]


def delay_orbits(seed: int) -> list:
    j = _Jitter(seed, "delay_orbits")
    c_roots, tau_roots = j.c(2.5), j.tau(5.0)
    tau_a, tau_b, tau_p = j.tau(5.0), j.tau(8.0), j.tau(5.0)
    tau_s, c_s = j.tau(4.8124), j.c(7.0)
    return [
        Invocation("roots", ["roots", "--c", _num(c_roots), "--tau",
                             _num(tau_roots), "--eps", "0.01"], None,
                   {"kind": "roots"}),
        Invocation("connect_tau5", ["connect", "--tau", _num(tau_a), "--eps",
                                    "0.01"], None,
                   {"kind": "connect", "eps": 0.01}),
        Invocation("connect_tau8", ["connect", "--tau", _num(tau_b), "--eps",
                                    "0.05"], None,
                   {"kind": "connect", "eps": 0.05}),
        Invocation("periodic", ["periodic", "--tau", _num(tau_p)], None,
                   {"kind": "periodic"}),
        Invocation("semiwave", ["semiwave", "--tau", _num(tau_s), "--c",
                                _num(c_s), "--proper"], None,
                   {"kind": "semiwave", "c": c_s}),
    ]


WORKLOADS = {
    "atomic_fronts": atomic_fronts,
    "nonlocal_mixed": nonlocal_mixed,
    "delay_orbits": delay_orbits,
}


def build(workload: str, seed: int) -> list:
    """The workload's invocations for `seed`, in pass order."""
    invs = WORKLOADS[workload](seed)
    for inv in invs:
        opts = dict(zip(inv.argv[1::2], inv.argv[2::2]))
        if "--c" in opts and not float(opts["--c"]) > 2.0:
            raise ValueError(f"{inv.name}: jittered c={opts['--c']} <= 2")
        if (inv.command in ("periodic", "semiwave")
                and not float(opts["--tau"]) > HOPF_TAU):
            raise ValueError(f"{inv.name}: jittered tau={opts['--tau']} "
                             "is below the periodic-orbit onset 3 pi/2")
    return invs
