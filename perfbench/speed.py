"""Machine-speed probe for timing on a shared, noisy host.

On a host whose cores are shared with other tenants, the same code runs
20-40% slower for stretches of seconds to minutes, so raw wall times of one
command spread by more than any useful regression bound.  `SpeedProbe`
samples the speed while the program runs: every PERIOD_S a SIGALRM handler
runs a fixed unit of work, a pure-Python loop plus one small `np.interp`,
the two kinds of work the package does, and times a second, cache-warm run
of it.  A wall time is then rescaled to the reference speed at which that
warm unit takes REF_S:

    seconds at reference speed = (wall - probe time) * REF_S / mean sample

The unit uses nothing from the package under test, and timing it warm keeps
the caches the package leaves behind out of the sample, so a change to the
package cannot move the yardstick.  The probe runs between bytecodes of the
main thread (about 2% of the time) and all of its time is subtracted.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
LOOPS = 400
_X = np.linspace(0.0, 99.0, 4000)
_XP = np.arange(100.0)
_FP = np.sin(_XP)
# the warm unit's duration on an uncontended core of the reference machine
# (a 2-core Xeon VM, Python 3.11): rescaled seconds are seconds there
REF_S = 50e-6


def rescale(wall: float, samples: list, spent: list) -> float:
    """`wall` seconds at the reference speed, given the warm-unit samples
    and the handler times recorded while they elapsed."""
    if not samples:
        return wall
    return (wall - sum(spent)) * REF_S * len(samples) / sum(samples)


def _unit():
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    np.interp(_X, _XP, _FP)


class SpeedProbe:
    """Context manager sampling the probe unit every PERIOD_S seconds."""

    def __init__(self):
        self.samples = []       # warm unit durations
        self.spent = []         # whole handler durations
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _unit()
        t1 = perf_counter()
        _unit()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def rescale(self, wall: float, since: int) -> float:
        """`wall` seconds measured since `mark()` returned `since`, at the
        reference speed.  Falls back to the last 100 samples when the
        interval was too short to hold one."""
        if since < len(self.samples):
            return rescale(wall, self.samples[since:], self.spent[since:])
        # no tick in the interval: the machine's recent speed, nothing spent
        return rescale(wall, self.samples[-100:], [])
