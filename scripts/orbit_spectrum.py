"""Periodic-orbit study of the associated delay equation near onset.

For a ladder of delays above 3*pi/2, computes the slowly oscillating
periodic orbit, its Floquet moduli, and the adjoint pairing, and prints a
table showing the square-root amplitude scaling and the single unstable
multiplier.
"""
import argparse
import math

import numpy as np

from nlkpp import dde


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.3])
    args = ap.parse_args()

    print(f"{'delta':>8} {'period':>10} {'amplitude':>10} "
          f"{'amp/sqrt(d)':>12} {'max|mu|':>10} {'pairing':>10}")
    for d in args.deltas:
        tau = dde.HOPF_TAU + d
        orbit = dde.find_periodic(tau)
        mods = np.abs(dde.floquet(orbit)[0])
        pair = dde.resonance_pairing(orbit)
        print(f"{d:8.3f} {orbit.period:10.5f} {orbit.amplitude:10.5f} "
              f"{orbit.amplitude / math.sqrt(d):12.5f} "
              f"{mods.max():10.5f} {pair:10.6f}")


if __name__ == "__main__":
    main()
