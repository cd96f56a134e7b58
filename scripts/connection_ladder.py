"""Singular continuation of connecting orbits of the delay equation.

Runs the zero-to-one continuation ladder in the singular parameter eps and
prints the measured decay rate at minus infinity against the linearized
target at each rung; then runs the periodic-to-point connection and maps
it to an oscillating wave profile, reporting its tail period.
"""
import argparse
import math

from nlkpp import dde


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=5.0)
    ap.add_argument("--eps", type=float, default=1e-2)
    args = ap.parse_args()

    rungs = dde.zero_to_one(args.tau, args.eps)
    print(f"zero-to-one, tau = {args.tau}")
    print(f"{'eps':>10} {'residual':>12} {'decay rate':>12} {'target':>12}")
    for sol in rungs:
        print(f"{sol['eps']:10.2e} {sol['residual']:12.3e} "
              f"{sol['decay_rate']:12.6f} {sol['rate_target']:12.6f}")

    tau_p = dde.HOPF_TAU + 0.1
    c = 1.0 / math.sqrt(5e-3)
    p2p, prof = dde.semiwave(tau_p, c, proper=True)
    print(f"\nperiodic-to-point, tau = {tau_p:.4f}, eps = {p2p['eps']:.4g}")
    print(f"settle time {p2p['settle_time']:.2f}, "
          f"wave speed {c:.3f}, tail period {prof.tail_period:.3f} "
          f"(2 pi c = {2 * math.pi * c:.3f})")


if __name__ == "__main__":
    main()
