"""Solve wave profiles across the three interaction regimes and tabulate
their diagnostics: a local front, a monotone front for an advanced kernel,
and an oscillating front for a strongly delayed kernel.

Writes one CSV per front into --out, in the CLI's format (`t,phi`, values
in %.12g), and prints a summary row for each.
"""
import argparse
from pathlib import Path

from nlkpp import profiles as pf
from nlkpp.cli import write_csv
from nlkpp.kernels import dirac


CASES = [
    ("local_c3", 3.0, 0.0, 0.0025),
    ("advanced_c2.5", 2.5, -0.5, 0.0025),
    ("delayed_c2.5", 2.5, 5.0, 0.005),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="front_gallery")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"{'case':>16} {'residual':>12} {'monotone':>9} "
          f"{'min':>10} {'max':>10} {'U(c,K)':>10}")
    for name, c, shift, dt in CASES:
        k = dirac(shift)
        ctx = pf.WaveContext(c, k)
        prof = pf.solve_front(ctx, dt=dt)
        d = prof.diagnostics
        write_csv(out / f"{name}.csv", ["t", "phi"], [prof.grid, prof.values])
        print(f"{name:>16} {d['residual_sup']:12.3e} "
              f"{str(d['monotone']):>9} {prof.values.min():10.4f} "
              f"{prof.values.max():10.4f} {ctx.U:10.4f}")


if __name__ == "__main__":
    main()
