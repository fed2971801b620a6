#!/usr/bin/env python3
"""Sample Haar-random fusion matrices and map the landscape they live on.

Every matrix is reduced to two numbers: the total probability of a relevant
outcome, and the probability-weighted mean entanglement entropy of those
outcomes.  Scatter enough of them and the feasible region shows its upper
frontier <S> <= 1 - p (in bits).  Threshold mode instead reports, for a grid
of entropy cutoffs s, how often random matrices reach P(S >= s).

Usage:
    python3 random_landscape.py                      # 2000 points, seed 0
    python3 random_landscape.py -n 500 --seed 7
    python3 random_landscape.py --mode threshold
    python3 random_landscape.py --out scatter.csv    # also write rows as CSV
"""

import argparse

import numpy as np

from fusionlab import optimize, reports


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=2000, help="number of matrices")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("expectation", "threshold"),
                    default="expectation")
    ap.add_argument("--out", help="optional CSV path for the raw rows")
    args = ap.parse_args()

    rows, summary = optimize.random_scatter(args.n, args.seed, mode=args.mode)

    if args.mode == "expectation":
        print(f"{args.n} Haar samples (seed {args.seed})")
        print(f"  <S>     mean {summary['S_exp_mean']:.4f}  "
              f"std {summary['S_exp_std']:.4f}")
        print(f"  p_total mean {summary['p_total_mean']:.4f}  "
              f"std {summary['p_total_std']:.4f}")
        p, s = rows.T
        best = np.argmax(s)
        print(f"  most entangled sample: <S> = {s[best]:.4f} bits "
              f"at p_total = {p[best]:.4f}")
        slack = np.min(1.0 - p - s)
        print(f"  min frontier slack 1 - p - <S>: {slack:.4f} "
              f"(never negative)")
    else:
        print(f"{args.n} Haar samples (seed {args.seed}), "
              "distribution of P(S >= s) across samples:")
        for s_key in sorted(summary["targets"]):
            stats = summary["targets"][s_key]
            print(f"  s = {s_key:4}  P mean {stats['P_mean']:.4f}  "
              f"std {stats['P_std']:.4f}  max {stats['P_max']:.4f}")

    if args.out:
        reports.scatter_csv(args.out, rows, mode=args.mode)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
