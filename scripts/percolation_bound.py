#!/usr/bin/env python3
"""Estimate the probability that the centre cell falls outside the giant
open component of thickened Bernoulli noise, against the union bound
48 (2c+1)^2 eps."""

import argparse
import os

from noisysft.harness import ExperimentSpec, format_csv, run_perc_sweep, write_plot


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", default="0.001,0.003")
    ap.add_argument("--c", default="1,2")
    ap.add_argument("--box", type=int, default=1024)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    eps = tuple(float(t) for t in args.epsilons.split(","))
    rows = []
    for c in (int(t) for t in args.c.split(",")):
        spec = ExperimentSpec(kind="perc", epsilons=eps, box=(args.box,),
                              trials=args.trials, seed=args.seed, c=c)
        rows.extend(run_perc_sweep(spec))
    path = os.path.join(args.out_dir, "percolation.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(rows))
    write_plot(os.path.join(args.out_dir, "percolation.svg"), rows,
               "origin exclusion vs union bound")
    for row in rows:
        if row["metric"] == "origin_excluded":
            print(f"{row['sft']} eps={row['epsilon']:<7} "
                  f"P(excluded)={row['value']:.5f} +-{row['ci95']:.5f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
