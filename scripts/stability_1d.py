#!/usr/bin/env python3
"""Sweep Bernoulli noise over the golden-mean shift and plot the repaired
changed fraction against the linear envelope."""

import argparse
import os

from noisysft.harness import ExperimentSpec, format_csv, run_sweep, write_plot


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sft", default="golden-mean")
    ap.add_argument("--epsilons", default="0.002,0.005,0.01,0.02")
    ap.add_argument("--box", type=int, default=100_000)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    eps = tuple(float(t) for t in args.epsilons.split(","))
    spec = ExperimentSpec(
        kind="repair1d", sft=args.sft, epsilons=eps, box=(args.box,),
        trials=args.trials, seed=args.seed, threads=args.threads)
    rows = run_sweep(spec)
    path = os.path.join(args.out_dir, f"stability_{args.sft}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(rows))
    plot = os.path.join(args.out_dir, f"stability_{args.sft}.svg")
    write_plot(plot, rows)
    for row in rows:
        if row["metric"] == "changed_fraction":
            print(f"eps={row['epsilon']:<8} changed={row['value']:.6f} "
                  f"+-{row['ci95']:.6f}")
    print(f"wrote {path} and {plot}")


if __name__ == "__main__":
    main()
