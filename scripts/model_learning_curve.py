#!/usr/bin/env python3
"""Transition-model quality over time: daily holdout MAE for several seeds.

Writes one `day,holdout_mae_c` CSV per seed and prints the seed-averaged
curve; the error should collapse within the first three weeks.
"""

import argparse
from pathlib import Path

import numpy as np

from heatbench.harness import Scenario, build_traces, simulate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--out", default="results/model_curve")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curves = {}
    for seed in args.seeds:
        scenario = Scenario(days=args.days, agent="mbrl", seed=seed)
        _, agent = simulate(scenario, "mbrl", *build_traces(scenario))
        curves[seed] = dict(agent.mae_history)
        path = out / f"model_mae_seed{seed}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("day,holdout_mae_c\n")
            for day, mae in agent.mae_history:
                fh.write(f"{day},{mae!r}\n")
        print(f"seed {seed}: wrote {path}")

    days = sorted(set().union(*(c.keys() for c in curves.values())))
    print("day  mean holdout MAE [C]")
    for day in days:
        values = [curves[s][day] for s in args.seeds if day in curves[s]]
        print(f"{day:3d}  {np.mean(values):.3f}")


if __name__ == "__main__":
    main()
