#!/usr/bin/env python3
"""Energy study: regenerate the paper's evaluation grid at small scale.

Runs genome, yada and intruder on 4/8/16 cores with and without clock
gating and prints the Fig. 4/5/6 rows plus the Section VIII headline
averages.  This is the same code path the benchmark suite uses, exposed
as a runnable script.

Usage::

    python examples/energy_study.py [--scale tiny|small] [--seed N]
"""

import argparse

from repro.figures import FigureParams, eval_grid_suite
from repro.figures.extract import (
    comparisons_from_results,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    headline_from_comparisons,
)
from repro.harness.reporting import format_table
from repro.scenarios import run_specs
from repro.workloads.registry import PAPER_PROCS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--procs", type=int, nargs="+", default=list(PAPER_PROCS))
    args = parser.parse_args()

    params = FigureParams(scale=args.scale, seed=args.seed,
                          procs=tuple(args.procs))
    print(f"Running 3 apps x {args.procs} processors x 2 gating modes "
          f"(scale={args.scale})...")
    comparisons = comparisons_from_results(
        run_specs(eval_grid_suite(params).expand())
    )
    apps, procs = params.apps, params.procs

    print()
    print(format_table(
        ["app", "procs", "N1", "N2", "speed-up"],
        fig4_rows(comparisons, apps, procs),
        title="Fig. 4 — Total parallel execution time",
    ))
    print()
    print(format_table(
        ["app", "procs", "Eug", "Eg", "energy reduction"],
        [(a, p, round(eu, 1), round(eg, 1), r)
         for a, p, eu, eg, r in fig5_rows(comparisons, apps, procs)],
        title="Fig. 5 — Energy consumption",
    ))
    print()
    print(format_table(
        ["app", "procs", "avgP ungated", "avgP gated", "power reduction"],
        fig6_rows(comparisons, apps, procs),
        title="Fig. 6 — Average power dissipation",
    ))

    headline = headline_from_comparisons(comparisons, apps, procs)
    print()
    print("Section VIII averages over the grid "
          f"({int(headline['points'])} points):")
    print(f"  speed-up          : {headline['average_speedup_pct']:+.1f}%  "
          "(paper: +4%)")
    print(f"  energy reduction  : {headline['average_energy_reduction_pct']:.1f}%  "
          "(paper: 19%)")
    print(f"  power reduction   : {headline['average_power_reduction_pct']:.1f}%  "
          "(paper: 13%)")


if __name__ == "__main__":
    main()
