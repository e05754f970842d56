#!/usr/bin/env python3
"""Cross-check the analytical rates against fresh Monte Carlo runs.

Runs the compare subcommand on one chain per protocol family and on two
nested chains, and prints the analytical rate, the simulated rate, and
their distance in standard errors from each row of its CSV. A healthy
build keeps every chain row within a few sigma.
"""
import argparse
import os
import sys
import tempfile

from repeaterlab import cli

CHAINS = [
    ("single-heralded", ("--protocol", "multiherald", "--probs", "0.5")),
    ("double-heralded", ("--protocol", "multiherald", "--probs", "0.4,0.7")),
    ("two-link single-heralded",
     ("--protocol", "shs", "--pl", "0.5", "--pr", "0.6", "--ps", "0.8")),
    ("two-link double-heralded",
     ("--protocol", "dhs", "--pl", "0.5,0.6", "--pr", "0.7,0.4", "--ps", "0.9")),
]
NESTED = [(1, 0.5), (2, 0.5)]
TARGETS = CHAINS + [(f"nested k={k}", ("--nested", "--k", str(k), "--p", str(p)))
                    for k, p in NESTED]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--trajectories", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    run = ("--steps", str(args.steps), "--trajectories", str(args.trajectories),
           "--seed", str(args.seed))

    print(f"{'case':32s} {'analytical':>12s} {'simulated':>12s} {'sigma':>8s}")
    worst = 0.0
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "compare.csv")
        for name, target in TARGETS:
            code = cli.main(["compare", *target, *run, "--output", out])
            if code:
                return code
            with open(out) as handle:
                rows = [line.split(",") for line in handle.read().splitlines()[1:]]
            for quantity, rate, simulated, _, sigma in rows:
                rate, simulated, sigma = float(rate), float(simulated), float(sigma)
                # a chain has one row; a nested target one per estimate,
                # nested_type1_rate and nested_type2_rate
                if quantity == "mean_throughput_per_step":
                    label = name
                    worst = max(worst, sigma)
                else:
                    label = f"{name} {quantity.split('_')[1]}"
                print(f"{label:32s} {rate:12.6f} {simulated:12.6f} {sigma:8.2f}")

    # nested estimates for k >= 2 are approximations, so only the exact
    # chain rows gate the exit code
    if worst > 5.0:
        print(f"worst chain deviation {worst:.1f} sigma", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
