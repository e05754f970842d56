#!/usr/bin/env python3
"""Cross-check the analytical rates against fresh Monte Carlo runs.

Runs one simulation per protocol family plus one stacked call for two
nested chains, and prints the analytical rate, the simulated rate, and
their distance in standard errors. A healthy build keeps every chain row
within a few sigma.
"""
import argparse
import sys

from repeaterlab import markov, protocols, simulator
from repeaterlab.estimators import nested_throughput

CHAINS = [
    ("single-heralded", protocols.MultiHeraldParams((0.5,))),
    ("double-heralded", protocols.MultiHeraldParams((0.4, 0.7))),
    ("two-link single-heralded", protocols.TwoLinkParams((0.5,), (0.6,), 0.8)),
    ("two-link double-heralded", protocols.TwoLinkParams((0.5, 0.6), (0.7, 0.4), 0.9)),
]
NESTED = [(1, 0.5), (2, 0.5)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--trajectories", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    config = simulator.SimConfig(seed=args.seed, steps_per_trajectory=args.steps,
                                 trajectories=args.trajectories)

    print(f"{'case':32s} {'analytical':>12s} {'simulated':>12s} {'sigma':>8s}")
    worst = 0.0
    for name, params in CHAINS:
        chain = protocols.build_chain(params)
        rate = markov.equilibrium(chain.matrix)[chain.success_state]
        result = simulator.simulate_chain(chain, config)
        sigma = abs(rate - result.mean_throughput) / result.std_error()
        worst = max(worst, sigma)
        print(f"{name:32s} {rate:12.6f} {result.mean_throughput:12.6f} {sigma:8.2f}")
    for (k, p), result in zip(NESTED, simulator.simulate_nested(NESTED, config)):
        for method in ("type1", "type2"):
            rate = nested_throughput(p, k, method).rate
            sigma = abs(rate - result.mean_throughput) / result.std_error()
            print(f"{f'nested k={k} {method}':32s} {rate:12.6f} "
                  f"{result.mean_throughput:12.6f} {sigma:8.2f}")

    # nested estimates for k >= 2 are approximations, so only the exact
    # chain rows gate the exit code
    if worst > 5.0:
        print(f"worst chain deviation {worst:.1f} sigma", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
