"""Exact throughput and latency statistics for repeater-chain protocols.

The package splits into a generic finite Markov chain layer (markov), the
protocol chain builders and closed forms (protocols), throughput/latency
estimators (estimators), seeded Monte Carlo engines (simulator), and a CLI
(cli) that drives sweeps and figure data generation.
"""
from .estimators import (
    estimate_latency,
    estimate_throughput,
    exact_throughput_variance,
    nested_throughput,
)
from .markov import (
    StochasticMatrix,
    equilibrium,
    hitting_stats,
    validate,
)
from .protocols import (
    MultiHeraldParams,
    ProtocolChain,
    TwoLinkParams,
    build_chain,
    cf_bkp_exact_mean_throughput,
    cf_bkp_throughput_variance_leading,
    cf_equilibrium_multiheralded,
    cf_equilibrium_shs,
    cf_latency_variance_multiheralded,
    cf_latency_variance_shs,
)
from .simulator import SimConfig, simulate_chain, simulate_nested

__version__ = "0.1.0"

__all__ = [
    "MultiHeraldParams",
    "ProtocolChain",
    "SimConfig",
    "StochasticMatrix",
    "TwoLinkParams",
    "build_chain",
    "cf_bkp_exact_mean_throughput",
    "cf_bkp_throughput_variance_leading",
    "cf_equilibrium_multiheralded",
    "cf_equilibrium_shs",
    "cf_latency_variance_multiheralded",
    "cf_latency_variance_shs",
    "equilibrium",
    "estimate_latency",
    "estimate_throughput",
    "exact_throughput_variance",
    "hitting_stats",
    "nested_throughput",
    "simulate_chain",
    "simulate_nested",
    "validate",
]
