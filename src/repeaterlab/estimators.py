"""Throughput and latency statistics for protocol chains.

Rates come from the success-state equilibrium probability; latency moments
come from first-hitting-time analysis. The finite-horizon throughput
variance is available in two flavors: the naive binomial form that ignores
step-to-step correlations, and the exact form that accumulates the full
covariance double sum over the horizon. The nested estimators extrapolate
two-link results to 2^k-link chains by feeding rates back in as effective
link probabilities. The rate, the naive variance and the latency moments are
elementwise, so a stacked chain (see protocols) gets one value per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import markov
from .protocols import ProtocolChain, TwoLinkParams, cf_equilibrium_shs

HORIZON_CAP = 1_000_000
MAX_NESTED_K = 12  # 2^12 links: one step of draws for a batch of 1024 trajectories is 32 MiB


class HorizonError(ValueError):
    def __init__(self, N, cap):
        super().__init__(f"horizon N = {N} exceeds cap {cap}")
        self.N = N
        self.cap = cap


class ArgumentRangeError(ValueError):
    def __init__(self, name, value, expected):
        super().__init__(f"{name} = {value!r} outside {expected}")
        self.name = name
        self.value = value


def _reject(name, value, bad, expected):
    """Raise ArgumentRangeError at the first entry of value (a float or an array) where bad holds."""
    bad = np.ravel(bad)
    if bad.any():
        raise ArgumentRangeError(name, np.ravel(value)[bad.argmax()].item(), expected)


@dataclass(frozen=True)
class ThroughputEstimate:
    """Success rate and its finite-horizon variance.

    mean_rate is in pairs per time unit; variances are in rate-squared
    units for a horizon of horizon_N steps of duration tau. For a stacked
    chain, mean_rate and naive_variance hold one entry per point.
    """

    mean_rate: float | np.ndarray
    naive_variance: float | np.ndarray
    exact_variance: float | None
    horizon_N: int
    tau: float

    def __post_init__(self):
        rate = np.asarray(self.mean_rate)
        _reject("mean_rate", rate, ~((0.0 <= rate) & (rate <= 1.0 / self.tau + 1e-12)),
                "[0, 1/tau]")
        _reject("naive_variance", self.naive_variance,
                np.asarray(self.naive_variance) < -1e-12, ">= -1e-12")
        # exact_throughput_variance checks exact_variance itself


@dataclass(frozen=True)
class LatencyEstimate:
    """First-success time statistics in time units (mean) and squared (variance).

    For a stacked chain both hold one entry per point.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray

    def __post_init__(self):
        _reject("variance", self.variance, np.asarray(self.variance) < -1e-12, ">= -1e-12")


@dataclass(frozen=True)
class NestedEstimate:
    """Per-level throughput sequence of a 2^k-link nested chain estimate.

    Rates are per elementary step. clamp_events lists (level, raw_argument)
    pairs for any recursion argument that had to be clamped into [0, 1];
    clamped is the loud flag for that. per_level_rates[-1] is the answer.
    """

    level_k: int
    per_level_rates: tuple[float, ...]
    method: str
    clamp_events: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        for r in self.per_level_rates:
            if not 0.0 < r <= 0.5 + 1e-12:
                raise ArgumentRangeError("rate", r, "(0, 1/2]")

    @property
    def rate(self) -> float:
        return self.per_level_rates[-1]

    @property
    def clamped(self) -> bool:
        return bool(self.clamp_events)


def _visit_probability_sequences(rows: np.ndarray, start: int, success: int,
                                 N: int) -> tuple[np.ndarray, np.ndarray]:
    """a[k-1] = (P^k)[start, success] and b[k-1] = (P^k)[success, success]."""
    n = rows.shape[0]
    v = np.zeros((2, n))
    v[0, start] = 1.0
    v[1, success] = 1.0
    buf = np.empty_like(v)
    a = np.empty(N)
    b = np.empty(N)
    for k in range(N):
        np.dot(v, rows, out=buf)
        v, buf = buf, v
        a[k] = v[0, success]
        b[k] = v[1, success]
    return a, b


def exact_throughput_variance(chain: ProtocolChain, N: int) -> float:
    """Exact variance of the N-step success rate from the start state.

    Accumulates the covariance double sum over ordered step pairs plus the
    per-step Bernoulli terms, using only the two scalar visit-probability
    sequences (O(N n^2) work, O(N) memory):

        N^2 tau^2 Var = sum_k a_k (1 - a_k)
                        + 2 sum_{k<l} (b_{l-k} - a_l) a_k

    Raises:
        ValueError: the chain is a stack of chains; take one with chain.point(i).
        ArgumentRangeError: the variance came out below -1e-12.
    """
    rows = chain.matrix.rows
    if rows.ndim != 2:
        raise ValueError(f"exact_throughput_variance takes one chain, not a stack {rows.shape}")
    a, b = _visit_probability_sequences(rows, chain.start_state, chain.success_state, N)
    single = float(np.sum(a * (1.0 - a)))
    # sum_{k<l} (b_{l-k} - a_l) a_k = sum_k a_k [B_{N-k} - (S_N - S_k)]
    acc_b = np.cumsum(b)
    acc_a = np.cumsum(a)
    if N > 1:
        head = a[: N - 1]
        cross = float(np.sum(head * (acc_b[: N - 1][::-1] - acc_a[-1] + acc_a[: N - 1])))
    else:
        cross = 0.0
    var = (single + 2.0 * cross) / (N**2 * chain.tau**2)
    if var < -1e-12:
        raise ArgumentRangeError("exact_variance", var, ">= -1e-12")
    return var


def estimate_throughput(chain: ProtocolChain, N: int, exact: bool = False) -> ThroughputEstimate:
    """Long-run success rate plus naive and (optionally) exact N-step variance.

    Args:
        chain: protocol chain, or a stacked chain when exact is False; its
            equilibrium must exist (reducible degenerate parameter corners
            surface solver errors instead).
        N: horizon in steps for the variance of the rate estimator, at most
            ``HORIZON_CAP``.
        exact: also evaluate the exact finite-horizon variance; O(N) passes.

    Returns:
        ThroughputEstimate with mean_rate = pi_success / tau and
        naive_variance = pi (1 - pi) / (N tau^2).
    """
    check_horizon(N)
    p_succ = chain.equilibrium[..., chain.success_state]
    naive = p_succ * (1.0 - p_succ) / (N * chain.tau**2)
    ex = exact_throughput_variance(chain, N) if exact else None
    return ThroughputEstimate(p_succ / chain.tau, naive, ex, N, chain.tau)


def estimate_latency(chain: ProtocolChain) -> LatencyEstimate:
    """Mean and variance of the time to first success from the start state."""
    means, variances = markov.hitting_stats(chain.matrix, chain.success_state)
    start = chain.start_state
    return LatencyEstimate(means[..., start] * chain.tau, variances[..., start] * chain.tau**2)


def check_horizon(N: int) -> None:
    """Reject a variance horizon N outside 1..HORIZON_CAP."""
    if N < 1:
        raise ArgumentRangeError("N", N, ">= 1")
    if N > HORIZON_CAP:
        raise HorizonError(N, HORIZON_CAP)


def check_nested(k: int, p: float) -> None:
    """Reject a nesting level k outside 1..MAX_NESTED_K or a link probability outside (0, 1]."""
    if not (isinstance(k, int) and 1 <= k <= MAX_NESTED_K):
        raise ArgumentRangeError("k", k, f"integers 1..{MAX_NESTED_K}")
    if not 0.0 < p <= 1.0:
        raise ArgumentRangeError("p", p, "(0, 1]")


def nested_throughput(p: float, k: int, method: str) -> NestedEstimate:
    """Recursive throughput estimate for a 2^k-link nested swap chain.

    Level 1 is the shs equilibrium at (p, p) with a deterministic swap. Each
    further level treats the previous level as an effective link: method
    "type1" rescales rates by the level's swap communication time 2^(k-1)
    on the way in and out; "type2" feeds the rate in unscaled. Arguments
    ever landing outside [0, 1] are clamped and flagged on the result.

    Raises:
        FloatingPointError: a level's rate underflowed to 0 (p far too small
            for the double range).
    """
    check_nested(k, p)
    if method not in ("type1", "type2"):
        raise ArgumentRangeError("method", method, "'type1' or 'type2'")

    def checked(level: int, rate: float) -> float:
        if rate == 0.0:
            raise FloatingPointError(f"nested rate at level {level} underflowed to 0 (p = {p!r})")
        return rate

    rates = [checked(1, cf_equilibrium_shs(TwoLinkParams((p,), (p,), 1.0)))]
    clamp_events = []
    for level in range(2, k + 1):
        scale = float(2 ** (level - 1))
        raw = scale * rates[-1] if method == "type1" else rates[-1]
        arg = min(max(raw, 0.0), 1.0)
        if arg != raw:
            clamp_events.append((level, raw))
        step = cf_equilibrium_shs(TwoLinkParams((arg,), (arg,), 1.0))
        rates.append(checked(level, step / scale if method == "type1" else step))
    return NestedEstimate(k, tuple(rates), method, tuple(clamp_events))
