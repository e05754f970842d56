"""Throughput and latency statistics for protocol chains.

Rates come from the success-state equilibrium probability; latency moments
come from first-hitting-time analysis. estimate_throughput and
estimate_latency return plain (mean, variance) pairs, as markov.hitting_stats
does: the rate with its naive binomial variance, which ignores step-to-step
correlations, and the latency's mean and variance. exact_throughput_variance
gives the exact variance, from one block-matrix power. The nested
estimates extrapolate two-link results to 2^k-link chains by feeding rates
back in as effective link probabilities of the shs closed form. Each
estimate gives one value per point, of a stacked chain or of p and k columns.
"""
from __future__ import annotations

import operator

import numpy as np

from . import markov
from .protocols import ProtocolChain

HORIZON_CAP = 1_000_000
MAX_NESTED_K = 12  # 2^12 links: a simulated batch of 256 trajectories draws 8 MiB a step


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
        raise ArgumentRangeError(name, np.ravel(value).tolist()[bad.argmax()], expected)


# exact_throughput_variance takes the matrix power in slices of at most this
# many bytes of block matrices, so its memory (about four slices) stays bounded
_POWER_SLICE_BYTES = 1 << 23


def _start_row_sums(rows: np.ndarray, f: np.ndarray, start: int, N: int) -> np.ndarray:
    """Sums of the start row of M^N over each n-column block, for stacks rows and f."""
    k, n = f.shape
    m = np.zeros((k, 3, n, 3, n))
    for i in range(3):
        m[:, i, :, i] = rows
    m[:, 0, :, 1] = m[:, 1, :, 2] = rows * f[:, None, :]
    power = np.linalg.matrix_power(m.reshape(k, 3 * n, 3 * n), N)
    return power[:, start].reshape(k, 3, n).sum(axis=-1)


def exact_throughput_variance(chain: ProtocolChain, N: int) -> float | np.ndarray:
    """Exact variance of the N-step success rate from the start state.

    With f = 1_success - pi_s (pi_s from the chain's cached equilibrium),
    S1 = sum_t E f(X_t) and S2 = sum_{t<u} E f(X_t) f(X_u) over steps 1..N:

        N^2 tau^2 Var = (1 - 2 pi_s) S1 + N pi_s (1 - pi_s) + 2 S2 - S1^2.

    M is the 3n x 3n block upper-triangular matrix with diagonal blocks P
    and superdiagonal blocks P diag(f); S1 and S2 are the sums of blocks
    (0, 1) and (0, 2) of M^N's start row. Each sum is O(N), so nothing
    cancels. The variance is checked in steps (tau = 1), whatever tau is:
    down to -1e-12 it is round-off, returned as 0. A stacked chain gives one
    value per point.

    Raises:
        ArgumentRangeError: N is no integer >= 1, or a variance in steps fell below -1e-12.
        HorizonError: N exceeds HORIZON_CAP.
        markov.SingularSystemError: the chain has no unique equilibrium.
    """
    check_horizon(N)
    n = chain.n
    pi = chain.equilibrium[..., chain.success_state]
    rows = chain.matrix.rows.reshape(-1, n, n)
    f = ((np.arange(n) == chain.success_state) - pi[..., None]).reshape(-1, n)
    step = max(1, _POWER_SLICE_BYTES // (9 * n * n * rows.itemsize))
    slices = [slice(lo, lo + step) for lo in range(0, len(rows), step)]
    sums = np.concatenate([_start_row_sums(rows[s], f[s], chain.start_state, N) for s in slices])
    s1, s2 = sums[:, 1].reshape(np.shape(pi)), sums[:, 2].reshape(np.shape(pi))
    scaled = (1.0 - 2.0 * pi) * s1 + N * pi * (1.0 - pi) + 2.0 * s2 - s1 * s1  # N^2 tau^2 Var
    _reject("exact_variance", scaled / N**2, scaled < -1e-12 * N**2, ">= -1e-12 at tau = 1")
    # a tau whose square underflows gives a non-finite variance, which callers
    # reject, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.maximum(scaled, 0.0) / (N**2 * chain.tau**2)


def estimate_throughput(chain: ProtocolChain, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Long-run success rate and the naive N-step variance of the rate.

    Returns (mean_rate, naive_variance) = (pi_s / tau, pi_s (1 - pi_s) / (N tau^2)),
    pi_s the success-state equilibrium probability; exact_throughput_variance
    gives the exact variance over the same horizon.

    Raises:
        ArgumentRangeError: N is not an integer >= 1.
        HorizonError: N exceeds HORIZON_CAP.
        markov.SingularSystemError: the chain has no unique equilibrium.
    """
    check_horizon(N)
    p_succ = chain.equilibrium[..., chain.success_state]
    with np.errstate(divide="ignore", invalid="ignore"):  # as in exact_throughput_variance
        naive = p_succ * (1.0 - p_succ) / (N * chain.tau**2)
    return p_succ / chain.tau, naive


def estimate_latency(chain: ProtocolChain) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of the time to first success from the start state, in time units."""
    means, variances = markov.hitting_stats(chain.matrix, chain.success_state)
    start = chain.start_state
    return means[..., start] * chain.tau, variances[..., start] * chain.tau**2


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float (NaN too) or a string."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def check_horizon(N: int) -> None:
    """Reject a variance horizon N that is not an integer in 1..HORIZON_CAP."""
    if not (_is_integer(N) and N >= 1):
        raise ArgumentRangeError("N", N, "integers >= 1")
    if N > HORIZON_CAP:
        raise HorizonError(N, HORIZON_CAP)


def nested_ok(k, p) -> tuple[np.ndarray, np.ndarray]:
    """The masks of the levels k in 1..MAX_NESTED_K and the link probabilities p in (0, 1].

    k and p are scalars or columns. k needs an integer dtype and p a real one,
    neither bool; otherwise every entry is masked out.
    """
    k, p = np.asarray(k), np.asarray(p)
    k_ok = (1 <= k) & (k <= MAX_NESTED_K) if k.dtype.kind in "iu" else np.zeros(k.shape, bool)
    p_ok = (0.0 < p) & (p <= 1.0) if p.dtype.kind in "iuf" else np.zeros(p.shape, bool)
    return k_ok, p_ok


def check_nested(k, p) -> None:
    """Reject the entries of k and p that nested_ok masks out; the first bad entry raises."""
    k_ok, p_ok = nested_ok(k, p)
    _reject("k", k, ~k_ok, f"integers 1..{MAX_NESTED_K}")
    _reject("p", p, ~p_ok, "(0, 1]")


def _level_rate(x: np.ndarray) -> np.ndarray:
    """The shs equilibrium at pl = pr = x and ps = 1, in a form that nothing cancels in.

    For a double x in (0, 1] the numerator rounds to at most 1 and the
    denominator to at least 2, so the rate is at most 1/2; and 0 maps to 0.
    """
    return x * (2.0 - x) / (3.0 - x * x)


def nested_throughput(p, k, method: str) -> np.ndarray:
    """Recursive throughput estimate for a 2^k-link nested swap chain, one rate per point.

    Level 1 is the shs equilibrium at (p, p) with a deterministic swap. Each
    further level treats the previous level as an effective link: method
    "type1" rescales rates by the level's swap communication time 2^(j-1)
    on the way in and out; "type2" feeds the rate in unscaled. Every level
    rate is at most 1/2, so the type1 rate at level j is at most 2^-j and
    the argument built from it stays in [0, 1]. p and k are scalars or
    columns, broadcast together; a scalar pair gives a numpy scalar.

    Raises:
        FloatingPointError: a rate underflowed to 0 (p subnormal; 0 stays 0
            at every later level).
    """
    check_nested(k, p)
    if method not in ("type1", "type2"):
        raise ArgumentRangeError("method", method, "'type1' or 'type2'")
    p, k = np.broadcast_arrays(np.asarray(p, dtype=float), k)
    rate = np.asarray(_level_rate(p))  # a 0-d array, not a numpy scalar, for scalar input
    for level in range(2, int(k.max(initial=1)) + 1):
        scale = 2.0 ** (level - 1) if method == "type1" else 1.0
        live = k >= level
        rate[live] = _level_rate(scale * rate[live]) / scale
    zero = np.flatnonzero(rate == 0.0)
    if zero.size:
        raise FloatingPointError(f"nested {method} rate underflowed to 0 at k = "
                                 f"{int(k.flat[zero[0]])}, p = {float(p.flat[zero[0]])!r}")
    return rate[()]
