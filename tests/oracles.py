"""Independent brute-force oracles the fast implementations are tested against.

Everything here works directly on the transition matrix with explicit path
summation, dense matrix powers or step-by-step visit probabilities in
high-precision decimal arithmetic, deliberately avoiding the block-matrix
power and the stacked solves used by the package. The asymptotic variance
comes from the Kemeny-Snell fundamental matrix, which the package never
forms. The nested engine's oracle steps its process one time slot at a
time instead.
"""
from __future__ import annotations

import decimal
import math

import numpy as np

# bit generators the engines are checked on; the program itself keys Philox
# streams only, and a second family shows that the walker and the nested
# engine depend on the uniform draws alone, not on the generator behind them
BIT_GENERATORS = {"philox": np.random.Philox, "pcg64": np.random.PCG64}


def reference_generator(config, index: int, bit_generator=np.random.Philox):
    """Trajectory index's stream, built by numpy's own SeedSequence, not the program's keys."""
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    return np.random.Generator(bit_generator(seq))


def hitting_moments_bruteforce(rows, start: int, target: int,
                               tol: float = 1e-10, block: int = 64,
                               max_steps: int = 10_000_000):
    """Mean and variance of the first-hitting time by truncated path summation.

    Sums t^m * P(first hit at step t) outright, then bounds the discarded
    tail with a geometric envelope: over any `block` steps the no-hit
    survival shrinks by at least alpha = max_u P(no hit in `block` steps
    from u), so the tail beyond horizon H contributes at most

        sum_m (H + (m+1) block)^r * survival(H) * alpha^m.

    Runs until both the mean tail and the induced variance error are
    below tol. Returns (mean, variance).
    """
    P = np.asarray(rows, dtype=float)
    keep = [i for i in range(P.shape[0]) if i != target]
    pos = keep.index(start)
    Q = P[np.ix_(keep, keep)]
    R = P[keep, target]

    v = np.zeros(len(keep))
    v[pos] = 1.0
    # exactly rounded sums: plain accumulation drifts above the comparison
    # tolerance once horizons reach tens of thousands of steps
    m1_terms: list[float] = []
    m2_terms: list[float] = []
    t = 0
    while True:
        t += 1
        hit = float(v @ R)
        m1_terms.append(t * hit)
        m2_terms.append(t * t * hit)
        v = v @ Q
        survival = float(v.sum())
        if t % block == 0 or survival == 0.0:
            alpha = float(np.linalg.matrix_power(Q, block).sum(axis=1).max())
            if alpha < 1.0:
                shrink = 1.0 - alpha
                a_top = t + block
                tail_m1 = survival * (a_top / shrink + block * alpha / shrink**2)
                tail_m2 = survival * (a_top**2 / shrink
                                      + 2.0 * a_top * block * alpha / shrink**2
                                      + block**2 * alpha * (1.0 + alpha) / shrink**3)
                m1_so_far = math.fsum(m1_terms)
                var_err = tail_m2 + 2.0 * (m1_so_far + tail_m1) * tail_m1 + tail_m1**2
                if tail_m1 < tol and var_err < tol:
                    break
        if t > max_steps:
            raise RuntimeError(f"oracle did not converge within {max_steps} steps")
    m1 = math.fsum(m1_terms)
    m2 = math.fsum(m2_terms)
    return m1, m2 - m1 * m1


def finite_horizon_variance_bruteforce(rows, start: int, success: int,
                                       N: int, tau: float = 1.0) -> float:
    """Variance of the N-step success rate via the literal double sum.

    Uses dense matrix powers for the visit probabilities and an O(N^2)
    loop over ordered step pairs. Small N only.
    """
    P = np.asarray(rows, dtype=float)
    powers = [np.linalg.matrix_power(P, k) for k in range(N + 1)]
    a = [powers[k][start, success] for k in range(N + 1)]
    b = [powers[k][success, success] for k in range(N + 1)]
    single = sum(ak * (1.0 - ak) for ak in a[1:])
    cross = sum(a[k] * (b[l - k] - a[l])
                for k in range(1, N + 1) for l in range(k + 1, N + 1))
    return (single + 2.0 * cross) / (N**2 * tau**2)


def finite_horizon_variance_decimal(rows, start: int, success: int, N: int,
                                    digits: int = 45) -> float:
    """Variance of the N-step success count over N^2, in `digits`-digit decimals.

    Steps the two visit-probability sequences a_k = (P^k)[start, success]
    and b_k = (P^k)[success, success] one step at a time and evaluates the
    ordered-pair double sum

        N^2 Var = sum_k a_k (1 - a_k) + 2 sum_{k<l} a_k (b_{l-k} - a_l)

    through prefix sums. In floating point its O(N^2) terms cancel down to
    an O(N) result and lose digits; at 45 digits the loss costs nothing. The
    float rows are read exactly and each is rescaled to sum to 1, so that an
    ulp of row-sum error does not compound over N steps. Returns the
    variance of the per-step rate (tau = 1) as a float.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        P = [[decimal.Decimal(float(x)) for x in row] for row in np.asarray(rows, dtype=float)]
        P = [[x / sum(row) for x in row] for row in P]
        n = len(P)
        # (i, j, P_ij) over the nonzero entries only
        entries = [(i, j, P[i][j]) for i in range(n) for j in range(n) if P[i][j]]
        zero = decimal.Decimal(0)
        u = [zero] * n
        v = [zero] * n
        u[start] = v[success] = decimal.Decimal(1)
        a, b = [], []
        for _ in range(N):
            nu, nv = [zero] * n, [zero] * n
            for i, j, p in entries:
                nu[j] += u[i] * p
                nv[j] += v[i] * p
            u, v = nu, nv
            a.append(u[success])
            b.append(v[success])
        single = sum(ak * (1 - ak) for ak in a)
        # sum_{l>k} (b_{l-k} - a_l) = B_{N-k} - (A_N - A_k), with A, B the prefix sums
        acc_a, acc_b = [zero], [zero]
        for ak, bk in zip(a, b):
            acc_a.append(acc_a[-1] + ak)
            acc_b.append(acc_b[-1] + bk)
        cross = sum(a[k - 1] * (acc_b[N - k] - acc_a[N] + acc_a[k]) for k in range(1, N + 1))
        return float((single + 2 * cross) / (N * N))


def nested_rate_decimal(p: float, k: int, method: str, digits: int = 60) -> decimal.Decimal:
    """The nested estimate's recursion in decimals, to about `digits` significant digits.

    Level 1 is the shs closed form at pl = pr = p and ps = 1, taken as
    written, pl pr ps (1 - ql qr) / (2 pl pr + ql pr^2 + qr pl^2 - pl pr ql qr);
    level j feeds s x back in as both link probabilities, x the level j - 1
    rate, and divides the result by s, where s = 2^(j-1) for "type1" and 1
    for "type2". 1 - ql qr cancels about |log10 p| digits, so the context
    carries twice that many more; the float p is read exactly.
    """
    with decimal.localcontext() as ctx:
        x = decimal.Decimal(float(p))
        ctx.prec = digits + 2 * max(0, -x.adjusted()) + 10
        for level in range(1, k + 1):
            s = decimal.Decimal(2 ** (level - 1) if method == "type1" else 1)
            y = s * x
            q = 1 - y
            x = y * y * (1 - q * q) / (2 * y * y + 2 * q * y * y - y * y * q * q) / s
        return +x


def asymptotic_variance_kemeny_snell(rows, success: int) -> float:
    """sigma^2 = lim Var(count over N steps) / N, from the fundamental matrix.

    sigma^2 = pi_s (1 - pi_s) + 2 pi_s (Z_ss - 1) with Z = (I - P + 1 pi)^-1
    (Kemeny & Snell, Finite Markov Chains, 4.6); pi = 1^T (I - P + E)^-1,
    where E is the all-ones matrix, needs the chain to be ergodic.
    """
    P = np.asarray(rows, dtype=float)
    n = P.shape[0]
    eye = np.eye(n)
    pi = np.linalg.solve((eye - P + 1.0).T, np.ones(n))
    Z = np.linalg.inv(eye - P + np.outer(np.ones(n), pi))
    ps = pi[success]
    return float(ps * (1.0 - ps) + 2.0 * ps * (Z[success, success] - 1.0))


def visit_count_moments_by_path_enumeration(rows, start: int, success: int, N: int):
    """Exact mean and variance of the N-step success-visit count.

    Walks every length-N path and accumulates probability-weighted visit
    counts. Exponential in N; keep n^N small.
    """
    P = np.asarray(rows, dtype=float)
    n = P.shape[0]
    m0 = m1 = m2 = 0.0
    stack = [(start, 0, 1.0, 0)]
    while stack:
        state, depth, prob, visits = stack.pop()
        if prob == 0.0:
            continue
        if depth == N:
            m0 += prob
            m1 += prob * visits
            m2 += prob * visits * visits
            continue
        for nxt in range(n):
            stack.append((nxt, depth + 1, prob * P[state, nxt],
                          visits + (1 if nxt == success else 0)))
    assert abs(m0 - 1.0) < 1e-12
    return m1, m2 - m1 * m1


def equilibrium_bruteforce(rows, iterations: int = 200_000) -> np.ndarray:
    """Stationary distribution by repeated multiplication from uniform.

    Iterates the lazy matrix (I + P)/2, which shares P's stationary
    distribution and converges even for periodic chains.
    """
    P = np.asarray(rows, dtype=float)
    lazy = 0.5 * (P + np.eye(P.shape[0]))
    v = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iterations):
        nxt = v @ lazy
        if np.abs(nxt - v).max() < 1e-15:
            return nxt
        v = nxt
    return v


def nested_counts_stepwise(k: int, p: float, config,
                           bit_generator=np.random.Philox) -> tuple[int, ...]:
    """Success counts of the nested engine, stepped one time slot at a time.

    The slot-by-slot form of the process that simulator.simulate_nested
    resolves round by round, reading each trajectory's uniforms in the same
    order (one row of 2^k draws per step). Per step: idle links attempt
    generation with probability p; two sibling segments at level j-1 start
    a level-j swap that completes 2^(j-1) steps later; a completed top-level
    pair is consumed the step it forms and frees every link from the next
    step on. Swap starts are evaluated after the step's generation outcomes,
    and links under a pending or completed swap do not regenerate. The span
    bookkeeping (disjoint power-of-two segments, timers only between
    consumed children) is checked after every step. Each trajectory draws
    from reference_generator on bit_generator. Debug-scale runs only.
    """
    leaves = 1 << k
    steps = config.steps_per_trajectory
    b = config.trajectories
    uniforms = np.empty((b, steps, leaves))
    for i in range(b):
        reference_generator(config, i, bit_generator).random(out=uniforms[i])
    seg = [np.zeros((b, leaves >> j), dtype=bool) for j in range(k + 1)]
    timer = [None] + [np.zeros((b, leaves >> j), dtype=np.int32) for j in range(1, k + 1)]
    counts = np.zeros(b, dtype=np.int64)

    def spans(j):
        # links under a level-j segment or pending level-j swap
        return np.repeat(seg[j] | (timer[j] > 0), 1 << j, axis=1)

    for c in range(steps):
        busy_at_step_start = seg[0] | np.logical_or.reduce([spans(j) for j in range(1, k + 1)])

        # advance pending swaps; the top level scores and resets
        for j in range(1, k + 1):
            t = timer[j]
            running = t > 0
            t[running] -= 1
            completed = running & (t == 0)
            if j == k:
                consumed = completed[:, 0]
                counts[consumed] += 1
                for jj in range(k + 1):
                    seg[jj][consumed] = False
                    if jj > 0:
                        timer[jj][consumed] = 0
            else:
                seg[j][completed] = True

        # links idle at the start of the step attempt generation
        seg[0] |= ~busy_at_step_start & (uniforms[:, c, :] < p)

        # sibling segments merge: consume children, arm the timer
        for j in range(1, k + 1):
            left = seg[j - 1][:, 0::2]
            right = seg[j - 1][:, 1::2]
            ready = left & right & (timer[j] == 0) & ~seg[j]
            timer[j][ready] = 1 << (j - 1)
            left[ready] = False
            right[ready] = False

        cover = seg[0].astype(np.int32)
        for j in range(1, k + 1):
            if (seg[j] & (timer[j] > 0)).any():
                raise RuntimeError("nested invariant violated: segment and pending swap coexist")
            cover += spans(j)
        if cover.max(initial=0) > 1:
            raise RuntimeError("nested invariant violated: overlapping spans")
    return tuple(int(c) for c in counts)
