"""Finite discrete-time Markov chain analysis on stacks of small dense matrices.

Protocol chains have a handful of states, so the equilibrium and the
hitting-time moments come from direct linear solves, not from iterative or
sparse methods. Every function takes rows of shape (..., n, n): a leading
stack of chains of one size, solved together by numpy's stacked solve and
inverse, with results of shape (..., n). One (n, n) matrix is the empty
stack. A check fails for the whole stack if it fails at any chain in it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_ATOL = 1e-12
EQUILIBRIUM_RESIDUAL_TOL = 1e-12  # bound on max|pi P - pi| of a returned equilibrium


class MarkovError(Exception):
    """Base class for structural and numerical chain errors."""


class NonSquareError(MarkovError):
    def __init__(self, shape):
        super().__init__(f"transition matrix must be square and 2-d, got shape {shape}")
        self.shape = shape


class RowSumError(MarkovError):
    def __init__(self, row, total):
        super().__init__(f"row {row} sums to {total!r}, expected 1 within {ROW_SUM_ATOL}")
        self.row = row
        self.total = total


class EntryRangeError(MarkovError):
    def __init__(self, row, col, value):
        super().__init__(f"entry ({row}, {col}) = {value!r} outside [0, 1]")
        self.row = row
        self.col = col
        self.value = value


class SingularSystemError(MarkovError):
    """Equilibrium linear solve degenerated (typically a reducible chain)."""


class SingularMatrixError(MarkovError):
    """I - Q is not invertible for the requested target state."""


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StochasticMatrix:
    """Validated row-stochastic transition matrix, or a stack of them. Build via :func:`validate`."""

    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[-1]


def validate(rows) -> StochasticMatrix:
    """Check and wrap a raw matrix, or a stack of them, as row-stochastic.

    Args:
        rows: array-like of reals of shape (..., n, n); rows must lie in
            [0, 1] and sum to 1 within ``ROW_SUM_ATOL``.

    Returns:
        StochasticMatrix wrapping a read-only float copy of the input.

    Raises:
        NonSquareError: the last two axes are not square with n >= 1.
        EntryRangeError: some entry falls outside [0, 1].
        RowSumError: some row sum deviates from 1 beyond tolerance.
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise NonSquareError(a.shape)
    bad = np.argwhere((a < 0.0) | (a > 1.0) | ~np.isfinite(a))
    if bad.size:
        r, c = map(int, bad[0, -2:])
        raise EntryRangeError(r, c, float(a[tuple(bad[0])]))
    sums = a.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if off.max() > ROW_SUM_ATOL:
        at = np.unravel_index(off.argmax(), off.shape)
        raise RowSumError(int(at[-1]), float(sums[at]))
    return StochasticMatrix(_readonly(a.copy()))


def equilibrium(matrix: StochasticMatrix) -> np.ndarray:
    """Stationary distribution pi with pi P = pi and sum(pi) = 1, read-only.

    Solves pi (P - I) = 0 directly, with one equation replaced by the
    normalization, and checks the fixed-point residual max|pi P - pi|
    of the result against ``EQUILIBRIUM_RESIDUAL_TOL``. A stack of chains
    gives a stack of distributions, shape (..., n).

    Raises:
        SingularSystemError: the solve degenerated or produced a vector
            violating the fixed-point or probability constraints (typical
            for reducible chains with no unique equilibrium).
    """
    rows = matrix.rows
    n = rows.shape[-1]
    a = np.swapaxes(rows, -1, -2) - np.eye(n)
    a[..., -1, :] = 1.0
    b = np.zeros(a.shape[:-1] + (1,))
    b[..., -1, 0] = 1.0
    try:
        pi = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"equilibrium solve failed: {exc}") from exc

    if not np.isfinite(pi).all() or pi.min() < -1e-9:
        raise SingularSystemError("equilibrium solution is not a probability vector")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    if np.abs((pi[..., None, :] @ rows)[..., 0, :] - pi).max() > EQUILIBRIUM_RESIDUAL_TOL:
        raise SingularSystemError("equilibrium residual exceeds tolerance")
    return _readonly(pi)


def hitting_stats(matrix: StochasticMatrix, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the first-hitting time of ``target``, in steps.

    Returns two read-only vectors indexed by start state, shape (..., n)
    for a stack of chains; both are 0 at the target itself. With
    N = (I - Q)^-1, where Q is P with the target row and column removed,
    the means are t = N 1 and the variances (2N - I) t - t*t; a variance
    down to -1e-9 steps^2 is round-off, returned as 0.

    Raises:
        SingularMatrixError: I - Q is singular or too ill-conditioned for
            its inverse to satisfy the defining identity at 1e-10, or a
            variance came out negative or NaN.
    """
    rows = matrix.rows
    n = rows.shape[-1]
    if not 0 <= target < n:
        raise IndexError(f"target {target} outside 0..{n - 1}")
    keep = [i for i in range(n) if i != target]
    a = np.eye(n - 1) - rows[..., keep, :][..., keep]
    try:
        fund = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I - Q singular for target {target}: {exc}") from exc
    # both checks are written so that NaN fails them: an inverse or a
    # variance that overflowed is no answer
    if keep and not np.abs(a @ fund - np.eye(n - 1)).max() <= 1e-10:
        raise SingularMatrixError(f"inverse of I - Q inaccurate for target {target}")
    t = fund @ np.ones(n - 1)
    # an overflow here turns into NaN, which the check below rejects, so
    # numpy's warnings about it would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        var = ((2.0 * fund - np.eye(n - 1)) @ t[..., None])[..., 0] - t * t
    if keep and not var.min() >= -1e-9:
        raise SingularMatrixError(
            f"hitting variance came out negative or NaN ({float(var.min())!r}); "
            "ill-conditioned chain")
    means, variances = np.zeros(rows.shape[:-1]), np.zeros(rows.shape[:-1])
    means[..., keep], variances[..., keep] = t, np.maximum(var, 0.0)
    return _readonly(means), _readonly(variances)
