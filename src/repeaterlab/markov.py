"""Finite discrete-time Markov chain analysis on dense row-stochastic matrices.

Everything here works on small dense matrices (protocol chains have a handful
of states), so the equilibrium and the hitting-time moments come from direct
linear solves, not from iterative or sparse methods.
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
    """Validated row-stochastic transition matrix. Build via :func:`validate`."""

    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, idx):
        return self.rows[idx]


@dataclass(frozen=True)
class Distribution:
    """Probability row vector over chain states."""

    probs: np.ndarray

    def __getitem__(self, idx) -> float:
        return float(self.probs[idx])

    def __len__(self) -> int:
        return len(self.probs)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.probs, dtype=dtype)


@dataclass(frozen=True)
class FundamentalMatrix:
    """Inverse of (I - Q) where Q drops the target row and column.

    ``index_map[r]`` gives the original state index of reduced row/column r.
    """

    matrix: np.ndarray
    target: int
    index_map: tuple[int, ...]


@dataclass(frozen=True)
class HittingStats:
    """Mean and variance of the first-hitting time of ``target``, in steps.

    Entry r refers to start state ``index_map[r]``; the target itself is not
    included (its hitting time is trivially zero).
    """

    target: int
    index_map: tuple[int, ...]
    means: np.ndarray
    variances: np.ndarray

    def for_state(self, state: int) -> tuple[float, float]:
        r = self.index_map.index(state)
        return float(self.means[r]), float(self.variances[r])


def validate(rows) -> StochasticMatrix:
    """Check and wrap a raw matrix as a row-stochastic transition matrix.

    Args:
        rows: square array-like of reals; rows must lie in [0, 1] and sum
            to 1 within ``ROW_SUM_ATOL``.

    Returns:
        StochasticMatrix wrapping a read-only float copy of the input.

    Raises:
        NonSquareError: input is not a square 2-d array with n >= 1.
        EntryRangeError: some entry falls outside [0, 1].
        RowSumError: some row sum deviates from 1 beyond tolerance.
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise NonSquareError(a.shape)
    bad = np.argwhere((a < 0.0) | (a > 1.0) | ~np.isfinite(a))
    if bad.size:
        r, c = map(int, bad[0])
        raise EntryRangeError(r, c, float(a[r, c]))
    sums = a.sum(axis=1)
    off = np.abs(sums - 1.0)
    if off.max() > ROW_SUM_ATOL:
        r = int(off.argmax())
        raise RowSumError(r, float(sums[r]))
    return StochasticMatrix(_readonly(a.copy()))


def _as_rows(matrix) -> np.ndarray:
    if isinstance(matrix, StochasticMatrix):
        return matrix.rows
    return validate(matrix).rows


def equilibrium(matrix) -> Distribution:
    """Stationary distribution pi with pi P = pi and sum(pi) = 1.

    Solves pi (P - I) = 0 directly, with one equation replaced by the
    normalization, and checks the fixed-point residual max|pi P - pi|
    of the result against ``EQUILIBRIUM_RESIDUAL_TOL``.

    Raises:
        SingularSystemError: the solve degenerated or produced a vector
            violating the fixed-point or probability constraints (typical
            for reducible chains with no unique equilibrium).
    """
    rows = _as_rows(matrix)
    n = rows.shape[0]
    a = rows.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"equilibrium solve failed: {exc}") from exc

    if not np.isfinite(pi).all() or pi.min() < -1e-9:
        raise SingularSystemError("equilibrium solution is not a probability vector")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    if np.abs(pi @ rows - pi).max() > EQUILIBRIUM_RESIDUAL_TOL:
        raise SingularSystemError("equilibrium residual exceeds tolerance")
    return Distribution(_readonly(pi))


def fundamental_matrix(matrix, target: int) -> FundamentalMatrix:
    """N = (I - Q)^-1 where Q is P with the target row and column removed.

    Raises:
        SingularMatrixError: I - Q is singular or too ill-conditioned for
            the inverse to satisfy its defining identity at 1e-10.
    """
    rows = _as_rows(matrix)
    n = rows.shape[0]
    if not 0 <= target < n:
        raise IndexError(f"target {target} outside 0..{n - 1}")
    keep = [i for i in range(n) if i != target]
    q = rows[np.ix_(keep, keep)]
    a = np.eye(n - 1) - q
    try:
        fund = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"I - Q singular for target {target}: {exc}") from exc
    if keep and np.abs(a @ fund - np.eye(n - 1)).max() > 1e-10:
        raise SingularMatrixError(f"inverse of I - Q inaccurate for target {target}")
    return FundamentalMatrix(_readonly(fund), target, tuple(keep))


def hitting_stats(matrix, target: int) -> HittingStats:
    """First-hitting-time mean and variance of ``target`` from each other state.

    Mean vector is N 1; variance vector is (2N - I) t - t*t with t = N 1,
    both in squared step units.
    """
    fund = fundamental_matrix(matrix, target)
    m = fund.matrix.shape[0]
    t = fund.matrix @ np.ones(m)
    var = (2.0 * fund.matrix - np.eye(m)) @ t - t * t
    if m and var.min() < -1e-9:
        raise SingularMatrixError(
            f"hitting variance came out negative ({var.min()!r}); ill-conditioned chain")
    return HittingStats(fund.target, fund.index_map, _readonly(t), _readonly(var))
