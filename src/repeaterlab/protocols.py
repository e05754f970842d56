"""Markov chain models of repeater-link entanglement distribution protocols.

Three protocol families are modeled, each as a small transition matrix over
protocol phases with a designated failure (restart) state and success state:

* multiheralded EG: a single link needs n consecutive heralded rounds; any
  round failure restarts the sequence. State i counts rounds passed, state n
  is success. n=1 is plain single-heralded generation; n=2 is the
  double-heralded scheme.
* shs: two adjacent links each run single-heralded EG in parallel; once both
  hold a pair, one swap attempt (one step, success probability swap_prob)
  merges them end to end. States label which links hold a pair.
* dhs: same two-link layout, but each link needs two heralding rounds; states
  label per-link round progress (0, 1, or 2 = pair ready).

There is one builder per family, and both take slot rows: arrays of shape
(..., slots) whose last axis lists a point's probabilities in a fixed order,
with an optional leading stack axis. multiheralded_chain takes the n round
probs; two_link_chain takes 2r + 1 slots, the left link's r round probs,
then the right link's, then the swap prob, and makes both two-link chains
from the round count. A stack of rows gives one chain whose matrix stacks
the points' matrices, so a sweep builds and solves all of its points
together (see markov) with no params object per point. A params object
checks one point in its constructor and gives its slot row as .row
(TwoLinkParams.from_row reads one back) and the names of its slots as
slot_names. Only this module knows the slot layout.

FAMILIES maps each protocol name to its params class, builder and closed
forms; every per-family choice is a lookup there, by protocol_name.

The success-state row always equals the failure-state row: after delivering
a pair the protocol restarts exactly as after a failure. Closed-form results
are expressed in step units; tau (seconds per step) lives on ProtocolChain
and is applied by the estimators module.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import markov
from .markov import StochasticMatrix


class ProtocolError(ValueError):
    """Base class for protocol parameter and construction errors."""


class EmptyRoundsError(ProtocolError):
    """Multiheralded protocol needs at least one round."""


class ProbabilityRangeError(ProtocolError):
    def __init__(self, name, value):
        super().__init__(f"{name} = {value!r} outside [0, 1]")
        self.name = name
        self.value = value


class HeraldCountError(ProtocolError):
    """left/right herald probability lists have the wrong length."""


class ZeroProbabilityError(ProtocolError):
    """A closed form diverges because some probability is zero."""


class DegenerateChainError(ProtocolError):
    """Parameters put the chain in a 0/0 corner (both links dead)."""


def _real(name, value) -> float:
    """value as a float if it is a real number (Python or numpy), not a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ProtocolError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_prob(name, value) -> float:
    """value as a float if it is a real number in [0, 1]."""
    p = _real(name, value)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ProbabilityRangeError(name, value)
    return p


MAX_ROUNDS = 64  # a multiherald chain's rounds: a 1024-point block of (n+1)^2 rows is 35 MB


def _check_rounds(n: int) -> int:
    """n, if a multiherald chain may have n rounds."""
    if n > MAX_ROUNDS:
        raise ProtocolError(f"a multiherald chain has at most {MAX_ROUNDS} rounds, got {n}")
    return n


@dataclass(frozen=True)
class MultiHeraldParams:
    """Per-round success probabilities p1..pn of an n-round heralded link, n <= MAX_ROUNDS."""

    round_probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(_check_prob(f"round_probs[{i}]", p) for i, p in enumerate(self.round_probs))
        if not probs:
            raise EmptyRoundsError("round_probs must list at least one round")
        _check_rounds(len(probs))
        object.__setattr__(self, "round_probs", probs)

    @property
    def n(self) -> int:
        return len(self.round_probs)

    @property
    def row(self) -> tuple[float, ...]:
        """The slot row multiheralded_chain takes: the round probs."""
        return self.round_probs

    @staticmethod
    def slot_names(n: int) -> tuple[str, ...]:
        """The names of .row's n slots: p1..pn, n checked before any is made."""
        return tuple(f"p{i}" for i in range(1, _check_rounds(n) + 1))


@dataclass(frozen=True)
class TwoLinkParams:
    """Two-link swap protocol parameters.

    left_probs/right_probs hold one entry per heralding round of that link:
    length 1 for the single-heralded scheme, 2 for the double-heralded one.
    swap_prob is the swap success probability once both links are ready.
    """

    left_probs: tuple[float, ...]
    right_probs: tuple[float, ...]
    swap_prob: float

    def __post_init__(self):
        left, right = tuple(self.left_probs), tuple(self.right_probs)
        if len(left) != len(right) or len(left) not in (1, 2):
            raise HeraldCountError(
                f"left/right prob lists must both have length 1 or 2, "
                f"got {len(left)} and {len(right)}")
        for side, probs in (("left_probs", left), ("right_probs", right)):
            object.__setattr__(self, side, tuple(
                _check_prob(f"{side}[{i}]", p) for i, p in enumerate(probs)))
        object.__setattr__(self, "swap_prob", _check_prob("swap_prob", self.swap_prob))

    @property
    def row(self) -> tuple[float, ...]:
        """The slot row two_link_chain takes: left round probs, right round probs, swap prob."""
        return self.left_probs + self.right_probs + (self.swap_prob,)

    @staticmethod
    def slot_names(r: int) -> tuple[str, ...]:
        """The names of .row's 2r + 1 slots: pl, pr, ps at r = 1, else pl1..plr, pr1..prr, ps."""
        rounds = [""] if r == 1 else [str(i) for i in range(1, r + 1)]
        return tuple(f"{side}{i}" for side in ("pl", "pr") for i in rounds) + ("ps",)

    @classmethod
    def from_row(cls, row) -> "TwoLinkParams":
        """The params of one slot row of two_link_chain, checked by the constructor."""
        r = _link_rounds(len(row))
        return cls(row[:r], row[r:2 * r], row[-1])


@dataclass(frozen=True)
class ProtocolChain:
    """A protocol's transition matrix with its state labels and timing.

    start_state is the failure/restart state; success_state marks one
    delivered end-to-end pair. tau is the step duration in time units.
    The matrix may be a stack of chains of one protocol and shape, which
    share the labels, states and tau.
    """

    matrix: StochasticMatrix
    labels: tuple[str, ...]
    start_state: int
    success_state: int
    tau: float

    def __post_init__(self):
        if len(self.labels) != self.matrix.n:
            raise ProtocolError("labels length must match matrix dimension")
        if self.success_state == self.start_state:
            raise ProtocolError("success and start states must differ")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ProtocolError(f"tau must be positive and finite, got {self.tau!r}")
        # restart-after-success: delivering a pair resets the protocol
        rows = self.matrix.rows
        if not np.array_equal(rows[..., self.success_state, :], rows[..., self.start_state, :]):
            raise ProtocolError("success-state row must equal start-state row")

    @property
    def n(self) -> int:
        return self.matrix.n

    @functools.cached_property
    def equilibrium(self) -> np.ndarray:
        """markov.equilibrium of the matrix, solved on first use and kept."""
        return markov.equilibrium(self.matrix)


def _round_rows(probs: np.ndarray) -> np.ndarray:
    """Rows of an n-round link counter: row i < n passes round i+1 with p_i or drops to 0.

    probs has shape (..., n); the rows have shape (..., n + 1, n + 1). Row n,
    the link holding a pair, is left empty for the caller to fill.
    """
    n = probs.shape[-1]
    rows = np.zeros(probs.shape[:-1] + (n + 1, n + 1))
    rounds = np.arange(n)
    rows[..., rounds, 0] = 1.0 - probs
    rows[..., rounds, rounds + 1] = probs
    return rows


def multiheralded_chain(round_probs, tau: float = 1.0) -> ProtocolChain:
    """Chain for an n-round heralded link from round probabilities of shape (..., n).

    States 0..n, success at n. Row i < n moves to i+1 with probability
    p_{i+1} and back to 0 otherwise; the success row repeats row 0 (the
    protocol restarts). A leading stack axis gives a stacked chain. The
    probabilities are not range-checked here: markov.validate rejects an
    entry outside [0, 1].
    """
    rows = _round_rows(np.asarray(round_probs, dtype=float))
    n = rows.shape[-1] - 1
    rows[..., n, :] = rows[..., 0, :]
    labels = tuple(str(i) for i in range(n + 1))
    return ProtocolChain(markov.validate(rows), labels, 0, n, float(tau))


def _link_rounds(slots: int) -> int:
    """The round count r of one link in a two-link slot row of 2r + 1 slots."""
    if slots < 3 or slots % 2 != 1:
        raise HeraldCountError(f"a two-link slot row has 2r + 1 >= 3 slots, got {slots}")
    return slots // 2


def two_link_chain(slots, tau: float = 1.0) -> ProtocolChain:
    """Two r-round heralded links plus one swap: states ij for i, j in 0..r, then S.

    slots has shape (..., 2r + 1): the left link's r round probabilities,
    then the right link's, then the swap probability (TwoLinkParams.row);
    a leading stack axis gives a stacked chain. Label "ij" gives the rounds
    passed on the left (i) and right (j) link; r means the link holds a
    pair. State ij has index i*(r+1)+j and S comes last. A link that has
    passed i < r rounds passes the next one with that round's probability
    or drops back to 0 rounds; ready links wait. From rr the swap succeeds
    with swap_prob (to S) or destroys both pairs (to 00). The shs scheme is
    r = 1 (states 00, 01, 10, 11, S), the dhs scheme r = 2. As in
    multiheralded_chain, markov.validate is the only range check.
    """
    slots = np.asarray(slots, dtype=float)
    r = _link_rounds(slots.shape[-1])
    left = _round_rows(slots[..., :r])
    right = _round_rows(slots[..., r:2 * r])
    swap = slots[..., -1]
    width = r + 1
    ready = width * width - 1  # index of rr; S is ready + 1
    left[..., r, r] = right[..., r, r] = 1.0
    stack = swap.shape
    rows = np.zeros(stack + (ready + 2, ready + 2))
    # the links move independently: ij -> kl with probability left[i, k] * right[j, l]
    joint = left[..., :, None, :, None] * right[..., None, :, None, :]
    rows[..., :-1, :-1] = joint.reshape(stack + (ready + 1, ready + 1))
    rows[..., ready, :] = 0.0  # once both links hold a pair, the swap decides alone
    rows[..., ready, 0] = 1.0 - swap
    rows[..., ready, -1] = swap
    rows[..., -1, :] = rows[..., 0, :]
    labels = tuple(f"{i}{j}" for i in range(width) for j in range(width)) + ("S",)
    return ProtocolChain(markov.validate(rows), labels, 0, ready + 1, float(tau))


def cf_equilibrium_multiheralded(params: MultiHeraldParams) -> float:
    """Closed-form success-state equilibrium probability of the n-round chain.

    prod(p) / (1 + sum of the leading partial products p1..pi, i < n).
    """
    probs = params.round_probs
    num = math.prod(probs)
    den = 1.0 + sum(math.prod(probs[:i]) for i in range(1, len(probs)))
    return num / den


def cf_latency_variance_multiheralded(params: MultiHeraldParams) -> float:
    """Latency variance of the n-round chain, in squared steps.

    The mean-square term and the linear-correction term must be joined by
    a minus sign: the n=1 geometric case and the n=2 chain both pin it,
    and the all-ones chain only vanishes with the minus.
    """
    probs = params.round_probs
    if any(p == 0.0 for p in probs):
        raise ZeroProbabilityError("latency diverges when a round probability is 0")
    n = len(probs)
    prod_all = math.prod(probs)
    lead = 1.0 + sum(math.prod(probs[:i]) for i in range(1, n))
    correction = 2 * n - 1 + sum((2 * i - 1) * math.prod(probs[: n - i]) for i in range(1, n))
    return (lead / prod_all) ** 2 - correction / prod_all


def cf_bkp_exact_mean_throughput(p1: float, p2: float, N: int) -> float:
    """Exact expected successes per step of the 2-round chain over N steps.

    Finite-horizon mean from the failure state; converges to the
    equilibrium value as N grows. Equals (1/N) * sum of N-step visit
    probabilities of the success state. Units: successes per step.
    """
    p1 = _check_prob("p1", p1)
    p2 = _check_prob("p2", p2)
    if N < 1:
        raise ValueError("N must be a positive integer")
    pi2 = p1 * p2 / (1.0 + p1)
    # factored so the N = 1 transient cancels exactly in floating point
    return pi2 * (1.0 - (1.0 - (-p1) ** N) / ((1.0 + p1) * N))


def cf_bkp_throughput_variance_leading(p1: float, p2: float) -> float:
    """Leading-order N * tau^2 * Var of 2-round throughput: Var ~ result/(N tau^2)."""
    p1 = _check_prob("p1", p1)
    p2 = _check_prob("p2", p2)
    return p1 * p2 * ((1.0 + p1) ** 2 - p1 * p2 * (3.0 + p1)) / (1.0 + p1) ** 3


def _shs_probs(params: TwoLinkParams) -> tuple[float, float, float]:
    if len(params.left_probs) != 1:
        raise HeraldCountError("closed form applies to the single-heralded scheme")
    return params.left_probs[0], params.right_probs[0], params.swap_prob


def cf_equilibrium_shs(params: TwoLinkParams) -> float:
    """Closed-form success-state equilibrium probability of the shs chain, in a
    form that does not cancel at small pl, pr: 1 - ql qr is pl + pr - pl pr."""
    pl, pr, ps = _shs_probs(params)
    if pl == 0.0 and pr == 0.0:
        raise DegenerateChainError("both links dead: equilibrium is 0/0")
    ql, qr = 1.0 - pl, 1.0 - pr
    num = pl * pr * ps * (pl + pr - pl * pr)
    den = pl * pr * (2.0 - ql * qr) + ql * pr**2 + qr * pl**2
    return num / den


def cf_latency_variance_shs(params: TwoLinkParams) -> float:
    """Latency variance of the shs chain, in squared steps.

    The squared-mean term's numerator must carry -pl^2 pr^2: the all-ones
    chain only has zero variance with the minus sign.
    """
    pl, pr, ps = _shs_probs(params)
    if pl == 0.0 or pr == 0.0 or ps == 0.0:
        raise ZeroProbabilityError("latency diverges when pl, pr, or ps is 0")
    both = pl + pr - pl * pr
    first = (pl * pr + pl**2 + pr**2 - pl**2 * pr**2) / (pl * pr * ps * both)
    correction = (pl**2 * pr * (1.0 - pr) * (2.0 - pr)
                  + pl**3 * (1.0 - pr) ** 2 * (3.0 + pr)
                  + 3.0 * pr**3
                  + pl * pr * (4.0 + 2.0 * pr - 5.0 * pr**2))
    return first**2 - correction / (pl * pr * ps * both**2)


class Family(NamedTuple):
    """A family's params class, its builder (rows, tau) -> ProtocolChain, and
    its closed-form (equilibrium, latency variance) of one params object, or None."""

    params: type
    chain: Callable
    closed_forms: tuple[Callable, Callable] | None


FAMILIES = {
    "multiherald": Family(MultiHeraldParams, multiheralded_chain,
                          (cf_equilibrium_multiheralded, cf_latency_variance_multiheralded)),
    "shs": Family(TwoLinkParams, two_link_chain, (cf_equilibrium_shs, cf_latency_variance_shs)),
    "dhs": Family(TwoLinkParams, two_link_chain, None),
}
PROTOCOL_NAMES = tuple(FAMILIES)


def build_chain(params, tau: float = 1.0) -> ProtocolChain:
    """The chain of one params object, from its slot row and its family's builder."""
    return FAMILIES[protocol_name(params)].chain(params.row, tau)


def protocol_name(params) -> str:
    if isinstance(params, MultiHeraldParams):
        return "multiherald"
    if isinstance(params, TwoLinkParams):
        return "shs" if len(params.left_probs) == 1 else "dhs"
    raise TypeError(f"unsupported params type {type(params).__name__}")


def params_to_json(params, tau: float = 1.0) -> str:
    """A parameter set in the CLI's JSON schema: the protocol name, the fields, tau."""
    return json.dumps({"protocol": protocol_name(params), **asdict(params), "tau": float(tau)})


def params_from_json(text: str):
    """Parse the CLI's JSON schema back into (params, tau): "protocol", every field
    of the family's params class (each *_probs one a JSON array) and an optional "tau"."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "protocol" not in doc:
        raise ProtocolError('params document must be an object with a "protocol" key')
    name = doc["protocol"]
    tau = _real("tau", doc.get("tau", 1.0))
    if name not in PROTOCOL_NAMES:
        raise ProtocolError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}")
    keys = [field.name for field in fields(FAMILIES[name].params)]
    extra, missing = set(doc) - {"protocol", "tau", *keys}, set(keys) - set(doc)
    if extra or missing:
        raise ProtocolError(
            f"bad {name} params document (extra {sorted(extra)}, missing {sorted(missing)})")
    for key in keys:
        if key.endswith("_probs") and not isinstance(doc[key], list):
            raise ProtocolError(f"{key} must be a JSON array, got {doc[key]!r}")
    params = FAMILIES[name].params(*(doc[key] for key in keys))
    if protocol_name(params) != name:
        raise HeraldCountError(f"herald count does not match protocol {name!r}")
    return params, tau
