"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is a list of distinct ops. An op is one argv for
``repeaterlab.cli.main`` plus the file it writes, the work it completes
(parameter points or trajectory-steps) and a check of that file. The ops
depend on the workload name and the seed alone; the program sees only the
spec files and argv lists written here.

References are computed with plain numpy from the transition matrix, or
from the package's closed forms where they exist, never by the solver or
estimator under test.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repeaterlab import protocols

PROTOCOLS = ("multiherald", "shs", "dhs")
PROB_RANGE = (0.05, 0.95)    # the range of the figures/ sweep specs
SWAP_RANGE = (0.5, 1.0)
HORIZON = 100_000            # CLI default and the bkp_throughput_variance horizon
GRID_COUNT = 10              # grid ops sweep GRID_COUNT x GRID_COUNT points
GRID_OUTPUTS = ("equilibrium", "mean_latency", "latency_std_over_mean", "naive_var")
WALK_STEPS = 1_000
WALK_TRAJECTORIES = 1_000    # CLI default: four lock-step batches of 256
NESTED_STEPS = 200
NESTED_TRAJECTORIES = 100    # one batch below 256 per simulate_nested call
NESTED_LEVELS = (1, 2, 3, 4)
MAX_SIGMA = 5.0              # as in scripts/validate_against_sim.py
HORIZON_TOL = 10.0           # |N Var - sigma^2| <= HORIZON_TOL / N; measured O(0.1)
REL_TOL = 1e-8

# distinct ops per workload; the timed loop cycles through them
DISTINCT = {"grid": 12, "horizon": 6, "walk": 6, "nested": 4}

WHY = {
    "grid": "10x10 sweeps of small dense solves: markov, protocols, cli and the "
            "sweep pool do nearly all the work",
    "horizon": "analyze --exact at N = 1e5: the O(N) loop in "
               "estimators.exact_throughput_variance is most of each op",
    "walk": "compare with 1000 trajectories x 1000 steps: simulate_chain, four "
            "lock-step batches of 256 on the engine's thread pool",
    "nested": "sweep over k = 1..4 with 100 trajectories: simulate_nested in one "
              "batch per call, threads from the sweep",
}


class CheckError(Exception):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    output: Path
    work: int
    check: Callable[[bytes], None]


# ------------------------------------------------------------- references

def ref_equilibrium(rows: np.ndarray) -> np.ndarray:
    """Left eigenvector of P for the eigenvalue nearest 1, summing to 1."""
    values, vectors = np.linalg.eig(rows.T)
    pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    return pi / pi.sum()


def ref_hitting(rows: np.ndarray, target: int, start: int) -> tuple[float, float]:
    """Mean and variance of the first time to reach target from start."""
    keep = [i for i in range(len(rows)) if i != target]
    q = rows[np.ix_(keep, keep)]
    a = np.eye(len(keep)) - q
    t = np.linalg.solve(a, np.ones(len(keep)))
    m2 = np.linalg.solve(a, 1.0 + 2.0 * q @ t)
    r = keep.index(start)
    return float(t[r]), float(m2[r] - t[r] ** 2)


def ref_asymptotic_variance(rows: np.ndarray, s: int) -> float:
    """lim N Var(rate) = pi_s (2 Z_ss - 1 - pi_s), Z = (I - P + 1 pi)^-1 (Kemeny & Snell)."""
    pi = ref_equilibrium(rows)
    n = len(rows)
    z = np.linalg.inv(np.eye(n) - rows + np.outer(np.ones(n), pi))
    return float(pi[s] * (2.0 * z[s, s] - 1.0 - pi[s]))


def chain_reference(params) -> tuple[float, float, float]:
    """(success equilibrium, latency mean, latency variance) in steps, tau = 1."""
    name = protocols.protocol_name(params)
    if name == "multiherald":
        eq = protocols.cf_equilibrium_multiheralded(params)
        return eq, 1.0 / eq, protocols.cf_latency_variance_multiheralded(params)
    if name == "shs":
        eq = protocols.cf_equilibrium_shs(params)
        return eq, 1.0 / eq, protocols.cf_latency_variance_shs(params)
    # no closed form for dhs: plain numpy on its transition matrix
    chain = protocols.build_chain(params)
    rows = np.array(chain.matrix.rows)
    eq = float(ref_equilibrium(rows)[chain.success_state])
    mean, var = ref_hitting(rows, chain.success_state, chain.start_state)
    return eq, mean, var


def _close(what: str, got: float, want: float, rel: float = REL_TOL):
    if not math.isclose(got, want, rel_tol=rel, abs_tol=1e-12):
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _csv_rows(blob: bytes) -> tuple[list[str], list[list[float]]]:
    header, *rows = csv.reader(io.StringIO(blob.decode()))
    return header, [[float(x) for x in row] for row in rows]


# ------------------------------------------------------------ generators

def _prob(rng: random.Random) -> float:
    return rng.uniform(*PROB_RANGE)


def _point(protocol: str, rng: random.Random):
    """A seeded parameter point as (params, CLI protocol flags)."""
    if protocol == "multiherald":
        probs = (_prob(rng), _prob(rng))
        return (protocols.MultiHeraldParams(probs),
                ["--protocol", "multiherald", "--probs", ",".join(map(repr, probs))])
    rounds = 1 if protocol == "shs" else 2
    left = tuple(_prob(rng) for _ in range(rounds))
    right = tuple(_prob(rng) for _ in range(rounds))
    ps = rng.uniform(*SWAP_RANGE)
    return (protocols.TwoLinkParams(left, right, ps),
            ["--protocol", protocol, "--pl", ",".join(map(repr, left)),
             "--pr", ",".join(map(repr, right)), "--ps", repr(ps)])


def _grid_params(protocol: str, x: float, y: float, ps: float | None):
    if protocol == "multiherald":
        return protocols.MultiHeraldParams((x, y))
    if protocol == "shs":
        return protocols.TwoLinkParams((x,), (y,), ps)
    return protocols.TwoLinkParams((x, x), (y, y), ps)


def _grid_op(protocol: str, rng: random.Random, work: Path, i: int) -> Op:
    axes = [sorted((_prob(rng), _prob(rng))) for _ in range(2)]
    names = ("p1", "p2") if protocol == "multiherald" else ("pl", "pr")
    spec = {
        "protocol": protocol,
        "varied_params": [{"name": name, "start": lo, "stop": hi, "count": GRID_COUNT}
                          for name, (lo, hi) in zip(names, axes)],
        "outputs": list(GRID_OUTPUTS),
    }
    ps = None
    if protocol != "multiherald":
        ps = rng.uniform(*SWAP_RANGE)
        spec["fixed_params"] = {"ps": ps}
    spec_path = work / f"grid{i}.json"
    spec_path.write_text(json.dumps(spec))
    out = work / f"grid{i}.csv"

    def check(blob: bytes):
        header, rows = _csv_rows(blob)
        if header != [*names, *GRID_OUTPUTS]:
            raise CheckError(f"unexpected header {header}")
        want_grid = [(x, y) for x in np.linspace(*axes[0], GRID_COUNT)
                     for y in np.linspace(*axes[1], GRID_COUNT)]
        if [(r[0], r[1]) for r in rows] != want_grid:
            raise CheckError("grid coordinates differ from the spec")
        for x, y, eq, mean, spread, naive in rows:
            ref_eq, ref_mean, ref_var = chain_reference(_grid_params(protocol, x, y, ps))
            where = f"{protocol} ({x}, {y})"
            _close(f"{where} equilibrium", eq, ref_eq)
            _close(f"{where} mean_latency", mean, ref_mean)
            _close(f"{where} latency_std_over_mean", spread, math.sqrt(ref_var) / ref_mean)
            _close(f"{where} naive_var", naive, ref_eq * (1.0 - ref_eq) / HORIZON)

    return Op(("sweep", "--spec", str(spec_path), "--output", str(out)), out,
              GRID_COUNT**2, check)


def _horizon_op(protocol: str, rng: random.Random, work: Path, i: int) -> Op:
    params, flags = _point(protocol, rng)
    out = work / f"horizon{i}.json"
    success_label = str(params.n) if protocol == "multiherald" else "S"

    def check(blob: bytes):
        report = json.loads(blob)
        rows = np.array(report["matrix"]["rows"])
        s = report["labels"].index(success_label)
        pi = ref_equilibrium(rows)
        eq = report["equilibrium"]["success_probability"]
        _close("success_probability", eq, float(pi[s]))
        tp = report["throughput"]
        if tp["horizon_N"] != HORIZON:
            raise CheckError(f"horizon_N = {tp['horizon_N']}")
        _close("naive_variance", tp["naive_variance"], eq * (1.0 - eq) / HORIZON)
        sigma2 = ref_asymptotic_variance(rows, s)
        gap = abs(HORIZON * tp["exact_variance"] - sigma2)
        if gap > HORIZON_TOL / HORIZON:
            raise CheckError(f"N*Var - sigma^2 = {gap!r} exceeds {HORIZON_TOL}/N")

    argv = ("analyze", "--exact", "--horizon", str(HORIZON), *flags, "--output", str(out))
    return Op(argv, out, 1, check)


def _walk_op(protocol: str, rng: random.Random, work: Path, i: int) -> Op:
    params, flags = _point(protocol, rng)
    seed = rng.randrange(2**32)
    out = work / f"walk{i}.csv"
    ref_eq = chain_reference(params)[0]

    def check(blob: bytes):
        header, *rows = csv.reader(io.StringIO(blob.decode()))
        if len(rows) != 1 or rows[0][0] != "mean_throughput_per_step":
            raise CheckError(f"expected one mean_throughput_per_step row, got {rows}")
        analytical, simulated, err, sigma = map(float, rows[0][1:])
        _close("analytical rate", analytical, ref_eq)
        if not (err > 0.0 and sigma <= MAX_SIGMA):
            raise CheckError(f"sigma distance {sigma!r} (std error {err!r})")
        _close("sigma distance", sigma, abs(analytical - simulated) / err, 1e-9)

    argv = ("compare", *flags, "--steps", str(WALK_STEPS),
            "--trajectories", str(WALK_TRAJECTORIES), "--seed", str(seed),
            "--output", str(out))
    return Op(argv, out, WALK_STEPS * WALK_TRAJECTORIES, check)


def _nested_op(rng: random.Random, work: Path, i: int) -> Op:
    p_values = (_prob(rng), _prob(rng))
    spec = {
        "protocol": "nested",
        "varied_params": [
            {"name": "k", "start": NESTED_LEVELS[0], "stop": NESTED_LEVELS[-1],
             "count": len(NESTED_LEVELS)},
            {"name": "p", "start": p_values[0], "stop": p_values[1], "count": 2},
        ],
        "fixed_params": {"steps": NESTED_STEPS, "trajectories": NESTED_TRAJECTORIES,
                         "seed": rng.randrange(2**32)},
        "outputs": ["nested_type1", "nested_type2", "simulated_mean"],
    }
    spec_path = work / f"nested{i}.json"
    spec_path.write_text(json.dumps(spec))
    out = work / f"nested{i}.csv"
    samples = NESTED_STEPS * NESTED_TRAJECTORIES

    def check(blob: bytes):
        _, rows = _csv_rows(blob)
        if len(rows) != 2 * len(NESTED_LEVELS):
            raise CheckError(f"expected {2 * len(NESTED_LEVELS)} rows, got {len(rows)}")
        for k, p, type1, type2, simulated in rows:
            if not all(0.0 < r <= 0.5 for r in (type1, type2, simulated)):
                raise CheckError(f"k={k} p={p}: rate outside (0, 1/2]")
            if k != 1:
                continue
            exact = p * (2.0 - p) / (3.0 - p * p)
            _close(f"k=1 p={p} type1", type1, exact)
            _close(f"k=1 p={p} type2", type2, exact)
            naive_se = math.sqrt(exact * (1.0 - exact) / samples)
            if abs(simulated - exact) > MAX_SIGMA * naive_se:
                raise CheckError(f"k=1 p={p}: simulated {simulated!r} vs exact {exact!r}")

    return Op(("sweep", "--spec", str(spec_path), "--output", str(out)), out,
              2 * len(NESTED_LEVELS) * samples, check)


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The workload's distinct ops, protocols interleaved so any prefix is balanced."""
    rng = random.Random(f"repeaterlab-bench:{workload}:{seed}")
    count = DISTINCT[workload]
    if workload == "nested":
        return [_nested_op(rng, work, i) for i in range(count)]
    make = {"grid": _grid_op, "horizon": _horizon_op, "walk": _walk_op}[workload]
    return [make(PROTOCOLS[i % len(PROTOCOLS)], rng, work, i) for i in range(count)]
