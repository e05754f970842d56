"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repeaterlab import estimators, markov, protocols, simulator
from repeaterlab.protocols import (
    MultiHeraldParams,
    TwoLinkParams,
    build_chain,
    cf_bkp_exact_mean_throughput,
    cf_bkp_throughput_variance_leading,
    cf_equilibrium_multiheralded,
    cf_equilibrium_shs,
    cf_latency_variance_multiheralded,
    cf_latency_variance_shs,
)
from oracles import hitting_moments_bruteforce

GRID = [round(0.1 * i, 10) for i in range(1, 10)]
SEED = 20260819


@pytest.fixture
def announce(capfd, request):
    """Prints ACCEPTANCE <label>: PASS/FAIL to the live terminal."""
    label_holder = {}

    def set_label(label):
        label_holder["label"] = label

    yield set_label
    label = label_holder.get("label", request.node.name)
    failed = getattr(request.node, "_acceptance_failed", False)
    with capfd.disabled():
        print(f"\nACCEPTANCE {label}: {'FAIL' if failed else 'PASS'}", flush=True)


def run(node, body):
    try:
        body()
    except BaseException:
        node._acceptance_failed = True
        raise


def solver_equilibrium_success(chain) -> float:
    return markov.equilibrium(chain.matrix)[chain.success_state]


def solver_latency(chain):
    means, variances = markov.hitting_stats(chain.matrix, chain.success_state)
    return means[chain.start_state], variances[chain.start_state]


def naive_se(pi: float, steps: int, trajectories: int) -> float:
    return math.sqrt(pi * (1.0 - pi) / (steps * trajectories))


def test_c1_closed_form_equilibria(announce, request):
    announce("C1 closed-form equilibria vs solver (1e-10)")

    def body():
        t0 = time.perf_counter()
        for n in (1, 2, 3, 4):
            for combo in itertools.product(GRID, repeat=n):
                params = MultiHeraldParams(combo)
                cf = cf_equilibrium_multiheralded(params)
                pi = solver_equilibrium_success(build_chain(params))
                assert abs(cf - pi) < 1e-10, (combo, cf, pi)
        for pl, pr, ps in itertools.product(GRID, repeat=3):
            params = TwoLinkParams((pl,), (pr,), ps)
            cf = cf_equilibrium_shs(params)
            pi = solver_equilibrium_success(build_chain(params))
            assert abs(cf - pi) < 1e-10, ((pl, pr, ps), cf, pi)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"

    run(request.node, body)


def test_c2_bkp_throughput_forms(announce, request):
    announce("C2 double-heralded throughput formulas")

    def body():
        t0 = time.perf_counter()
        for p1, p2 in itertools.product(GRID, repeat=2):
            params = MultiHeraldParams((p1, p2))
            chain = build_chain(params)
            pi = solver_equilibrium_success(chain)
            assert abs(p1 * p2 / (1.0 + p1) - pi) < 1e-12

            # exact finite-horizon mean vs direct visit-probability sums
            assert cf_bkp_exact_mean_throughput(p1, p2, 1) == 0.0
            P = np.asarray(chain.matrix.rows)
            v = np.zeros(3)
            v[0] = 1.0
            acc = 0.0
            for N in range(1, 201):
                v = v @ P
                acc += v[2]
                cf = cf_bkp_exact_mean_throughput(p1, p2, N)
                assert abs(cf - acc / N) < 1e-10, (p1, p2, N)

            # leading-order variance vs the exact N-step variance at N = 1e5
            exact = estimators.exact_throughput_variance(chain, 100_000)
            lead = cf_bkp_throughput_variance_leading(p1, p2) / 100_000
            assert abs(lead - exact) / exact < 0.01, (p1, p2, lead, exact)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"

    run(request.node, body)


def test_c3_latency_variances(announce, request):
    announce("C3 closed-form latency variances vs hitting stats (1e-9)")

    def body():
        # tolerance is read as numpy-style closeness: variances reach 1e8
        # at the small-p grid corner, where 1e-9 absolute sits below the
        # resolution of double precision
        for n in (1, 2, 3, 4):
            for combo in itertools.product(GRID, repeat=n):
                params = MultiHeraldParams(combo)
                cf = cf_latency_variance_multiheralded(params)
                _, var = solver_latency(build_chain(params))
                assert cf == pytest.approx(var, rel=1e-9, abs=1e-9), (combo, cf, var)
        for pl, pr, ps in itertools.product(GRID, repeat=3):
            params = TwoLinkParams((pl,), (pr,), ps)
            cf = cf_latency_variance_shs(params)
            _, var = solver_latency(build_chain(params))
            assert cf == pytest.approx(var, rel=1e-9, abs=1e-9), ((pl, pr, ps), cf, var)

        # special cases, exact where both sides are dyadic
        for p in (0.5, 0.25, 0.125, 0.75, 0.0625):
            assert cf_latency_variance_multiheralded(MultiHeraldParams((p,))) \
                == (1 - p) / p**2
        for n in (1, 2, 3, 4):
            assert cf_latency_variance_multiheralded(MultiHeraldParams((1.0,) * n)) == 0.0
        assert cf_latency_variance_shs(TwoLinkParams((1.0,), (1.0,), 1.0)) == 0.0
        for ps in (0.5, 0.25, 0.125, 0.75):
            assert cf_latency_variance_shs(TwoLinkParams((1.0,), (1.0,), ps)) \
                == 4 * (1 - ps) / ps**2

    run(request.node, body)


def test_c4_ordering_and_symmetry(announce, request):
    announce("C4 round-order asymmetry and link-exchange symmetry")

    def body():
        for p1, p2 in itertools.product(GRID, repeat=2):
            if p1 > p2:
                fwd = solver_equilibrium_success(build_chain(MultiHeraldParams((p1, p2))))
                rev = solver_equilibrium_success(build_chain(MultiHeraldParams((p2, p1))))
                assert fwd < rev, (p1, p2, fwd, rev)
        for pl, pr, ps in itertools.product(GRID, repeat=3):
            fwd = solver_equilibrium_success(build_chain(TwoLinkParams((pl,), (pr,), ps)))
            rev = solver_equilibrium_success(build_chain(TwoLinkParams((pr,), (pl,), ps)))
            assert abs(fwd - rev) < 1e-12, (pl, pr, ps, fwd, rev)

    run(request.node, body)


def test_c5_simulation_matches_analytics(announce, request):
    announce("C5 chain simulations within 3 naive standard errors")

    def body():
        t0 = time.perf_counter()
        steps, trajectories = 100_000, 200
        cases = [
            MultiHeraldParams((0.5,)),
            MultiHeraldParams((0.4, 0.7)),
            TwoLinkParams((0.5,), (0.6,), 0.8),
            TwoLinkParams((0.5, 0.6), (0.7, 0.4), 0.9),
        ]
        config = simulator.SimConfig(seed=SEED, steps_per_trajectory=steps,
                                     trajectories=trajectories)
        for params in cases:
            chain = build_chain(params)
            pi = solver_equilibrium_success(chain)
            mean = (simulator.simulate_chain(chain, config) / steps).mean()
            bound = 3.0 * naive_se(pi, steps, trajectories)
            assert abs(mean - pi) < bound, (protocols.protocol_name(params), mean, pi, bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s budget"

    run(request.node, body)


def test_c6_nested_level_one_gate(announce, request):
    announce("C6 nested k=1 engine matches the two-link closed form")

    def body():
        config = simulator.SimConfig(seed=SEED, steps_per_trajectory=100_000,
                                     trajectories=200)
        p_grid = (0.2, 0.5, 0.8)
        rates = simulator.simulate_nested([(1, p) for p in p_grid], config) / 100_000
        sigmas = np.sqrt(rates.var(axis=1, ddof=1) / rates.shape[1])
        for p, mean, sigma in zip(p_grid, rates.mean(axis=1), sigmas):
            expect = p * (2 - p) / (3 - p * p)
            assert abs(mean - expect) < 3.0 * sigma, (p, mean, expect, sigma)

    run(request.node, body)


def test_c7_nested_qualitative(announce, request):
    announce("C7 nested chains: monotonicity and type-2 proximity")

    def body():
        t0 = time.perf_counter()
        config = simulator.SimConfig(seed=SEED, steps_per_trajectory=20_000,
                                     trajectories=100)
        levels = (2, 3, 4)
        # the regime of interest is hard elementary generation; at high p
        # the ignored swap overhead dominates both recursive estimates
        p_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
        points = [(k, p) for k in levels for p in p_grid]
        means = (simulator.simulate_nested(points, config) / 20_000).mean(axis=1)
        sim = dict(zip(points, means.tolist()))
        for p in p_grid:
            rates = [sim[(k, p)] for k in levels]
            assert all(a > b for a, b in zip(rates, rates[1:])), (p, rates)
        for k in levels:
            rates = [sim[(k, p)] for p in p_grid]
            assert all(a < b for a, b in zip(rates, rates[1:])), (k, rates)
        type2_wins = 0
        for (k, p), value in sim.items():
            t1 = estimators.nested_throughput(p, k, "type1")
            t2 = estimators.nested_throughput(p, k, "type2")
            type2_wins += abs(t2 - value) < abs(t1 - value)
        assert type2_wins * 2 > len(sim), f"type2 closer at only {type2_wins}/{len(sim)}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.2f}s exceeds 5min budget"

    run(request.node, body)


def test_c8_bruteforce_hitting_oracle(announce, request):
    announce("C8 hitting stats vs truncated path summation (1e-8)")

    def body():
        small_grid = (0.25, 0.5, 0.8)
        cases = []
        for n in (1, 2, 3, 4):  # chains of 2..5 states
            cases += [MultiHeraldParams(c) for c in itertools.product(small_grid, repeat=n)]
            cases.append(MultiHeraldParams((1.0,) * n))
        cases += [TwoLinkParams((pl,), (pr,), ps)
                  for pl, pr, ps in itertools.product(small_grid, repeat=3)]
        cases.append(TwoLinkParams((1.0,), (1.0,), 1.0))
        for params in cases:
            chain = build_chain(params)
            assert chain.n <= 5
            mean, var = solver_latency(chain)
            ref_mean, ref_var = hitting_moments_bruteforce(
                chain.matrix.rows, chain.start_state, chain.success_state, tol=1e-11)
            assert abs(mean - ref_mean) < 1e-8, (params, mean, ref_mean)
            assert abs(var - ref_var) < 1e-8, (params, var, ref_var)

    run(request.node, body)


def test_c9_byte_identical_csv(announce, request, tmp_path):
    announce("C9 same-seed CSV byte equality across interpreters")

    def body():
        targets = [
            ["--protocol", "dhs", "--pl", "0.5,0.6", "--pr", "0.7,0.4",
             "--ps", "0.9"],
            ["--nested", "--k", "2", "--p", "0.45"],
        ]
        for i, target in enumerate(targets):
            blobs = []
            for hashseed in ("0", "1"):
                csv_path = tmp_path / f"t{i}_hash{hashseed}.csv"
                json_path = tmp_path / f"t{i}_hash{hashseed}.json"
                argv = [sys.executable, "-m", "repeaterlab", "simulate", *target,
                        "--steps", "20000", "--trajectories", "64",
                        "--seed", str(SEED), "--csv-out", str(csv_path),
                        "--json-out", str(json_path)]
                env = dict(os.environ, PYTHONHASHSEED=hashseed)
                subprocess.run(argv, env=env, check=True, capture_output=True)
                blobs.append(csv_path.read_bytes())
            assert blobs[0] == blobs[1], f"target {target} differs across interpreters"
            assert blobs[0].startswith(b"trajectory_index,success_count\n")

    run(request.node, body)
