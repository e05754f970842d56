import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import BIT_GENERATORS, nested_counts_stepwise, reference_generator

from repeaterlab import markov, protocols, simulator
from repeaterlab.cli import _rate_stats
from repeaterlab.estimators import ArgumentRangeError
from repeaterlab.protocols import MultiHeraldParams, ProtocolChain, TwoLinkParams, build_chain
from repeaterlab.simulator import SimConfig, simulate_chain, simulate_nested


def chain_from_rows(rows) -> ProtocolChain:
    """A chain starting in state 0 whose last state, sharing row 0, is the success."""
    rows = np.array(rows, dtype=float)
    rows[-1] = rows[0]
    n = len(rows)
    return ProtocolChain(markov.validate(rows), tuple(map(str, range(n))), 0, n - 1, 1.0)


def reference_counts(chain, draws) -> tuple[int, ...]:
    """Success counts by inverting each visited row against each draw, one step at a time."""
    cum = np.cumsum(chain.matrix.rows, axis=1)
    cum[:, -1] = 1.0
    counts = []
    for trajectory in draws:
        state, hits = chain.start_state, 0
        for u in trajectory:
            state = int((cum[state] <= u).sum())
            hits += state == chain.success_state
        counts.append(hits)
    return tuple(counts)


# rows whose breakpoints sit inside grid cells, on cell edges, at 0, and
# (within the row-sum tolerance) above 1 before the last column
REFERENCE_ROWS = {
    "dense": np.random.default_rng(3).dirichlet(np.ones(9), size=9),
    "dyadic": [[0.0, 0.5, 0.25, 0.125, 0.125],
               [1 / 4096, 0.0, 4095 / 4096, 0.0, 0.0],
               [0.375, 0.0, 0.0, 0.625, 0.0],
               [0.0, 0.0, 0.0, 0.0, 1.0],
               [0.0] * 5],
    "overshoot": [[0.5, 0.5 + 5e-13, 0.0],
                  [1 / 3, 1 / 3, 1 / 3],
                  [0.0] * 3],
}


def use_streams(monkeypatch, rng: str) -> None:
    """Key every trajectory stream, as the program does, but on bit generator `rng`."""
    if rng == simulator.RNG_ALGORITHM:
        return  # the program's own generator, unpatched
    bit_generator = BIT_GENERATORS[rng]
    monkeypatch.setattr(simulator, "_trajectory_generators", lambda config, batch: [
        reference_generator(config, i, bit_generator) for i in batch])


class ReplayGenerator:
    """Stands in for a trajectory generator and hands out fixed draws in order."""

    def __init__(self, draws):
        self.draws = draws
        self.used = 0

    def random(self, out):
        out.flat[:] = self.draws[self.used:self.used + out.size]
        self.used += out.size


class TestConfig:
    RUN = {"steps_per_trajectory": 10, "trajectories": 1}

    def test_defaults(self):
        # none: the command line's run defaults live in cli._RUN_SETTINGS alone
        with pytest.raises(TypeError):
            SimConfig(seed=7)

    def test_validation(self):
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=-1, **self.RUN)
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=2**64, **self.RUN)
        for seed in (True, 1.0, np.float64(1), np.int64(-1), "1"):
            with pytest.raises(ArgumentRangeError):
                SimConfig(seed=seed, **self.RUN)
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=1, steps_per_trajectory=0, trajectories=1)
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=1, steps_per_trajectory=10, trajectories=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), True, False, "3", None])
    @pytest.mark.parametrize("field", ["steps_per_trajectory", "trajectories"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=1, **{**self.RUN, field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(seed=1, steps_per_trajectory=np.int64(5), trajectories=np.uint32(2))
        assert simulate_nested([(1, 1.0)], cfg).tolist() == [[2, 2]]
        cfg = SimConfig(seed=2**64 - 1, steps_per_trajectory=300, trajectories=3)
        np.testing.assert_array_equal(
            simulate_nested([(2, 0.4)], SimConfig(np.uint64(cfg.seed), 300, 3)),
            simulate_nested([(2, 0.4)], cfg))

    def test_full_seed_range_accepted(self):
        SimConfig(seed=0, **self.RUN)
        SimConfig(seed=2**64 - 1, **self.RUN)

    def test_trajectory_cap(self):
        # spawn keys are one 32-bit word, so the last index is 2^32 - 1
        assert SimConfig(seed=1, steps_per_trajectory=10,
                         trajectories=2**32).trajectories == simulator.MAX_TRAJECTORIES
        with pytest.raises(ArgumentRangeError):
            SimConfig(seed=1, steps_per_trajectory=10, trajectories=2**32 + 1)


class TestSpawnKeys:
    """The batch key port against numpy's own SeedSequence."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
             *np.random.default_rng(17).integers(0, 2**64, 40, dtype=np.uint64).tolist(),
             *np.random.default_rng(18).integers(0, 2**32, 20, dtype=np.uint64).tolist()]

    @pytest.mark.parametrize("start", [0, simulator._BATCH, 2**32 - 7])
    def test_matches_seed_sequence(self, start):
        batch = range(start, start + 7)
        for seed in self.SEEDS:
            expect = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
                      for i in batch]
            np.testing.assert_array_equal(simulator._spawn_keys(seed, batch), expect,
                                          err_msg=f"seed {seed}")

    def test_generators_match_numpy_streams(self):
        cfg = SimConfig(seed=2**40 + 3, steps_per_trajectory=9, trajectories=1030)
        batch = range(1020, 1030)
        for i, gen in zip(batch, simulator._trajectory_generators(cfg, batch)):
            np.testing.assert_array_equal(gen.random(9), reference_generator(cfg, i).random(9))


class TestChainWalker:
    def test_deterministic_double_herald_walk(self):
        # all-ones rounds: 0 -> 1 -> 2 -> 1 -> 2 ..., success on even steps
        chain = build_chain(MultiHeraldParams((1.0, 1.0)))
        for steps, expect in [(9, 4), (10, 5), (1, 0), (2, 1)]:
            res = simulate_chain(chain, SimConfig(seed=0, steps_per_trajectory=steps,
                                                  trajectories=1))
            assert res.tolist() == [expect]

    def test_deterministic_shs_walk(self):
        chain = build_chain(TwoLinkParams((1.0,), (1.0,), 1.0))
        res = simulate_chain(chain, SimConfig(seed=3, steps_per_trajectory=10,
                                              trajectories=2))
        assert res.tolist() == [5, 5]
        mean, var, _ = _rate_stats(res, 10)
        assert mean == 0.5
        assert var == 0.0

    def test_summary_statistics(self):
        # the CLI's per-row statistics of the walker's counts
        chain = build_chain(MultiHeraldParams((0.5, 0.5)))
        res = simulate_chain(chain, SimConfig(seed=11, steps_per_trajectory=2_000,
                                              trajectories=8))
        assert res.dtype == np.int64 and res.shape == (8,)
        rates = res / 2_000
        mean, var, err = _rate_stats(res, 2_000)
        assert mean == pytest.approx(rates.mean(), rel=1e-13)
        assert var == pytest.approx(rates.var(ddof=1), rel=1e-13)
        assert err == pytest.approx(np.sqrt(rates.var(ddof=1) / 8), rel=1e-13)
        # stacked rows give each row's statistics, bit for bit
        rows = np.stack([res, res[::-1] * 2, res // 3])
        for stat, row_stats in zip(_rate_stats(rows, 2_000),
                                   zip(*(_rate_stats(row, 2_000) for row in rows))):
            assert stat.tolist() == [float(x) for x in row_stats]

    def test_single_trajectory_variance_is_zero(self):
        chain = build_chain(MultiHeraldParams((0.5,)))
        res = simulate_chain(chain, SimConfig(seed=1, steps_per_trajectory=100,
                                              trajectories=1))
        assert _rate_stats(res, 100)[1] == 0.0

    def test_same_seed_bit_identical(self):
        chain = build_chain(TwoLinkParams((0.4,), (0.7,), 0.6))
        cfg = SimConfig(seed=99, steps_per_trajectory=3_000, trajectories=20)
        np.testing.assert_array_equal(simulate_chain(chain, cfg), simulate_chain(chain, cfg))

    def test_different_seeds_differ(self):
        chain = build_chain(TwoLinkParams((0.4,), (0.7,), 0.6))
        a = simulate_chain(chain, SimConfig(seed=1, steps_per_trajectory=3_000,
                                            trajectories=6))
        b = simulate_chain(chain, SimConfig(seed=2, steps_per_trajectory=3_000,
                                            trajectories=6))
        assert a.tolist() != b.tolist()

    @pytest.mark.parametrize("chain", [
        *(chain_from_rows(REFERENCE_ROWS[kind]) for kind in sorted(REFERENCE_ROWS)),
        protocols.two_link_chain(np.random.default_rng(1).uniform(size=(40, 5))),
        protocols.two_link_chain(np.random.default_rng(2).uniform(size=(40, 3))),
        protocols.multiheralded_chain(np.random.default_rng(3).uniform(size=(10, 64))),
        protocols.two_link_chain(np.random.default_rng(4).integers(0, 2, (40, 5))),
        protocols.multiheralded_chain(np.random.default_rng(5).integers(0, 2, (20, 4))),
    ], ids=[*sorted(REFERENCE_ROWS), "dhs", "shs", "multiherald64", "dhs01", "multiherald01"])
    def test_successor_table_against_a_search_per_state(self, chain):
        # successor[b * n + s] = #{j : cum[s, j] <= edge b - 1}, here found by
        # sorting each state's cumulative row and searching the edges in it
        n = chain.n
        cum = np.cumsum(chain.matrix.rows.reshape(-1, n, n), axis=2)
        cum[..., -1] = 1.0
        grid = np.arange(simulator._CELLS + 1) / simulator._CELLS
        for point in cum:
            edges, successor, hits, _ = simulator._walk_tables(point, grid, chain.success_state)
            expect = np.zeros((len(edges) + 1, n), dtype=np.intp)
            for s, row in enumerate(point):
                expect[1:, s] = np.searchsorted(np.sort(row), edges, side="right")
            assert successor.dtype == np.intp
            np.testing.assert_array_equal(successor, expect.ravel())
            np.testing.assert_array_equal(hits, expect.ravel() == chain.success_state)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_ROWS))
    def test_matches_stepwise_reference(self, kind):
        chain = chain_from_rows(REFERENCE_ROWS[kind])
        cfg = SimConfig(seed=8, steps_per_trajectory=1_500, trajectories=12)
        draws = [reference_generator(cfg, i).random(1_500) for i in range(12)]
        assert tuple(simulate_chain(chain, cfg).tolist()) == reference_counts(chain, draws)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_ROWS))
    def test_draws_on_and_beside_breakpoints(self, kind, monkeypatch):
        # every breakpoint, its neighbouring doubles, 0 and the largest draw below 1
        chain = chain_from_rows(REFERENCE_ROWS[kind])
        cum = np.cumsum(chain.matrix.rows, axis=1)
        points = np.unique(cum[cum < 1.0])
        pool = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                               [0.0, np.nextafter(1.0, 0.0)]])
        pool = pool[(pool >= 0.0) & (pool < 1.0)]  # the range of Generator.random
        rng = np.random.default_rng(4)
        draws = [rng.permutation(np.resize(pool, 600)) for _ in range(5)]
        monkeypatch.setattr(simulator, "_trajectory_generators",
                            lambda config, batch: [ReplayGenerator(draws[i]) for i in batch])
        cfg = SimConfig(seed=0, steps_per_trajectory=600, trajectories=5)
        assert tuple(simulate_chain(chain, cfg).tolist()) == reference_counts(chain, draws)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_ROWS))
    def test_draws_on_and_beside_block_edges(self, kind, monkeypatch):
        # 60 draws a chunk give the 5 trajectories 12-step chunks, walked in
        # 3-step blocks, so breakpoint draws land on the edges of blocks
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 60)
        self.test_draws_on_and_beside_breakpoints(kind, monkeypatch)

    def test_trajectory_prefix_stability(self):
        # adding trajectories must not disturb earlier ones: streams are
        # keyed by trajectory index alone
        chain = build_chain(MultiHeraldParams((0.3, 0.8)))
        small = simulate_chain(chain, SimConfig(seed=5, steps_per_trajectory=1_000,
                                                trajectories=10))
        big = simulate_chain(chain, SimConfig(seed=5, steps_per_trajectory=1_000,
                                              trajectories=300))
        np.testing.assert_array_equal(big[:10], small)

    def test_matches_equilibrium_small_scale(self):
        chain = build_chain(TwoLinkParams((0.6,), (0.5,), 0.8))
        res = simulate_chain(chain, SimConfig(seed=12, steps_per_trajectory=20_000,
                                              trajectories=60))
        pi = markov.equilibrium(chain.matrix)[chain.success_state]
        mean, _, err = _rate_stats(res, 20_000)
        assert abs(mean - pi) < 4 * err

    # dhs slot rows: a repeated point, certain and rare links, a dead swap
    STACK = [(0.5, 0.6, 0.7, 0.4, 0.9), (1.0, 1.0, 1.0, 1.0, 1.0), (0.03, 0.9, 0.2, 0.05, 0.5),
             (0.5, 0.6, 0.7, 0.4, 0.9), (0.8, 0.3, 0.6, 0.6, 0.0), (1 / 4096, 0.5, 0.75, 1.0, 0.25)]

    @pytest.mark.parametrize("rng", list(BIT_GENERATORS))
    @pytest.mark.parametrize("chunk_draws", [2**16, 1000])
    def test_stacked_chain_equals_points_walked_alone(self, chunk_draws, rng, monkeypatch):
        # one walk of the stacked chain reads each point's streams as its own
        # walk does: 1100 trajectories span two batches of 1024 and 76. At
        # 2^16 draws a chunk, the first batch walks 64-step chunks in 16-step
        # blocks and the second one chunk in one block; at 1000, one-step
        # chunks and blocks, and 13-step chunks in 3-step blocks
        use_streams(monkeypatch, rng)
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", chunk_draws)
        cfg = SimConfig(seed=29, steps_per_trajectory=150, trajectories=1100)
        stacked = simulate_chain(protocols.two_link_chain(np.reshape(self.STACK, (2, 3, 5))), cfg)
        assert stacked.dtype == np.int64 and stacked.shape == (2, 3, 1100)
        alone = [simulate_chain(protocols.two_link_chain(row), cfg) for row in self.STACK]
        np.testing.assert_array_equal(stacked.reshape(6, 1100), alone)

    def test_memory_stays_bounded_for_a_full_block(self):
        # a sweep block of 1024 dhs points holds every point's walk tables and
        # walker state at once, besides the 8 MiB of counts
        chain = protocols.two_link_chain(np.random.default_rng(6).uniform(0.05, 0.95, (1024, 5)))
        cfg = SimConfig(seed=3, steps_per_trajectory=100, trajectories=1000)
        tracemalloc.start()
        try:
            res = simulate_chain(chain, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.shape == (1024, 1000)
        assert peak <= 48 * 2**20

    def test_memory_at_the_cli_default(self):
        # one point at 1000 trajectories x 1000 steps: besides the float64
        # draws, only a quarter-chunk block of cells, offsets and flags
        # (4.0 MiB measured; 7.2 MiB with chunk-sized cells, offsets and flags)
        chain = protocols.two_link_chain(np.array([0.55, 0.6, 0.7, 0.4, 0.9]))
        cfg = SimConfig(seed=3, steps_per_trajectory=1000, trajectories=1000)
        simulate_chain(chain, cfg)  # warm up: first-use imports and caches stay out of the peak
        tracemalloc.start()
        try:
            res = simulate_chain(chain, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.shape == (1000,)
        assert peak <= 6 * 2**20


class TestNestedEngine:
    def test_argument_validation(self):
        cfg = SimConfig(seed=0, steps_per_trajectory=10, trajectories=1)
        with pytest.raises(ArgumentRangeError):  # every point is checked before any runs
            simulate_nested([(1, 0.5), (2, 0.0)], cfg)
        with pytest.raises(ArgumentRangeError):
            simulate_nested([(0, 0.5)], cfg)
        with pytest.raises(ArgumentRangeError):
            simulate_nested([(1, 0.0)], cfg)
        with pytest.raises(ArgumentRangeError):
            simulate_nested([(1, 1.1)], cfg)
        with pytest.raises(ArgumentRangeError):
            simulate_nested([(13, 0.5)], cfg)  # above the cap of 2^12 links
        for k in (True, 2.0, "2"):  # the integer rule of SimConfig
            with pytest.raises(ArgumentRangeError):
                simulate_nested([(k, 0.5)], cfg)
        for p in (True, "0.5", None):  # p is a real number
            with pytest.raises(ArgumentRangeError):
                simulate_nested([(2, p)], cfg)
        cfg = SimConfig(seed=0, steps_per_trajectory=300, trajectories=3)
        np.testing.assert_array_equal(simulate_nested([(np.int64(2), 0.5)], cfg),
                                      simulate_nested([(2, 0.5)], cfg))

    def test_suffix_min_matches_accumulate(self):
        # every row count up to 50: whole blocks, a short last block, one row
        rng = np.random.default_rng(3)
        for n in range(1, 51):
            a = rng.integers(0, 100, (n, 7)).astype(np.int32)
            expect = np.minimum.accumulate(a[::-1], axis=0)[::-1]
            simulator._suffix_min(a)
            np.testing.assert_array_equal(a, expect, err_msg=f"{n} rows")

    # 1e-300: no round finishes; a column of p gives one block of columns per p
    @pytest.mark.parametrize("p", [1.0, 0.3, 1e-300,
                                   pytest.param((0.3, 1.0, 1e-300), id="column")])
    @pytest.mark.parametrize("k", [1, 4])
    def test_window_tables_match_scan(self, k, p):
        # per link, the first success at or after each step, and per step the
        # last of those: csize where a link or a round does not finish
        b, csize, leaves = 3, 23, 1 << k
        rows = np.random.default_rng(k).random((b, csize, leaves))
        ps = np.atleast_1d(p)
        nxt, last = simulator._window_tables(rows, ps[:, None] if np.ndim(p) else p)
        assert nxt.dtype == last.dtype == np.int16
        assert nxt.shape == (csize, leaves, len(ps) * b) and last.shape == (csize, len(ps) * b)
        for (j, pj), i, t in itertools.product(enumerate(ps), range(b), range(csize)):
            ends = [next((s for s in range(t, csize) if rows[i, s, link] < pj), csize)
                    for link in range(leaves)]
            assert nxt[t, :, j * b + i].tolist() == ends
            assert last[t, j * b + i] == max(ends)
        for j in np.flatnonzero(ps < 1e-100):
            assert (last[:, j * b:(j + 1) * b] == csize).all()

    @pytest.mark.parametrize("k,cycle", [(1, 2), (2, 4), (3, 8)])
    def test_perfect_links_period(self, k, cycle):
        # p = 1: generation at step 1, then one swap round per level; the
        # top pair lands every `cycle` steps (2^(k-1) dominates the tail)
        steps = 4 * cycle + 1
        res, = simulate_nested([(k, 1.0)], SimConfig(seed=0, steps_per_trajectory=steps,
                                                     trajectories=1))
        assert res.tolist() == [steps // cycle]

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(seed=77, steps_per_trajectory=2_000, trajectories=12)
        np.testing.assert_array_equal(simulate_nested([(2, 0.5)], cfg),
                                      simulate_nested([(2, 0.5)], cfg))

    def test_invariants_hold_under_checking(self):
        # the stepwise oracle checks its span bookkeeping after every step
        cfg = SimConfig(seed=21, steps_per_trajectory=4_000, trajectories=8)
        for k, p in [(1, 0.9), (2, 0.5), (3, 0.3)]:
            assert nested_counts_stepwise(k, p, cfg) \
                == tuple(simulate_nested([(k, p)], cfg)[0].tolist())

    @pytest.mark.parametrize("rng", list(BIT_GENERATORS))
    @pytest.mark.parametrize("p", [0.03, 0.25, 0.9, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_stepwise_oracle(self, k, p, rng, monkeypatch):
        use_streams(monkeypatch, rng)  # the engine and the oracle draw from the same streams
        # 1030 trajectories span two batches; small draw chunks make rounds
        # straddle chunks, down to one step per chunk
        for steps, trajectories in itertools.product((1, 97), (1, 3, 1030)):
            cfg = SimConfig(seed=31, steps_per_trajectory=steps, trajectories=trajectories)
            expect = nested_counts_stepwise(k, p, cfg, BIT_GENERATORS[rng])
            for chunk_draws in (1, 7, 64, simulator._CHUNK_DRAWS):
                with monkeypatch.context() as patch:
                    patch.setattr(simulator, "_CHUNK_DRAWS", chunk_draws)
                    assert tuple(simulate_nested([(k, p)], cfg)[0].tolist()) == expect, \
                        (steps, trajectories, chunk_draws)

    # mixed k from 1 to 5, a repeated point and p = 1
    STACK = [(1, 0.5), (5, 0.3), (2, 1.0), (3, 0.07), (1, 0.5), (4, 0.9), (2, 0.25), (5, 1.0)]

    @pytest.mark.parametrize("rng", list(BIT_GENERATORS))
    @pytest.mark.parametrize("chunk_draws", [2**18, 2**10, 97, 1])
    def test_stacked_points_equal_points_run_alone(self, chunk_draws, rng, monkeypatch):
        # one pass over shared streams still reads each point's own stream
        # prefix; 1030 trajectories span two batches
        use_streams(monkeypatch, rng)
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", chunk_draws)
        cfg = SimConfig(seed=47, steps_per_trajectory=40, trajectories=1030)
        stacked = simulate_nested(self.STACK, cfg)
        assert stacked.dtype == np.int64 and stacked.shape == (len(self.STACK), 1030)
        np.testing.assert_array_equal(
            stacked, [simulate_nested([point], cfg)[0] for point in self.STACK])

    def test_window_cap_of_a_lone_trajectory(self):
        # one trajectory at k = 1 would take 87381 steps a window; the cap of
        # 2^16 - 2 draws, 2^15 - 1 steps, keeps every step index in int16, and
        # 2^15 + 5 steps cross it; the pair shares one table
        cfg = SimConfig(seed=17, steps_per_trajectory=2**15 + 5, trajectories=1)
        expect = [nested_counts_stepwise(1, p, cfg) for p in (0.3, 0.02)]
        assert [tuple(row) for row in simulate_nested([(1, 0.3), (1, 0.02)], cfg).tolist()] \
            == expect

    @pytest.mark.parametrize("chunk_draws", [2**10, 97])
    def test_odd_level_group_equals_points_run_alone(self, chunk_draws, monkeypatch):
        # three points of level 2 make a pair and a lone point, around a point
        # of level 3; small windows make rounds straddle them
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", chunk_draws)
        stack = [(2, 0.3), (3, 0.5), (2, 0.9), (2, 0.05)]
        cfg = SimConfig(seed=23, steps_per_trajectory=120, trajectories=40)
        np.testing.assert_array_equal(simulate_nested(stack, cfg),
                                      [simulate_nested([point], cfg)[0] for point in stack])

    @pytest.mark.parametrize("budget", [32 * 1024, 8 * 1024])
    def test_batch_sized_from_the_whole_stack(self, budget, monkeypatch):
        # the 100 links of STACK cap a batch at budget // 100 trajectories
        # (327 or 81); each batch builds its generators once, for one pass
        # over all the points
        cfg = SimConfig(seed=47, steps_per_trajectory=60, trajectories=1030)
        expect = simulate_nested(self.STACK, cfg)
        build, batches = simulator._trajectory_generators, []
        monkeypatch.setattr(simulator, "_trajectory_generators",
                            lambda config, batch: batches.append(batch) or build(config, batch))
        monkeypatch.setattr(simulator, "_CARRIED_LINKS", budget)
        np.testing.assert_array_equal(simulate_nested(self.STACK, cfg), expect)
        assert batches == simulator._batches(1030, budget // 100)

    def test_wide_stack_reads_each_stream_once(self, monkeypatch):
        # 8 points of 2^12 links carry 2^15 links a trajectory: batches of 32
        # trajectories, each of whose streams is built once for all 8 points;
        # a batch draws 1 MiB a window and carries 1 MiB of link flags
        cfg = SimConfig(seed=5, steps_per_trajectory=2, trajectories=256)
        build, batches = simulator._trajectory_generators, []
        monkeypatch.setattr(simulator, "_trajectory_generators",
                            lambda config, batch: batches.append(batch) or build(config, batch))
        tracemalloc.start()
        try:
            counts = simulate_nested([(12, p) for p in np.linspace(0.2, 0.9, 8)], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (8, 256) and not counts.any()  # a round takes 2^12 steps
        assert [i for batch in batches for i in batch] == list(range(256))
        assert peak <= 8 * 2**20

    def test_memory_stays_bounded_at_the_widest_level(self):
        # at 2^12 links a batch of 1024 trajectories carried 32 MiB of int64
        # link steps and drew 32 MiB a step; the capped batch and the bool
        # link mask keep the whole call under 64 MiB
        cfg = SimConfig(seed=3, steps_per_trajectory=5, trajectories=1000)
        tracemalloc.start()
        try:
            res, = simulate_nested([(12, 0.5)], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.tolist() == [0] * 1000  # a round takes at least 2^12 steps
        assert peak <= 64 * 2**20

    def test_memory_stays_bounded_on_the_figure_stack(self):
        # 9 points a level at k = 2..4, as in the nested figure: tables of two
        # points at a time, where one table a whole level would peak near 8 MiB
        cfg = SimConfig(seed=3, steps_per_trajectory=2000, trajectories=100)
        points = [(k, p) for k in (2, 3, 4) for p in np.linspace(0.1, 0.9, 9)]
        tracemalloc.start()
        try:
            res = simulate_nested(points, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.shape == (27, 100)
        assert peak <= 6 * 2**20

    def test_level_one_matches_chain_walker(self):
        # same process, two implementations: the walker samples the 5-state
        # chain, the engine tracks links and a swap timer
        p = 0.5
        chain = build_chain(TwoLinkParams((p,), (p,), 1.0))
        cfg = SimConfig(seed=42, steps_per_trajectory=30_000, trajectories=60)
        (walker, engine), _, (walker_err, engine_err) = _rate_stats(
            np.stack([simulate_chain(chain, cfg), simulate_nested([(1, p)], cfg)[0]]), 30_000)
        assert abs(walker - engine) < 3 * np.hypot(walker_err, engine_err)

    def test_rate_decreases_with_level(self):
        cfg = SimConfig(seed=9, steps_per_trajectory=10_000, trajectories=30)
        rates = _rate_stats(simulate_nested([(k, 0.7) for k in (1, 2, 3)], cfg), 10_000)[0]
        assert rates[0] > rates[1] > rates[2]


def counts_digest(counts) -> str:
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]


GOLDEN_CHAINS = {
    "mh2": MultiHeraldParams((0.3, 0.8)),
    "mh3": MultiHeraldParams((0.4, 0.6, 0.9)),
    "mh11": MultiHeraldParams((1.0, 1.0)),
    "shs": TwoLinkParams((0.4,), (0.7,), 0.6),
    "dhs": TwoLinkParams((0.5, 0.6), (0.7, 0.4), 0.9),
}

# digests of the success counts at seed 5, keyed by (chain, generator, trajectories, steps)
GOLDEN_CHAIN_COUNTS = {
    ("mh2", "philox", 1, 5000): "eef79a6a04f78a54",
    ("mh2", "philox", 700, 2000): "311322b049ef2faf",
    ("mh2", "philox", 1100, 600): "d6a72bb66a6c423f",
    ("mh2", "pcg64", 1, 5000): "b312d5fbcfab403a",
    ("mh2", "pcg64", 700, 2000): "6871e58058964968",
    ("mh2", "pcg64", 1100, 600): "95c796c7143d4b31",
    ("mh3", "philox", 1, 5000): "09eac95eb995b821",
    ("mh3", "philox", 700, 2000): "5d2b9407da679906",
    ("mh3", "philox", 1100, 600): "027b36c446df4112",
    ("mh3", "pcg64", 1, 5000): "24be8ee76308afb9",
    ("mh3", "pcg64", 700, 2000): "69a25345621133e2",
    ("mh3", "pcg64", 1100, 600): "ae2a6676408d2414",
    ("mh11", "philox", 1, 5000): "5a0b83e19c5750ee",
    ("mh11", "philox", 700, 2000): "98375df63d2eb9c0",
    ("mh11", "philox", 1100, 600): "c5006482bc74cd30",
    ("mh11", "pcg64", 1, 5000): "5a0b83e19c5750ee",
    ("mh11", "pcg64", 700, 2000): "98375df63d2eb9c0",
    ("mh11", "pcg64", 1100, 600): "c5006482bc74cd30",
    ("shs", "philox", 1, 5000): "501a4e61aa4f7737",
    ("shs", "philox", 700, 2000): "633eaf2d8aea1821",
    ("shs", "philox", 1100, 600): "c8fef8a06d21b5f5",
    ("shs", "pcg64", 1, 5000): "ce02d4b6d1aceeea",
    ("shs", "pcg64", 700, 2000): "ae4542fbab6576d2",
    ("shs", "pcg64", 1100, 600): "f07c3410c3030dc6",
    ("dhs", "philox", 1, 5000): "8952115444bab6de",
    ("dhs", "philox", 700, 2000): "09980468c789ae55",
    ("dhs", "philox", 1100, 600): "7791b50c71b3df39",
    ("dhs", "pcg64", 1, 5000): "7182dd431b5c8833",
    ("dhs", "pcg64", 700, 2000): "4d2c6ddbac96615c",
    ("dhs", "pcg64", 1100, 600): "158a18037289b8b3",
}

# digests of the success counts at seed 13, keyed by (k, p, generator, trajectories, steps)
GOLDEN_NESTED_COUNTS = {
    (1, 0.5, "philox", 1100, 700): "b7ba82d86525f654",
    (1, 0.5, "pcg64", 1100, 700): "fe6a1b6fcce98c68",
    (2, 0.6, "philox", 600, 1500): "1feb409b4e81658a",
    (2, 0.6, "pcg64", 600, 1500): "75c1e6a4712c7ace",
    (3, 0.3, "philox", 700, 300): "42c821f953d11178",
    (3, 0.3, "pcg64", 700, 300): "642f559cd2cf060a",
}


class TestGoldenCounts:
    """Exact per-trajectory counts pinned by digest.

    Any change to the sampling, stepping, batching or chunking that moves a
    single count fails here. The shapes cross batch and draw-chunk
    boundaries: 1100 trajectories span two batches, and the step counts
    span more than one chunk.
    """

    @pytest.mark.parametrize("key", sorted(GOLDEN_CHAIN_COUNTS), ids=lambda key: "-".join(map(str, key)))
    def test_chain_counts(self, key, monkeypatch):
        name, rng, trajectories, steps = key
        use_streams(monkeypatch, rng)
        cfg = SimConfig(seed=5, steps_per_trajectory=steps, trajectories=trajectories)
        res = simulate_chain(build_chain(GOLDEN_CHAINS[name]), cfg)
        assert counts_digest(res.tolist()) == GOLDEN_CHAIN_COUNTS[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN_NESTED_COUNTS), ids=lambda key: "-".join(map(str, key)))
    def test_nested_counts(self, key, monkeypatch):
        k, p, rng, trajectories, steps = key
        use_streams(monkeypatch, rng)
        cfg = SimConfig(seed=13, steps_per_trajectory=steps, trajectories=trajectories)
        res, = simulate_nested([(k, p)], cfg)
        assert counts_digest(res.tolist()) == GOLDEN_NESTED_COUNTS[key]

    def test_small_chunks_give_the_same_counts(self, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 2**16)
        chain = simulate_chain(build_chain(GOLDEN_CHAINS["dhs"]),
                               SimConfig(seed=5, steps_per_trajectory=600, trajectories=1100))
        assert counts_digest(chain.tolist()) \
            == GOLDEN_CHAIN_COUNTS[("dhs", "philox", 1100, 600)]
        nested, = simulate_nested([(3, 0.3)], SimConfig(seed=13, steps_per_trajectory=300,
                                                        trajectories=700))
        assert counts_digest(nested.tolist()) \
            == GOLDEN_NESTED_COUNTS[(3, 0.3, "philox", 700, 300)]


class TestProcessLevelDeterminism:
    def test_subprocess_reproducibility(self):
        # fresh interpreters with different string hashing, byte-identical counts
        code = (
            "from repeaterlab.simulator import SimConfig, simulate_nested\n"
            "r, = simulate_nested([(2, 0.45)], SimConfig(seed=1234,"
            " steps_per_trajectory=2000, trajectories=50))\n"
            "print(r.tolist())\n"
        )
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
