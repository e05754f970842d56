"""Seeded Monte Carlo engines cross-checking the analytical results.

Two engines: a trajectory walker for any ProtocolChain, and a discrete-time
simulator of 2^k-link nested repeater chains (single-heralded elementary
link generation, deterministic swapping with explicit classical
communication delays).

Determinism contract: trajectory i owns the Philox stream of
numpy's SeedSequence(seed, spawn_key=(i,)), and all reductions are ordered
by trajectory index, so results depend on the seed alone, never on batch or
chunk sizes. Trajectories are walked in vectorized lock-step batches, one
batch after another on the calling thread; each trajectory still consumes
only its own stream. The Philox keys of a whole batch are derived in one
pass, instead of one SeedSequence per trajectory: numpy's own
SeedSequence(seed).pool, then a vectorized port of the mixing of each
trajectory's index into it. Both engines take a stack of points and read
each batch's streams once for all of them, through one reader
(_stream_windows), and return int64 success counts, one row per point and
one entry per trajectory.

The chain walker buckets each chunk of draws against the merged breakpoints
of all cumulative rows of a point; a bucket fixes the next state from every
state, so a step is one gather from a successor table. A chunk is walked in
blocks of a quarter of its steps: the grid cells of a block's draws are taken
once, and each point of a stacked chain turns them into its own table offsets
and walks them, so only the float64 draws take memory in proportion to a chunk.

The nested engine steps from round to round, not slot by slot: a round's
top pair forms 2^k - 1 steps after the last success of its links. A call
takes many (k, p) points and draws each batch's streams once, in windows of
whole rows of the widest point; a batch holds as many trajectories as keep
all the points' links within _CARRIED_LINKS, and at least one. Two points
of a level at a time turn their prefix of each window into int16
next-success steps per link, and their maximum into a round-end table per
step: the step at which a round begun there has all its links. Their rounds
are a walk on a per-step successor table, one gather per round for both
points and the batch; a carried round enters the walk at its first step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import ArgumentRangeError, _is_integer, check_nested
from .protocols import ProtocolChain

RNG_ALGORITHM = "philox"  # the bit generator of every trajectory stream
_BATCH = 1024         # trajectories per lock-step batch; the CLI default of 1000 is one
_CHUNK_DRAWS = 2**18  # uniforms drawn per batch at a time; bounds the chunk arrays (in
                      # the walker, the float64 draws at 8 bytes each, plus a block of a
                      # quarter chunk at 17 bytes a draw: intp cells and table offsets,
                      # bool flags; at most 22 in the nested engine, whose windows
                      # hold 2/3 as many draws: see simulate_nested)
_CELLS = 4096         # power-of-two grid on [0, 1) that buckets most draws by one lookup
_CARRIED_LINKS = 2**20  # link flags a nested batch carries between windows, over all its
                        # points: 2^20 / sum(2^k) trajectories a batch, at least one
MAX_TRAJECTORIES = 2**32  # spawn keys are one 32-bit word, as _spawn_keys assumes

# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZERO_COUNTER = np.zeros(4, np.uint64)  # Philox's start counter; copied, never written


@dataclass(frozen=True)
class SimConfig:
    """Simulation run shape. seed feeds per-trajectory substreams.

    Every field is required: the run defaults of the command line live in
    cli._RUN_SETTINGS alone.
    """

    seed: int
    steps_per_trajectory: int
    trajectories: int

    def __post_init__(self):
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ArgumentRangeError("seed", self.seed, "unsigned 64-bit integer")
        if not (_is_integer(self.steps_per_trajectory) and self.steps_per_trajectory >= 1):
            raise ArgumentRangeError("steps_per_trajectory", self.steps_per_trajectory,
                                     "integer >= 1")
        if not (_is_integer(self.trajectories) and 1 <= self.trajectories <= MAX_TRAJECTORIES):
            raise ArgumentRangeError("trajectories", self.trajectories,
                                     f"integer 1..{MAX_TRAJECTORIES}")


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of a uint32 array, elementwise, under the constant const.

    Returns the hashed value and the next hash constant.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of a 32-bit word x into each word of a uint32 array y."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _spawn_keys(seed: int, batch: range) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(i,)) for i in batch, (len(batch), 2) uint64.

    Equal to SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
    for seeds below 2^64 and indices below 2^32. The entropy is the seed's
    words, zero-padded to the pool size of 4, then the index word. Pooling
    the seed's words does not depend on the index: it is numpy's own
    SeedSequence(seed).pool, which takes 16 hashes (4 words in, 12 cross
    mixes), so the index word's hashing starts from _INIT_A * _MULT_A^16.
    That mixing and generate_state are a port that runs on uint32 arrays over
    the batch, where products wrap mod 2^32 as in C.
    """
    index = np.arange(batch.start, batch.stop, dtype=np.uint32)
    const, words, out_const = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32, [], _INIT_B
    for word in np.random.SeedSequence(seed).pool.tolist():
        mixed, const = _hashmix(index, const, _MULT_A)
        word, out_const = _hashmix(_mix(word, mixed), out_const, _MULT_B)
        words.append(word)
    # generate_state's uint64 words are pairs of 32-bit words, low word first
    return np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _fixed_key_type() -> type:
    # numpy 2 imports numpy.random lazily, and importing this package must not
    # pay for it, so the base class is imported on first use
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """Hands Philox a precomputed key, where a SeedSequence would derive one."""

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its key as generate_state(2, uint64)

    return FixedKey


def _trajectory_generators(config: SimConfig, batch: range) -> list[np.random.Generator]:
    """The independent, reproducible stream of each trajectory index in batch."""
    fixed_key = _fixed_key_type()
    # an explicit zero counter spares Philox its slow conversion of counter=None
    return [np.random.Generator(np.random.Philox(fixed_key(key), counter=_ZERO_COUNTER))
            for key in _spawn_keys(int(config.seed), batch)]


def _batches(total: int, size: int = _BATCH) -> list[range]:
    return [range(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _stream_windows(config: SimConfig, batch: range, total: int, window: int):
    """Yield (lo, uniforms) per window of draws lo .. lo + window of batch's streams, in order.

    Row i of uniforms holds trajectory batch[i]'s draws, the first total in
    all; every window is a view of one buffer, which the next overwrites.
    """
    gens = _trajectory_generators(config, batch)
    buf = np.empty(len(gens) * min(window, total))
    for lo in range(0, total, window):
        uniforms = buf[:len(gens) * min(window, total - lo)].reshape(len(gens), -1)
        for g, row in zip(gens, uniforms):
            g.random(out=row)
        yield lo, uniforms


def _walk_tables(cum: np.ndarray, grid: np.ndarray, success_state: int):
    """One chain's walk tables, from its cumulative rows cum (n, n).

    The edges are the sorted breakpoints of all rows. A draw's bucket b is
    the number of edges <= u; it fixes the next state from every state s:
    successor[b * n + s] = #{j : cum[s, j] <= u}, exact because every
    breakpoint cum[s, j] is an edge. hits flags the successor entries that
    are the success state. A draw in grid cell m = floor(u * _CELLS) lies in
    bucket below[m] unless an edge falls strictly inside the cell: the int32
    cell table holds below[m] * n, or -1 for such a cell, whose draws are
    searched. A stacked chain holds every point's tables at once, about
    20 kB a dhs point, nearly all of it the cell table.
    """
    n = len(cum)
    edges = np.unique(cum)
    successor = np.zeros((len(edges) + 1, n), dtype=np.intp)
    successor[1:] = np.count_nonzero(cum <= edges[:, None, None], axis=2)
    successor = successor.ravel()
    below = np.searchsorted(edges, grid, side="right")
    cell_offset = (below[:-1] * n).astype(np.int32)
    cell_offset[np.searchsorted(edges, grid[1:], side="left") != below[:-1]] = -1
    return edges, successor, successor == success_state, cell_offset


def simulate_chain(chain: ProtocolChain, config: SimConfig) -> np.ndarray:
    """Walk a chain, or each chain of a stacked chain, for steps_per_trajectory transitions.

    Returns the int64 success counts of every trajectory, of shape
    chain.matrix.rows.shape[:-2] + (trajectories,): visits to the success
    state among steps 1..steps (the start state itself is not counted).
    Sampling inverts each row's cumulative distribution against one
    uniform draw per step, through the bucket of the draw (see
    _walk_tables). Every point reads the same trajectory streams, as it
    would alone, so a batch builds its generators once and draws each chunk
    once. The chunk is walked a block of a quarter of its steps at a time:
    each block is bucketed once, then the points walk it one by one.
    """
    n = chain.n
    rows = chain.matrix.rows
    cum = np.cumsum(rows.reshape(-1, n, n), axis=2)
    cum[..., -1] = 1.0  # kill cumulative round-off; draws live in [0, 1)
    grid = np.arange(_CELLS + 1) / _CELLS
    tables = [_walk_tables(point, grid, chain.success_state) for point in cum]
    steps = config.steps_per_trajectory
    counts = np.zeros((len(tables), config.trajectories), dtype=np.int64)
    for batch in _batches(config.trajectories):
        b = len(batch)
        chunk = max(1, _CHUNK_DRAWS // b)
        block = max(1, chunk // 4)
        # one block of cells, table offsets and flags per batch, reused by every
        # block and point: fresh megabyte-sized arrays cost the walker a page
        # fault per page each time the allocator hands them back to the system
        cell_buf, offset_buf = np.empty((2, min(block, steps) * b), np.intp)
        flag_buf = np.empty(min(block, steps) * b, bool)
        states = np.full((len(tables), b), chain.start_state, dtype=np.intp)
        for _, window in _stream_windows(config, batch, steps, chunk):
            for lo in range(0, window.shape[1], block):
                # a block's draws, cells, offsets and flags in (step, trajectory)
                # layout, so that each step reads one contiguous row
                draws = window.T[lo:lo + block]
                cells, offsets, flags = (buf[:draws.size].reshape(draws.shape)
                                         for buf in (cell_buf, offset_buf, flag_buf))
                np.multiply(draws, _CELLS, out=cells, casting="unsafe")  # floor(u * _CELLS)
                for i, (edges, successor, hits, cell_offset) in enumerate(tables):
                    # every index is in range (a cell is below _CELLS, an offset
                    # below len(successor)), so mode="clip" clips nothing; it
                    # only spares take the temporary copy it makes for out=
                    cell_offset.astype(np.intp).take(cells, out=offsets, mode="clip")
                    split = np.flatnonzero(np.less(offsets, 0, out=flags))
                    offsets.flat[split] = np.searchsorted(edges, draws.flat[split],
                                                          side="right") * n
                    state = states[i]
                    for index in offsets:
                        index += state
                        state = successor.take(index)
                    states[i] = state
                    counts[i, batch.start:batch.stop] += np.count_nonzero(
                        hits.take(offsets, out=flags, mode="clip"), axis=0)
    return counts.reshape(rows.shape[:-2] + (config.trajectories,))


def _window_tables(rows: np.ndarray, p):
    """Next-success and round-end tables of a window of uniform rows (batch, csize, leaves).

    p is a scalar or a column of P link probabilities: the tables have one
    column per (point, trajectory), p-major, w = P * batch, or batch for a
    scalar p. Both are int16 and step-major, so every numpy pass runs along
    rows of leaves * w or w entries, however few steps a window holds (see
    _suffix_min). The next-success table, (csize, leaves, w): nxt[t, l, j] is
    the first step >= t of the window, counted from its start, at which link
    l of column j succeeds, or csize (below 2^15: see simulate_nested) if
    none does. The round-end table, (csize, w), is its largest entry over
    the links: last[t, j] is the step at which a round begun at t has all
    its links, or csize if it does not finish in the window.
    """
    b, csize, leaves = rows.shape
    nxt = np.empty((csize, leaves, np.size(p) * b), dtype=np.int16)
    np.less(rows.transpose(1, 2, 0)[:, :, None], p, out=nxt.reshape(csize, leaves, -1, b))
    # t where link l succeeds at step t, else csize
    nxt *= (np.arange(csize, dtype=np.int16) - np.int16(csize))[:, None, None]
    nxt += np.int16(csize)
    _suffix_min(nxt.reshape(csize, -1))
    return nxt, np.maximum.reduce(nxt, axis=1)


def _suffix_min(a: np.ndarray):
    """Set each row of a 2-d array to the minimum of itself and the rows after it, in place.

    Works on whole rows, in blocks of about sqrt(n) of the n rows: one pass
    per offset within a block, each over every block at once, then one pass
    per block, which takes the next block's first row, already final. So
    about 2 sqrt(n) numpy calls, where np.minimum.accumulate along the rows
    walks each column on its own at about 3 ns an entry. The passes over
    interleaved rows overlap their out= operand, so numpy copies them
    through its ufunc buffers: under 100 kB whatever the size of a.
    """
    n = len(a)
    block = max(1, math.isqrt(n))
    for j in range(block - 2, -1, -1):  # rows j + i * block, from the row after each
        np.minimum(a[j:n - 1:block], a[j + 1::block], out=a[j:n - 1:block])
    for s in range((n - 1) // block * block - block, -1, -block):
        np.minimum(a[s:s + block], a[s + block], out=a[s:s + block])


class _Rounds:
    """The round state over a batch of b trajectories of nested points of one level
    k: the k, the column of their p, and per (point, trajectory) column, p-major,
    the first step of its current round (of the last window it entered, if
    carried), the mask of that round's links not seen to succeed in earlier
    windows, one row per link, and its success count."""

    def __init__(self, k: int, p: list, b: int):
        self.k, self.p = k, np.array(p)[:, None]
        self.start, self.counts = np.zeros((2, len(p) * b), dtype=np.int64)
        self.missing = np.ones((1 << k, len(p) * b), dtype=bool)

    def advance(self, uniforms: np.ndarray, lo: int, steps: int):
        """Resolve every round that ends in the window of steps lo .. lo + csize.

        uniforms holds the window's draws, row i those of trajectory i; the
        window is its prefix of csize rows of 2^k draws each, cut at steps,
        and the tables of every p are built from it (see _window_tables). A
        round begun at window step t has all its links at last[t], and its top
        pair forms 2^k - 1 steps later, since every level adds the same delay
        on every path; the next round begins at last[t] + 2^k. So the rounds of
        a column in the window are a walk on the successor table
        t -> last[t] + 2^k, which stays put where that step is past the
        window. A round carried in from an earlier window enters the walk at
        step 0: advance rewrites row 0 of both tables in place, where the links
        seen to succeed before read 0. The round where a walk stops is scored
        once, or left open.
        """
        b = len(uniforms)
        csize = min(uniforms.shape[1] >> self.k, steps - lo)
        if csize <= 0:
            return
        nxt, last = _window_tables(
            uniforms[:, :csize << self.k].reshape(b, csize, 1 << self.k), self.p)
        start, missing, counts = self.start, self.missing, self.counts
        w, jump = len(start), 1 << self.k
        carried = start < lo
        np.multiply(nxt[0], missing, out=nxt[0], where=carried)
        np.maximum.reduce(nxt[0], axis=0, out=last[0])
        start[carried] = lo
        live = np.flatnonzero(start < lo + csize)
        if not live.size:
            return
        # flat successor table: entry t * w + j holds the entry of the round
        # after the one column j begins at t, or its own where that one begins
        # past the window; int32, as t * w + j and last + 2^k overflow int16
        succ = np.add(last, jump, dtype=np.int32)
        np.copyto(succ, np.arange(csize, dtype=np.int32)[:, None], where=succ >= csize)
        succ *= np.int32(w)
        succ += np.arange(w, dtype=np.int32)
        succ = succ.ravel()
        # four rounds per check: a step from where the walk stops stays there
        path = [((start[live] - lo) * w + live).astype(np.int32)]
        while True:
            for _ in range(4):
                path.append(succ.take(path[-1]))
            if not np.count_nonzero(path[-1] != path[-2]):
                break
        path = np.array(path)
        # a round that moves the walk ends inside the window, so before steps
        counts[live] += np.count_nonzero(path[1:] != path[:-1], axis=0)
        pos = path[-1]
        ends = last.ravel().take(pos)
        still = ends >= csize
        top = ends + np.int64(lo + jump - 1)
        counts[live] += ~still & (top < steps)
        start[live] = np.where(still, lo + (pos - live) // w, top + 1)
        cols = live[still]
        missing[:, cols] = (nxt[start[cols] - lo, :, cols] >= csize).T


def simulate_nested(points, config: SimConfig) -> np.ndarray:
    """Discrete-time simulation of 2^k-link nested swapping chains at each (k, p).

    Idle elementary links attempt generation with probability p per step;
    two sibling segments at level j-1 start a level-j swap that completes
    after 2^(j-1) steps (classical heralding over the doubled span) and
    always succeeds; the top-level pair is consumed the step it forms,
    freeing every link from the next step on. Until then a link that
    succeeded is held and does not regenerate.

    So a round starting at step s is fixed by the draws alone, and the
    engine resolves whole rounds: link l succeeds at the first step t >= s
    with u[t, l] < p, and the top pair forms at step T, 2^k - 1 steps after
    the last of them, which scores if T < steps; the next round starts at
    T + 1. Each trajectory reads one row of 2^k uniforms per step, as a
    slot-by-slot engine would, so point (k, p) reads the first
    steps * 2^k draws of each stream whatever the other points are. A batch
    holds _CARRIED_LINKS / sum(2^k) trajectories, the sum over every point,
    at least one and at most _BATCH, so all the points share one pass over
    each batch's streams, window by window of whole rows of the widest
    point, which the points of a level turn into tables two at a time, in
    call order; a stack wider than _CARRIED_LINKS links carries its own
    width, at most 4 MiB of link flags for a 1024-point block at k = 12.
    Returns the int64 success counts of every trajectory, one row per point:
    shape (len(points), trajectories).
    """
    points = list(points)
    for k, p in points:
        check_nested(k, p)
    points = [(int(k), p) for k, p in points]  # numpy integers would shift in their own dtype
    steps = config.steps_per_trajectory
    counts = np.zeros((len(points), config.trajectories), dtype=np.int64)
    if not points:
        return counts  # no links to size a batch by
    size = max(1, min(_BATCH, _CARRIED_LINKS // sum(1 << k for k, _ in points)))
    width = 1 << max(k for k, _ in points)
    levels = {}
    for i, (k, _) in enumerate(points):
        levels.setdefault(k, []).append(i)
    groups = [(k, ids[j:j + 2]) for k, ids in levels.items() for j in range(0, len(ids), 2)]
    for batch in _batches(config.trajectories, size):
        rounds = [_Rounds(k, [points[i][1] for i in g], len(batch)) for k, g in groups]
        # a window draw costs its float64 uniform and the pair of int16
        # next-success steps two points make of it, whose suffix minimum runs
        # in place; a step, 2^k >= 2 draws, costs the pair's int16 round-end
        # and int32 successor entries, and a round, at least 2^k steps, each
        # point's int32 entry of the walk's path, held twice while the path is
        # stacked: at most 22 bytes a draw (plus the few walk steps that check
        # the walk has stopped), 15 a draw of _CHUNK_DRAWS. A trajectory draws
        # at most 2^16 - 2 a window, so no point's window holds 2^15 steps
        window = max(1, min(2 * _CHUNK_DRAWS // (3 * len(batch) * width),
                            (2**16 - 2) // width)) * width
        for lo, uniforms in _stream_windows(config, batch, steps * width, window):
            for r in rounds:
                r.advance(uniforms, lo >> r.k, steps)  # windows are whole rows of every point
        for (_, g), r in zip(groups, rounds):
            counts[g, batch.start:batch.stop] = r.counts.reshape(len(g), -1)
    return counts
