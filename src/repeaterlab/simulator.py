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
vectorized pass, by a port of SeedSequence's hash mixing, instead of one
SeedSequence per trajectory. Both engines take a stack of points and read
each batch's streams once for all of them, through one reader
(_stream_windows), and return int64 success counts, one row per point and
one entry per trajectory.

The chain walker buckets each chunk of draws against the merged breakpoints
of all cumulative rows of a point; a bucket fixes the next state from every
state, so a step is one gather from a successor table. The grid cells of a
chunk's draws are taken once, and each point of a stacked chain turns them
into its own table offsets and walks them.

The nested engine steps from round to round, not slot by slot: a round's
top pair forms 2^k - 1 steps after the last success of its links. A call
takes many (k, p) points and draws each batch's streams once, in windows of
whole rows of the widest point. Every point turns its prefix of each window
into next-success steps per link, and their maximum into a per-step
round-end table: the step at which a round begun there has all its links.
The rounds of a window are then a walk on a per-step successor table, one
gather per round for the whole batch; a round carried in from an earlier
window enters the walk at its first step.
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
_CHUNK_DRAWS = 2**18  # uniforms drawn per batch at a time; bounds the chunk arrays (25
                      # bytes per draw in the walker: the float64 draw, its intp cell
                      # and table offset, a bool flag; at most 18 in the nested engine,
                      # whose windows hold 2/3 as many draws: see _nested_pass)
_CELLS = 4096         # power-of-two grid on [0, 1) that buckets most draws by one lookup
_CARRIED_LINKS = 2**20  # link flags a nested stream pass carries between windows: a batch
                        # holds at most 2^20 / 2^k trajectories, more points take more passes
MAX_TRAJECTORIES = 2**32  # spawn keys are one 32-bit word, as _spawn_keys assumes

# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZERO_COUNTER = np.zeros(4, np.uint64)  # Philox's start counter; copied, never written


@dataclass(frozen=True)
class SimConfig:
    """Simulation run shape. seed feeds per-trajectory substreams."""

    seed: int
    steps_per_trajectory: int = 100_000
    trajectories: int = 1_000

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
    """SeedSequence's hash of a 32-bit word, or of a uint32 array elementwise.

    Returns the hashed value and the next hash constant.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, y possibly a uint32 array."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _spawn_keys(seed: int, batch: range) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(i,)) for i in batch, (len(batch), 2) uint64.

    Equal to SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
    for seeds below 2^64 and indices below 2^32. The entropy is the seed's
    two 32-bit words, zero-padded to the pool size of 4, then the index word.
    Pooling the seed words does not depend on the index, so it runs once, on
    Python ints; the index word's mixing and generate_state run on uint32
    arrays over the batch, where products wrap mod 2^32 as in C.
    """
    pool, const = [], _INIT_A
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        mixed, const = _hashmix(word, const, _MULT_A)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    index = np.arange(batch.start, batch.stop, dtype=np.uint32)
    words, out_const = [], _INIT_B
    for dst in range(4):
        mixed, const = _hashmix(index, const, _MULT_A)
        word, out_const = _hashmix(_mix(pool[dst], mixed), out_const, _MULT_B)
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
    for s, row in enumerate(cum):
        successor[1:, s] = np.searchsorted(np.sort(row), edges, side="right")
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
    would alone, so a batch builds its generators once and draws and
    buckets each chunk once; then the points walk the chunk one by one.
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
        # one set of chunk buffers per batch, reused by every chunk and point:
        # fresh multi-megabyte arrays cost the walker a page fault per page
        # each time the allocator hands them back to the system
        size = min(chunk, steps) * b
        (cell_buf, offset_buf), flag_buf = np.empty((2, size), np.intp), np.empty(size, bool)
        states = np.full((len(tables), b), chain.start_state, dtype=np.intp)
        for _, uniforms in _stream_windows(config, batch, steps, chunk):
            csize = uniforms.shape[1]
            # cells, table offsets and flags in (step, trajectory) layout, so
            # that each step reads one contiguous row
            cells, offsets, flags = (buf[:csize * b].reshape(csize, b)
                                     for buf in (cell_buf, offset_buf, flag_buf))
            np.multiply(uniforms.T, _CELLS, out=cells, casting="unsafe")  # floor(u * _CELLS)
            for i, (edges, successor, hits, cell_offset) in enumerate(tables):
                # every index is in range (a cell is below _CELLS, an offset
                # below len(successor)), so mode="clip" clips nothing; it only
                # spares take the temporary copy it makes for out= otherwise
                cell_offset.astype(np.intp).take(cells, out=offsets, mode="clip")
                split = np.flatnonzero(np.less(offsets, 0, out=flags))
                offsets.flat[split] = np.searchsorted(edges, uniforms.T.flat[split],
                                                      side="right") * n
                state = states[i]
                for index in offsets:
                    index += state
                    state = successor.take(index)
                states[i] = state
                counts[i, batch.start:batch.stop] += np.count_nonzero(
                    hits.take(offsets, out=flags, mode="clip"), axis=0)
    return counts.reshape(rows.shape[:-2] + (config.trajectories,))


def _window_tables(rows: np.ndarray, p: float, nxt_buf: np.ndarray, last_buf: np.ndarray):
    """Next-success and round-end tables of a window of uniform rows (batch, csize, leaves).

    Both tables are step-major with the batch innermost, so that every
    numpy pass runs along rows of leaves * batch or batch entries, however
    few steps a window holds (see _suffix_min). The next-success table,
    (csize, leaves, batch) int32 in nxt_buf: nxt[t, l, i] is the first
    step >= t of the window, counted from its start, at which link l of
    trajectory i succeeds, or csize if none does. The round-end table,
    (csize, batch) int32 in last_buf, is its largest entry over the links:
    last[t, i] is the step at which a round begun at t has all its links,
    or csize if it does not finish in the window. Both buffers are flat,
    with at least rows.size and csize * batch entries.
    """
    b, csize, leaves = rows.shape
    nxt = nxt_buf[:rows.size].reshape(csize, leaves, b)
    np.less(rows.transpose(1, 2, 0), p, out=nxt)
    # t where link l succeeds at step t, else csize
    nxt *= (np.arange(csize, dtype=np.int32) - np.int32(csize))[:, None, None]
    nxt += np.int32(csize)
    _suffix_min(nxt.reshape(csize, leaves * b))
    return nxt, np.maximum.reduce(nxt, axis=1, out=last_buf[:csize * b].reshape(csize, b))


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
    """One nested point's round state over a batch: the k, p, and per trajectory
    the first step of its current round (of the last window it entered, if
    carried), the mask of that round's links not seen to succeed in earlier
    windows, and its success count, in counts, the batch's slice of the
    point's row of the call's counts."""

    def __init__(self, k: int, p: float, counts: np.ndarray):
        self.k, self.p, self.counts = k, p, counts
        self.start = np.zeros(len(counts), dtype=np.int64)
        self.missing = np.ones((len(counts), 1 << k), dtype=bool)

    def advance(self, nxt: np.ndarray, last: np.ndarray, lo: int, steps: int,
                succ_buf: np.ndarray):
        """Resolve every round that ends in the window of steps lo .. lo + last.shape[0].

        nxt and last are the window's tables (see _window_tables). A round
        begun at window step t has all its links at last[t], and its top pair
        forms 2^k - 1 steps later, since every level adds the same delay on
        every path; the next round begins at last[t] + 2^k. So the rounds of
        a trajectory in the window are a walk on the successor table
        t -> last[t] + 2^k, which stays put where that step is past the
        window. A round carried in from an earlier window enters the walk at
        step 0: advance rewrites row 0 of both tables for its trajectory, where
        the links seen to succeed before read 0. The round where a walk stops
        is scored once, or left open. succ_buf is a flat int32 buffer of at
        least last.size entries.
        """
        start, missing, counts = self.start, self.missing, self.counts
        csize, b = last.shape
        jump = 1 << self.k
        carried = np.flatnonzero(start < lo)
        links = nxt[0, :, carried] * missing[carried]
        nxt[0, :, carried] = links
        last[0, carried] = links.max(axis=1)
        start[carried] = lo
        live = np.flatnonzero(start < lo + csize)
        if not live.size:
            return
        # flat successor table: entry t * b + i holds the entry of the round
        # after the one trajectory i begins at t, or its own where that one
        # begins past the window
        succ = succ_buf[:last.size].reshape(csize, b)
        np.add(last, jump, out=succ)
        np.copyto(succ, np.arange(csize, dtype=np.int32)[:, None], where=succ >= csize)
        succ *= np.int32(b)
        succ += np.arange(b, dtype=np.int32)
        succ = succ.ravel()
        # four rounds per check: a step from where the walk stops stays there
        path = [((start[live] - lo) * b + live).astype(np.int32)]
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
        start[live] = np.where(still, lo + (pos - live) // b, top + 1)
        rows = live[still]
        missing[rows] = nxt[start[rows] - lo, :, rows] >= csize


def _stream_passes(points, b: int) -> list[list[int]]:
    """Runs of consecutive point indices whose carried links, b * 2^k per
    point, fit in _CARRIED_LINKS (the batch size keeps every point within it)."""
    runs, used = [], 0
    for i, (k, _) in enumerate(points):
        if not runs or used + (b << k) > _CARRIED_LINKS:
            runs.append([])
            used = 0
        runs[-1].append(i)
        used += b << k
    return runs


def _nested_pass(config: SimConfig, batch: range, rounds: list[_Rounds], steps: int):
    """Advance every point of rounds over the first steps rows of batch's streams.

    Reads each stream once, in windows of whole rows of the widest point;
    point (k, p) reads the first window / 2^k rows of 2^k draws of each.
    """
    b = len(batch)
    width = 1 << max(r.k for r in rounds)
    total = steps * width
    # a window draw costs its float64 uniform and the int32 next-success step
    # one point at a time makes of it, whose suffix minimum runs in place; a
    # step, 2^k >= 2 draws, costs its int32 round-end and successor entries,
    # and a round, at least 2^k >= 2 steps, its int32 entry of the walk's
    # path, held twice while the path is stacked: at most 18 bytes a draw
    # (plus the few walk steps that check the walk has stopped), 12 a draw
    # of _CHUNK_DRAWS
    window = min(max(1, 2 * _CHUNK_DRAWS // (3 * b * width)) * width, total)
    nxt_buf = np.empty(b * window, dtype=np.int32)
    last_buf, succ_buf = np.empty((2, b * window // 2), dtype=np.int32)
    for lo, uniforms in _stream_windows(config, batch, total, window):
        for r in rounds:
            first = lo >> r.k  # lo and the window are whole rows of every point
            csize = min(uniforms.shape[1] >> r.k, steps - first)
            if csize > 0:
                rows = uniforms[:, :csize << r.k].reshape(b, csize, 1 << r.k)
                r.advance(*_window_tables(rows, r.p, nxt_buf, last_buf), first, steps,
                          succ_buf)


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
    holds at most _CARRIED_LINKS / 2^k trajectories of the widest point. The
    points share one pass over each batch's streams (see _nested_pass), or
    a few where their carried state would exceed _CARRIED_LINKS (see
    _stream_passes). Returns the int64 success counts of every trajectory,
    one row per point: shape (len(points), trajectories).
    """
    points = list(points)
    for k, p in points:
        check_nested(k, p)
    points = [(int(k), p) for k, p in points]  # numpy integers would shift in their own dtype
    steps = config.steps_per_trajectory
    width = 1 << max((k for k, _ in points), default=0)
    counts = np.zeros((len(points), config.trajectories), dtype=np.int64)
    for batch in _batches(config.trajectories, max(1, min(_BATCH, _CARRIED_LINKS // width))):
        for run in _stream_passes(points, len(batch)):
            rounds = [_Rounds(*points[i], counts[i, batch.start:batch.stop]) for i in run]
            _nested_pass(config, batch, rounds, steps)
    return counts
