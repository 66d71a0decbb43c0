"""Deterministic chunked Monte Carlo driver.

Every sampling routine in the package draws from PCG64DXSM substreams,
one a chunk: the generator of SeedSequence(seed, spawn_key=(chunk,)),
numpy's documented way to make independent parallel streams. Chunk
results are combined in chunk order, so estimates are bit-identical for a
fixed (seed, budget) no matter how many worker threads run the chunks.

A chunk (CHUNK_SIZE points) is the unit of randomness: it has its own
substream key and is one thread job. A block (BLOCK points) is the unit
of memory: a chunk's points are drawn and tested BLOCK at a time, as
consecutive draws from the chunk's one generator, so that each block's
temporaries stay in cache. A generator's doubles are one sequential
stream, so the blocks hold exactly the rows of one whole-chunk draw, and
no result depends on BLOCK. strata_blocks is the one block sampler: a box
is one stratum, as for the cut ball's turnings. uniform_box is the same
draw in one array. Only these two know what a draw costs: each refuses a
chunk above MAX_CHUNK_FLOATS before drawing it.
"""

from __future__ import annotations

import os

import numpy as np

CHUNK_SIZE = 1 << 19
# a block of width 3 is 384 KiB, and each float64 temporary column 128 KiB:
# a block's numpy passes run from a 2 MiB L2 cache, not from L3. On a 2-vCPU
# Xeon, 2^15 was slower on one thread, and 2^13 slower on two, where every
# block's handful of Python steps waits for the interpreter lock.
BLOCK = 1 << 14
# 2^17 chunks: hours of even the cheapest sampling. The chunk list is built
# before the first draw, about 100 bytes a chunk, so a budget of 10^13 would
# take 1.8 GiB before doing any work.
MAX_BUDGET = 1 << 36
THREADS_ENV = "CARNOT_ISO_THREADS"
# 256 MiB of float64 in one chunk: CHUNK_SIZE points of 64 floats drawn (a
# radial point draws 1 + k, a CC cut-ball point 1, at any group width). Draws
# are made a block at a time, but the limit bounds the whole chunk.
MAX_CHUNK_FLOATS = 1 << 25


def substream(seed: int, chunk: int) -> np.random.Generator:
    """Independent generator for one chunk of one logical stream.

    PCG64DXSM seeded by SeedSequence(seed, spawn_key=(chunk,)), which is
    SeedSequence(seed).spawn(chunk + 1)[chunk]. ValueError for a seed outside
    [0, 2^64): seeds are the CLI's 64-bit integers, and a negative one is no
    SeedSequence entropy.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(chunk),))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_chunks(seed: int, budget: int, fn):
    """Run fn(rng, count) over budget samples split into CHUNK_SIZE chunks.

    Returns the list of per-chunk results in chunk order. Worker-thread
    count comes from CARNOT_ISO_THREADS, capped at the chunk count and the
    CPU count, and cannot affect the results. A budget above MAX_BUDGET is
    refused before any chunk runs.
    """
    if budget < 1:
        raise ValueError("sample budget must be >= 1")
    if budget > MAX_BUDGET:
        raise ValueError(f"sample budget {budget} exceeds the ceiling {MAX_BUDGET} (2^36)")
    sizes = [min(CHUNK_SIZE, budget - start) for start in range(0, budget, CHUNK_SIZE)]

    def run(args):
        idx, count = args
        return fn(substream(seed, idx), count)

    jobs = list(enumerate(sizes))
    workers = min(thread_count(), len(jobs), os.cpu_count() or 1)
    if workers == 1:
        return [run(j) for j in jobs]
    from concurrent.futures import ThreadPoolExecutor  # here: it imports logging, 10 ms
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))


def check_chunk(count: int, width: int):
    """ValueError, before any array is made, if count x width floats exceed MAX_CHUNK_FLOATS."""
    if count * width > MAX_CHUNK_FLOATS:
        raise ValueError(f"a sampling chunk of {count} points x {width} coordinates exceeds "
                         f"the limit of {MAX_CHUNK_FLOATS} floats; lower the budget")


def uniform_box(rng: np.random.Generator, count: int, lo: np.ndarray, hi: np.ndarray):
    """count uniform draws in the box [lo, hi], shape (count, len(lo)).

    The draw convention: lo + (hi - lo) U, with U the generator's next
    count x len(lo) doubles in [0, 1) in C order. That is bit for bit
    rng.uniform(lo, hi, size=(count, len(lo))), and leaves rng in the same
    state, but faster: rng.uniform broadcasts array bounds a point at a time.
    OverflowError, as for rng.uniform, when hi - lo exceeds the float range.
    """
    check_chunk(count, len(lo))
    maps, = _column_maps([lo], [hi])
    return _map_columns(rng.random(out=np.empty((count, len(lo)))), maps)


def strata_blocks(rng: np.random.Generator, counts, lo, hi):
    """Yield (pts, segments) for sum(counts) uniform draws, counts[s] of them in [lo[s], hi[s]].

    The strata take consecutive rows, in stratum order, BLOCK points a block;
    each row is the generator's next len(lo[s]) doubles, mapped into its
    stratum's box as uniform_box maps them, elementwise. So one stratum is
    uniform_box's draw, and the blocks stacked are one whole-chunk draw, bit
    for bit, at every BLOCK. segments lists (s, i, j): the block's rows i:j
    are stratum s's. check_chunk runs on the whole chunk before the first
    draw. Every block is a view of one buffer, which the next block
    overwrites: use each block before asking for the next. (A fresh draw
    freed every block lets malloc return the heap top to the system, and the
    next block fault it back in: a quarter of a cheap-norm block's time.)
    """
    total, width = int(sum(counts)), len(lo[0])
    check_chunk(total, width)
    maps = _column_maps(lo, hi)
    ends = np.cumsum(counts).tolist()
    buf = np.empty((min(BLOCK, total), width))
    s = 0
    for start in range(0, total, BLOCK):
        pts = rng.random(out=buf[:min(BLOCK, total - start)])
        segments, row, stop = [], start, start + len(pts)
        while row < stop:
            while ends[s] <= row:
                s += 1
            end = min(ends[s], stop)
            _map_columns(pts[row - start:end - start], maps[s])
            segments.append((s, row - start, end - start))
            row = end
        yield pts, segments


def _column_maps(lo, hi):
    """For each box [lo[s], hi[s]], (j, hi - lo, lo) of each column it maps.

    OverflowError for a side beyond the float range. A [0, 1] column (lower
    bound 0.0 or -0.0) is left as drawn: 0 + 1 U is U, bit for bit. The boxes
    are checked once, not once a block: with two threads every Python step of
    a block may wait for the GIL.
    """
    span = np.subtract(hi, lo)
    if not np.all(np.isfinite(span)):
        raise OverflowError(f"box side hi - lo = {span} exceeds the float range")
    return [[(j, s, b) for j, (s, b) in enumerate(zip(sides, lows)) if (s, b) != (1.0, 0.0)]
            for sides, lows in zip(span.tolist(), np.asarray(lo, dtype=float).tolist())]


def _map_columns(pts: np.ndarray, maps):
    """pts with each mapped column j overwritten, in place, by lo + (hi - lo) U."""
    for j, s, b in maps:
        col = pts[:, j]
        col *= s
        col += b
    return pts
