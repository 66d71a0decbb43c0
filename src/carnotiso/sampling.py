"""Deterministic chunked Monte Carlo driver.

Every sampling routine in the package draws from counter-based Philox
substreams keyed by (seed, chunk index). Chunk results are combined in
chunk order, so estimates are bit-identical for a fixed (seed, budget)
no matter how many worker threads run the chunks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK_SIZE = 1 << 19
# 2^17 chunks: hours of even the cheapest sampling. The chunk list is built
# before the first draw, about 100 bytes a chunk, so a budget of 10^13 would
# take 1.8 GiB before doing any work.
MAX_BUDGET = 1 << 36
THREADS_ENV = "CARNOT_ISO_THREADS"


def substream(seed: int, chunk: int) -> np.random.Generator:
    """Independent generator for one chunk of one logical stream."""
    key = (int(seed) & (2**64 - 1)) << 64 | (int(chunk) & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_chunks(seed: int, budget: int, fn, chunk_size: int = CHUNK_SIZE):
    """Run fn(rng, count) over budget samples split into chunks.

    Returns the list of per-chunk results in chunk order. Worker-thread
    count comes from CARNOT_ISO_THREADS, capped at the chunk count and the
    CPU count, and cannot affect the results. A budget above MAX_BUDGET is
    refused before any chunk runs.
    """
    if budget < 1:
        raise ValueError("sample budget must be >= 1")
    if budget > MAX_BUDGET:
        raise ValueError(f"sample budget {budget} exceeds the ceiling {MAX_BUDGET} (2^36)")
    sizes = []
    left = budget
    while left > 0:
        take = min(chunk_size, left)
        sizes.append(take)
        left -= take

    def run(args):
        idx, count = args
        return fn(substream(seed, idx), count)

    jobs = list(enumerate(sizes))
    workers = min(thread_count(), len(jobs), os.cpu_count() or 1)
    if workers == 1:
        return [run(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))


def uniform_box(rng: np.random.Generator, count: int, lo: np.ndarray, hi: np.ndarray):
    """count uniform draws in the box [lo, hi], shape (count, len(lo))."""
    return rng.uniform(lo, hi, size=(count, len(lo)))
