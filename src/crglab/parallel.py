"""Deterministic worker-thread fan-out.

The environment variable CRG_THREADS caps worker parallelism; absence means
auto. Work is split into fixed-size index chunks whose results are written
back by position, so outputs are bit-identical for any worker count or
completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

_CHUNK = 8192


def worker_count() -> int:
    raw = os.environ.get("CRG_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CRG_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"CRG_THREADS must be a positive integer, got {raw!r}")
    return n


def map_chunked(fn: Callable[[np.ndarray], np.ndarray],
                values: np.ndarray) -> np.ndarray:
    """Apply an elementwise-batch fn over fixed chunks of ``values``.

    fn must be a pure per-element computation (its output at index i depends
    only on values[i]), which makes the chunked result identical to the
    single-shot one.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=bool)
    workers = worker_count()
    slices = [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    if workers == 1 or len(slices) == 1:
        parts = [fn(values[s]) for s in slices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda s: fn(values[s]), slices))
    return np.concatenate(parts)
