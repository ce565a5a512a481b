"""Process-based fan-out of the pair scan with deterministic aggregation.

Work items are serialized as tree literals so workers never need to pickle
Tree objects; `parallel_map` preserves input order, which keeps every result
independent of the worker count.  `scan_pairs` is the only caller.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], jobs: int | None) -> list[R]:
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (jobs * 4))
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)
