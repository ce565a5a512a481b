"""Process-based fan-out of the pair scan with deterministic aggregation.

Work items are the level sequences of the two trees of a pair (tuples of
ints), so workers neither pickle `Tree` objects nor parse literals; each
process builds and caches its small trees from the sequences.  `parallel_map`
preserves input order, which keeps every result independent of the worker
count.  `scan_pairs` is the only caller.  `multiprocessing` is imported only
when a pool starts, so the other verbs do not pay for loading it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable


def parallel_map(fn: Callable, items: Iterable, jobs: int | None) -> list:
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    import multiprocessing

    chunk = max(1, len(items) // (jobs * 4))
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)
