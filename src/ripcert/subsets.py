"""Deterministic subset enumeration with optional thread workers.

Subsets are always produced in lexicographic order, as numpy index
arrays of at most ``CHUNK`` rows, and reduced chunk by chunk in that
order. Every reduction keeps the first strict maximum, so a search
returns the same value and the same witness (its lexicographically first
maximiser among equal floats) wherever the chunk boundaries fall, and for
any worker count. A subset search maps its chunks through
``ordered_map``, which runs them on one shared pool of ``worker_count()``
threads, the RIPCERT_WORKERS environment variable (default 1). That is
the only level of parallelism: no task maps on the pool, so maps never
nest, and Monte Carlo trials run in order on the calling thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import EnumerationBudgetError, InvalidParameterError, InvalidSelectionError

WORKERS_ENV = "RIPCERT_WORKERS"
#: rows per enumerated chunk, and the row cap of the r-subset table that
#: k-subset chunks are assembled from; results never depend on it (see above)
CHUNK = 4096
#: default cap on the number of enumerated subsets (or subset pairs), and on
#: the entries of a dense matrix a constructor or reader allocates
DEFAULT_BUDGET = 5_000_000

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Threads for an ``ordered_map``: the RIPCERT_WORKERS environment variable."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidParameterError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if workers < 1:
        raise InvalidParameterError(f"worker count must be >= 1, got {workers}")
    return workers


def require_budget(needed: int, budget: int, what: str, unit: str = "subset evaluations") -> None:
    if budget < 0:
        raise InvalidParameterError(f"budget must be >= 0, got {budget}")
    if needed > budget:
        raise EnumerationBudgetError(needed, budget, what, unit)


def _selection(values, n: int, what: str) -> list[int]:
    """``values`` as ints, refused unless distinct and each in range(n)."""
    idx = [int(v) for v in values]
    if len(set(idx)) != len(idx):
        raise InvalidSelectionError(f"duplicate entries in {what}")
    for v in idx:
        if not 0 <= v < n:
            raise InvalidSelectionError(f"{v} out of range in {what}")
    return idx


def disjoint_pair_count(n: int, k: int) -> int:
    """Number of unordered pairs of disjoint k-subsets of range(n)."""
    return math.comb(n, k) * math.comb(n - k, k) // 2


def mixed_pair_count(n: int, k: int) -> int:
    """Unordered pairs of disjoint nonempty subsets with sizes up to k."""
    total = 0
    for a in range(1, min(k, n) + 1):
        for b in range(1, min(k, n - a) + 1):  # C(n - a, b) = 0 beyond
            total += math.comb(n, a) * math.comb(n - a, b)
    return total // 2


@functools.lru_cache(maxsize=16)
def _subset_table(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n), lexicographic, as a read-only (C(n, r), r) array,
    built once per (n, r) and shared by every caller."""
    rows = math.comb(n, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    table = np.fromiter(flat, dtype=np.intp, count=rows * r).reshape(rows, r)
    table.flags.writeable = False
    return table


def _row_starts(table: np.ndarray, n: int) -> list[int]:
    """``starts[s]``: first row of a lexicographic table whose smallest element is >= s."""
    return np.searchsorted(table[:, 0], np.arange(n + 1)).tolist()


def _pack(segments: Iterable[tuple], width: int) -> Iterator[np.ndarray]:
    """Rows ``head + tail`` for every (head, tails) segment, in (<= CHUNK, width) arrays."""
    out = np.empty((CHUNK, width), dtype=np.intp)
    fill = 0
    for head, tails in segments:
        h = len(head)
        done = 0
        while done < len(tails):
            take = min(len(tails) - done, CHUNK - fill)
            out[fill : fill + take, :h] = head
            out[fill : fill + take, h:] = tails[done : done + take]
            fill += take
            done += take
            if fill == CHUNK:
                yield out
                out = np.empty((CHUNK, width), dtype=np.intp)
                fill = 0
    if fill:
        yield out[:fill]


def iter_subset_chunks(n: int, k: int) -> Iterator[np.ndarray]:
    """Lexicographic k-subsets of range(n) in (B, k) index arrays.

    Each (k-r)-prefix, in lexicographic order, is followed by every
    r-subset of the elements above its last one. Those r-subsets are a
    contiguous tail of the lexicographic r-subset table, so a chunk is
    assembled by slicing, with r the largest size whose table has at
    most ``CHUNK`` rows.
    """
    r = max((s for s in range(1, k + 1) if math.comb(n, s) <= CHUNK), default=min(k, 1))
    table = _subset_table(n, r)
    starts = _row_starts(table, n) if r else []

    def segments():
        for head in itertools.combinations(range(n), k - r):
            yield head, table[starts[head[-1] + 1] :] if head else table

    yield from _pack(segments(), k)


def iter_disjoint_pair_chunks(
    n: int, k: int, firsts: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Unordered pairs of disjoint k-subsets whose first member ``firsts`` names.

    ``firsts`` are ascending rows of the lexicographic k-subset table. A
    pair's first member holds its smallest element, so every row together
    lists each unordered pair once. Pairs come in lexicographic order of
    (first, second): the partners of ``first`` are the rows of the table
    that start above ``first[0]`` and share no element with it, found
    through a column-membership table.
    """
    table = _subset_table(n, k)
    starts = _row_starts(table, n)
    member = np.zeros((n, len(table)), dtype=bool)
    member[table, np.arange(len(table))[:, None]] = True

    def segments():
        for first in table[firsts]:
            lo = starts[first[0] + 1]
            yield first, table[lo:][~member[first, lo:].any(axis=0)]

    for rows in _pack(segments(), 2 * k):
        yield rows[:, :k], rows[:, k:]


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's one pool of ``workers`` threads, started on first use."""
    return ThreadPoolExecutor(max_workers=workers)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """Map preserving input order, optionally on the shared thread pool.

    With workers > 1 and at least two items, the tasks run on ``_pool(workers)``,
    at most ``4 * workers`` of them in flight, and results are yielded strictly
    in submission order, so any downstream reduction sees the same sequence as
    a serial run. A map of fewer than two items runs on the calling thread.
    ``fn`` must not map on the pool itself, or the pool can deadlock.
    """
    items = iter(items)
    head = list(itertools.islice(items, 2)) if workers > 1 else []
    if len(head) < 2:
        for item in itertools.chain(head, items):
            yield fn(item)
        return
    pool = _pool(workers)
    try:
        pending: deque = deque()
        for item in itertools.chain(head, items):
            pending.append(pool.submit(fn, item))
            if len(pending) >= 4 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # a consumer that stops early (a first hit, an exception) closes this
        # generator; tasks that have not started are then dropped, not run
        for future in pending:
            future.cancel()
