import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from ripcert import subsets
from ripcert.errors import InvalidParameterError
from ripcert.subsets import (
    iter_disjoint_pair_chunks,
    iter_subset_chunks,
    ordered_map,
    require_budget,
    worker_count,
)


def reference_pairs(n, k):
    """The pair order of the pure-itertools enumeration."""
    for first in itertools.combinations(range(n), k):
        in_first = set(first)
        allowed = [x for x in range(first[0] + 1, n) if x not in in_first]
        for second in itertools.combinations(allowed, k):
            yield first, second


def subset_rows(n, k):
    for block in iter_subset_chunks(n, k):
        assert 0 < len(block) <= subsets.CHUNK
        assert block.shape[1] == k
        yield from (tuple(int(x) for x in row) for row in block)


def pair_rows(n, k, firsts):
    for first, second in iter_disjoint_pair_chunks(n, k, firsts):
        assert 0 < len(first) <= subsets.CHUNK
        assert first.shape == second.shape == (len(first), k)
        for a, b in zip(first, second):
            yield tuple(int(x) for x in a), tuple(int(x) for x in b)


def same_sequence(got, expected):
    return all(a == b for a, b in itertools.zip_longest(got, expected))


class TestEnumerationOrder:
    @pytest.mark.parametrize("chunk", [1, 5, 4096])
    def test_subsets_match_itertools(self, chunk, monkeypatch):
        monkeypatch.setattr(subsets, "CHUNK", chunk)
        for n in range(1, 13):
            for k in range(0, n + 2):
                expected = itertools.combinations(range(n), k)
                assert same_sequence(subset_rows(n, k), expected), (n, k)

    @pytest.mark.parametrize("chunk", [1, 5, 4096])
    def test_disjoint_pairs_match_itertools(self, chunk, monkeypatch):
        monkeypatch.setattr(subsets, "CHUNK", chunk)
        for n in range(1, 13):
            for k in range(1, n // 2 + 2):
                every = np.arange(math.comb(n, k))
                assert same_sequence(pair_rows(n, k, every), reference_pairs(n, k)), (n, k)

    @pytest.mark.parametrize("chunk", [1, 5, 4096])
    def test_disjoint_pairs_of_chosen_first_members(self, chunk, monkeypatch):
        monkeypatch.setattr(subsets, "CHUNK", chunk)
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                table = list(itertools.combinations(range(n), k))
                firsts = np.flatnonzero(rng.random(len(table)) < 0.3)
                named = {table[r] for r in firsts}
                expected = (pair for pair in reference_pairs(n, k) if pair[0] in named)
                assert same_sequence(pair_rows(n, k, firsts), expected), (n, k)
                assert not list(pair_rows(n, k, firsts[:0]))

    def test_subset_tables_are_shared_and_read_only(self):
        table = subsets._subset_table(9, 3)
        assert subsets._subset_table(9, 3) is table
        assert [tuple(row) for row in table.tolist()] == list(itertools.combinations(range(9), 3))
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_more_than_64_columns(self, monkeypatch):
        monkeypatch.setattr(subsets, "CHUNK", 4096)
        for k in (1, 2, 3):
            expected = itertools.combinations(range(70), k)
            assert same_sequence(subset_rows(70, k), expected)
        assert same_sequence(pair_rows(70, 1, np.arange(70)), reference_pairs(70, 1))


class TestOrderedMap:
    @pytest.mark.parametrize("count, pools", [(0, 0), (1, 0), (2, 1)])
    def test_a_pool_only_for_two_items_or_more(self, started_pools, count, pools):
        results = list(ordered_map(lambda x: 2 * x, iter(range(count)), 2))
        assert results == [2 * x for x in range(count)]
        assert started_pools == [2] * pools

    def test_concurrent_maps_share_one_pool(self, started_pools):
        # maps started from several threads at once interleave their tasks on the
        # one pool, and each still yields its own results in order; the pool is started
        # first, as two threads that both find none would both start one
        assert list(ordered_map(lambda x: x, range(2), 3)) == [0, 1]
        results = {}

        def run(offset):
            results[offset] = list(ordered_map(lambda x: x + offset, range(300), 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(1000 * t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {1000 * t: [x + 1000 * t for x in range(300)] for t in range(6)}
        assert started_pools == [3]

    def test_early_exit_cancels_queued_work(self):
        calls = []
        lock = threading.Lock()

        def fn(i):
            with lock:
                calls.append(i)
            if i:
                time.sleep(0.05)
            return i

        for result in ordered_map(fn, range(100), 2):
            assert result == 0
            break
        # item 0 plus at most the two items running when the consumer
        # stopped; the rest of the 8 queued items must not run
        assert len(calls) <= 3


class TestWorkerCount:
    def test_read_from_the_environment(self, monkeypatch):
        monkeypatch.delenv("RIPCERT_WORKERS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("RIPCERT_WORKERS", "3")
        assert worker_count() == 3

    @pytest.mark.parametrize(
        "raw, message",
        [("0", "worker count must be >= 1, got 0"), ("x", "RIPCERT_WORKERS='x' is not an integer")],
    )
    def test_bad_values_are_refused(self, monkeypatch, raw, message):
        monkeypatch.setenv("RIPCERT_WORKERS", raw)
        with pytest.raises(InvalidParameterError) as info:
            worker_count()
        assert str(info.value) == message


class TestBudget:
    def test_negative_budget_is_invalid(self):
        with pytest.raises(InvalidParameterError):
            require_budget(0, -1, "anything")
