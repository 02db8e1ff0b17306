from concurrent.futures import ThreadPoolExecutor

import pytest

from ripcert import (
    all_pairs_steiner,
    hadamard,
    paley_etf,
    realify,
    steiner_etf,
    subsets,
)


@pytest.fixture(scope="session")
def steiner_6x16():
    return steiner_etf(all_pairs_steiner(4), hadamard(4, "sylvester"))


@pytest.fixture(scope="session")
def paley5():
    return paley_etf(5)


@pytest.fixture(scope="session")
def paley5_real(paley5):
    return realify(paley5)


@pytest.fixture(scope="session")
def paley13():
    return paley_etf(13)


@pytest.fixture(scope="session")
def paley13_real(paley13):
    return realify(paley13)


@pytest.fixture
def started_pools(monkeypatch):
    """The max_workers of each pool ``ordered_map`` starts in a test. The shared pools
    are forgotten before and after it, so each pool the test uses is started in it."""
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(subsets, "ThreadPoolExecutor", CountingPool)
    subsets._pool.cache_clear()
    yield started
    subsets._pool.cache_clear()
