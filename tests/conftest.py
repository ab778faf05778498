"""Fixtures shared by the test modules."""

import pytest

from semiheat import linalg


@pytest.fixture
def blas_counts_are():
    """Sets the bundled OpenBLAS pools to two threads, as a caller might.

    Yields `counts_are(n)`, true when every pool runs n threads; with no
    bundled OpenBLAS it is always true, so only the count checks lapse.
    The pools' own counts are restored afterwards.
    """
    pools = linalg._blas_pools()
    saved = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(2)
    yield lambda n: all(pool.get() == n for pool in pools)
    for pool, count in zip(pools, saved):
        pool.set(count)
