import pytest

from nldc import _blocks


@pytest.fixture
def workers(monkeypatch):
    """Call workers(count) to run this test's n x n kernels on exactly count workers."""
    pools = []

    def force(count):
        pool = _blocks._Pool(count)
        pools.append(pool)
        monkeypatch.setattr(_blocks, "_POOL", pool)
        return pool

    yield force
    for pool in pools:
        pool.shutdown()
