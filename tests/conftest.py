import numpy as np
import pytest

from rmsphase import NodeCounts, PhysicalConstants


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def nodes64():
    return NodeCounts.uniform(64)


@pytest.fixture(scope="session")
def nodes128():
    return NodeCounts.uniform(128)


@pytest.fixture(scope="session")
def dimensionless():
    return PhysicalConstants.dimensionless()


@pytest.fixture
def fresh_tables():
    """Empty the table caches around a test that patches what they are built from."""
    from rmsphase import oscillator, perturbation
    caches = (oscillator._axis_overlaps, oscillator.overlap_tables,
              perturbation._coefficient_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
