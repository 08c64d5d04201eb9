import platform

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


@pytest.fixture
def replayed_with() -> str:
    """What replays a transcript in this process: the Python and numpy
    versions and the SIMD targets numpy dispatches to.  The last bits of
    numpy's transcendental functions depend on the target, and
    ``NPY_DISABLE_CPU_FEATURES`` or a CPU without AVX-512 drops some."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    return (f"Python {platform.python_version()} and numpy {np.__version__}, "
            f"dispatching to {targets}")
