import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import settings

# hypothesis's pytest plugin imports this module, and libcst with it, at the
# first failing example; libcst's import warns DeprecationWarning, which the
# pytest filters turn into an INTERNALERROR that stops every later test.
# Imported here, once, with that warning ignored for this import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips its patch, as here
        pass

import fkwc.testing
from fkwc import FunctionalDataset, Grid

# every property draws the same examples on every run, so a failure
# reproduces on rerun; no time limit per example on a loaded machine
settings.register_profile("fkwc", derandomize=True, deadline=None)
settings.load_profile("fkwc")

# not a test class despite the name
fkwc.testing.TestConfig.__test__ = False
fkwc.testing.TestResult.__test__ = False


@pytest.fixture(scope="session", autouse=True)
def library_cache(tmp_path_factory):
    """The compiled library (fkwc.compiled) is built into this session's
    temporary directory, not into the user's cache; subprocesses inherit
    the setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def grid101():
    return Grid(101)


@pytest.fixture
def grid21():
    return Grid(21)


@pytest.fixture
def traced_peak():
    """The peak bytes tracemalloc traces while ``fn()`` runs: deterministic,
    unlike the process's RSS."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def two_group_dataset(grid101):
    rng = np.random.default_rng(424242)
    curves = rng.normal(size=(30, grid101.m))
    return FunctionalDataset(grid101, curves, [1] * 15 + [2] * 15)
