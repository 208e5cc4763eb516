import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from support import path_network, triangle_network


def pytest_configure(config):
    # While it collects a @given test, hypothesis caches the constants of the
    # code under test in its home directory, .hypothesis/ in the working
    # directory by default: keep that cache in pytest's own.
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def path_net():
    return path_network(3)


@pytest.fixture
def triangle_net():
    return triangle_network()
