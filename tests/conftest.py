import numpy as np
import pytest

from support import path_network, triangle_network


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def path_net():
    return path_network(3)


@pytest.fixture
def triangle_net():
    return triangle_network()
