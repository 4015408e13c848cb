import numpy as np
import pytest

from arm7ik import KinematicModel


@pytest.fixture
def model():
    """Unit-length canonical arm: h = 1, workspace radius 3."""
    return KinematicModel()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class StartAt:
    """An rng stand-in under which a solver that draws its start with
    model.random_joints(rng) starts from `start`: every uniform draw
    gives it."""

    def __init__(self, start):
        self.start = np.asarray(start, dtype=float)

    def uniform(self, low, high):
        return self.start.copy()


@pytest.fixture
def start_at():
    return StartAt
