import numpy as np
import pytest

from mfdyn.lattice import Grid, LatticeField, sample_interaction
from mfdyn.onebody import Orbital, build_h


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid6():
    return Grid(6, 1.0)


@pytest.fixture
def grid8():
    return Grid(8, 0.5)


class CountingOperator:
    """H with a count of the products H @ v taken through it."""

    def __init__(self, H):
        self.H, self.shape, self.products = H, H.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.H @ v


def random_orbital(rng, grid):
    vals = rng.normal(size=grid.sites) + 1j * rng.normal(size=grid.sites)
    return Orbital.normalized(grid, vals)


def random_field(rng, grid, real=True):
    vals = rng.normal(size=grid.sites)
    if not real:
        vals = vals + 1j * rng.normal(size=grid.sites)
    return LatticeField(grid, vals)


@pytest.fixture
def gaussian_w(grid6):
    return sample_interaction(grid6, "gaussian", lam=1.0, sigma=1.0)


@pytest.fixture
def h6(grid6):
    return build_h(grid6)
