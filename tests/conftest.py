import os

import numpy as np
import pytest
from hypothesis import settings

from wkmeans.core import WeightedPointSet
from wkmeans.sampling import RandomSource
from wkmeans.sensor import SensorRegion, UniformDensity

# HYPOTHESIS_PROFILE=deep runs a thousand examples per property test.
settings.register_profile("suite", deadline=None, max_examples=50)
settings.register_profile("deep", deadline=None, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def unit_square() -> SensorRegion:
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return SensorRegion(poly, UniformDensity())


def make_points(seed: int, n: int, d: int, weighted: bool = True) -> WeightedPointSet:
    gen = RandomSource(seed).generator()
    coords = gen.random((n, d))
    weights = 0.1 + 2.9 * gen.random(n) if weighted else np.ones(n)
    return WeightedPointSet(coords, weights)


def dyadic_points(n: int) -> WeightedPointSet:
    """n points on a 2^-4 grid in [0, 64)^2 with integer weights 1 to 9.

    Shifts of up to 2^23 move every coordinate, and every offset from the
    first point stays, exactly.
    """
    gen = RandomSource(n).generator()
    coords = np.floor(gen.random((n, 2)) * 1024.0) / 16.0
    weights = np.floor(gen.random(n) * 9.0) + 1.0
    return WeightedPointSet(coords, weights)
