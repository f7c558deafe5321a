import math

import pytest

from crglab import growth, models


@pytest.fixture(scope="session")
def exp_model():
    """e^z."""
    return models.ExponentialSum([([1.0], 1.0)])


@pytest.fixture(scope="session")
def sin_model():
    """sin z = (-i/2) e^{iz} + (i/2) e^{-iz}."""
    return models.ExponentialSum([([-0.5j], 1j), ([0.5j], -1j)])


@pytest.fixture(scope="session")
def cosh_model():
    """cosh z = (1/2) e^{z} + (1/2) e^{-z}."""
    return models.ExponentialSum([([0.5], 1.0), ([0.5], -1.0)])


@pytest.fixture(scope="session")
def k_squared_product():
    """Zeros at k**2, genus 0, certified through r = 200 with tail <= 1e-3."""
    return models.CanonicalProduct(models.PowerZeroRule(exponent=2.0),
                                   genus=0, tail_tol=1e-3, r_max=200.0)


@pytest.fixture(scope="session")
def rho_one():
    """The order of an exponential sum, as ``growth_scale`` takes it."""
    return 1.0


@pytest.fixture(scope="session")
def cascade_one():
    return growth.EpsilonCascade(1)


def log_abs_sin(z: complex) -> float:
    """log|sin z| stable for large |Im z| (test oracle)."""
    x, y = z.real, z.imag
    if abs(y) < 20:
        return math.log(abs(complex(math.sin(x) * math.cosh(y),
                                    math.cos(x) * math.sinh(y))))
    # |sin z| = (e^{|y|}/2) |1 - e^{2i z sign(y)}|
    return abs(y) - math.log(2.0) + 0.5 * math.log(
        1 - 2 * math.exp(-2 * abs(y)) * math.cos(2 * x) + math.exp(-4 * abs(y)))
