import math

import numpy as np
import pytest

from crglab import analytic, covering, criteria, growth, models
from crglab.errors import require_increasing, require_positive


class TestRequirePositive:
    @pytest.mark.parametrize("x", [5e-324, 0.5, 1, 1e308])
    def test_accepts_finite_positive(self, x):
        assert require_positive("x", x) is None

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_refuses_the_rest(self, x):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            require_positive("x", x)


class TestRequireIncreasing:
    def test_returns_floats(self):
        assert require_increasing("r", [1, 2.5, 1e3]) == [1.0, 2.5, 1000.0]

    @pytest.mark.parametrize("xs,at_least", [
        ([], 1), ([2.0, 1.0], 1), ([1.0, 1.0], 1), ([1.0, 2.0], 3)])
    def test_refuses_the_rest(self, xs, at_least):
        with pytest.raises(ValueError, match="r must hold at least"):
            require_increasing("r", xs, at_least)

    def test_empty_radius_lists_refused(self, sin_model):
        # an empty list made zheng_ratio return inf, a vacuous d > 1
        # certificate, and hypothesis_check_14b return no rows
        with pytest.raises(ValueError, match="r_list"):
            growth.zheng_ratio(sin_model, [])
        with pytest.raises(ValueError, match="r_list"):
            criteria.hypothesis_check_14b(
                sin_model, _BETA, growth.sector_budget(2, _CASCADE),
                [], criteria.MonteCarloPlan(10, 1))


_RULE = models.PowerZeroRule(2.0)
_CASCADE = growth.EpsilonCascade(1)
_BETA = growth.GrowthMinorant.exp_power(0.5, 1.0)
_EXP = models.ExponentialSum([([1.0], 1.0)])   # e^z


def _k_squared():
    return models.CanonicalProduct(_RULE, 0, 0.05, 2e3)


def _crg(c=1.0, declared=1.0):
    return analytic.verify_crg_ray_product(
        _k_squared(), c, _CASCADE, [(1e3, math.pi)], declared)


# one entry per real parameter that must be positive; each takes the value
_PARAMETERS = {
    "PowerZeroRule.exponent": lambda x: models.PowerZeroRule(x),
    "CanonicalProduct.tail_tol": lambda x: models.CanonicalProduct(_RULE, 0, x, 100.0),
    "CanonicalProduct.r_max": lambda x: models.CanonicalProduct(_RULE, 0, 0.05, x),
    "CanonicalProduct.counting_function": lambda x: _k_squared().counting_function(x),
    "growth_scale.rho": lambda x: growth.GrowthMinorant.growth_scale(x, _CASCADE),
    "scale_V": lambda x: growth.scale_V(1.0, x),
    "log_max_modulus": lambda x: growth.log_max_modulus(_EXP, x),
    "zheng_ratio": lambda x: growth.zheng_ratio(_EXP, [x]),
    "exp_power.c": lambda x: growth.GrowthMinorant.exp_power(x, 1.0),
    "exp_power.mu": lambda x: growth.GrowthMinorant.exp_power(0.5, x),
    "series_condition_check.tail_tol": lambda x: growth.series_condition_check(
        growth.sector_budget(2, _CASCADE),
        growth.GrowthMinorant.growth_scale(1.0, _CASCADE), 100.0, x),
    "indicator_empirical.radii": lambda x: growth.indicator_empirical(
        _EXP, [0.0, 1.0], [1e2, 1e3, x]),
    "fuchs_macintyre_disks.H": lambda x: covering.fuchs_macintyre_disks([0.2 + 0.1j], x),
    "cartan_levin_disks.R": lambda x: covering.cartan_levin_disks([0.2 + 0.1j], x, 0.2),
    "DiskSet.radius": lambda x: covering.DiskSet(((0j, x),)),
    "schwarz_log_derivative.t_r": lambda x: analytic.schwarz_log_derivative(_EXP, 0j, x, 16),
    "AnnulusSpec": criteria.AnnulusSpec,
    "verify_crg_ray_product.c": lambda x: _crg(c=x),
    "verify_crg_ray_product.declared_constant": lambda x: _crg(declared=x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_PARAMETERS))
def test_positive_parameters_refuse_nan_and_inf(name, x):
    with pytest.raises(ValueError, match="positive and finite"):
        _PARAMETERS[name](x)


def test_array_checks_refuse_nan():
    with pytest.raises(ValueError):
        _BETA.log_beta_many(np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        covering.DiskSet.from_text("0 0 nan\n")
