import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crglab import growth, models
from crglab.errors import BelowThreshold


def _eps3(cascade, r):
    """eps3 at r, through the array primitive the larger levels square."""
    return float(cascade.eps3_from_log(np.log(r)))


def _log_beta(beta, r):
    """log beta(r) from one scalar call of the log-domain closure."""
    return float(beta.log_beta_of_log(math.log(r)))


class TestScaleV:
    def test_constant_orders(self):
        assert growth.scale_V(growth.ProximateOrder.constant(1.0), 10.0) \
            == pytest.approx(10.0)
        assert growth.scale_V(growth.ProximateOrder.constant(0.5), 1e4) \
            == pytest.approx(100.0)

    def test_log_corrected(self):
        # rho(r) = 0.5 + 1/log r
        po = growth.ProximateOrder(0.5, lambda l: 0.5 + 1.0 / np.maximum(l, 1.0))
        assert growth.scale_V(po, math.exp(10.0)) \
            == pytest.approx(math.exp(6.0), rel=1e-12)


class TestEpsilonCascade:
    def test_exact_square_chain(self, cascade_one):
        for r in (10.0, 50.0, 1e4, 1e8):
            e1, e2, e3 = (cascade_one.eps1(r), cascade_one.eps2(r),
                          _eps3(cascade_one, r))
            assert e1 == e2 * e2 == (e3 * e3) * (e3 * e3)
            assert e1 <= e2 <= e3 <= 1.0

    def test_matches_iterated_log(self, cascade_one):
        assert cascade_one.eps1(100.0) == pytest.approx(1 / math.log(100.0),
                                                        rel=1e-15)
        c2 = growth.EpsilonCascade(2)
        assert c2.eps1(1e6) == pytest.approx(1 / math.log(math.log(1e6)),
                                             rel=1e-15)

    def test_floor_rule(self, cascade_one):
        assert cascade_one.eps1(2.0) == 1.0
        assert cascade_one.eps1(math.e * 0.99) == 1.0
        c2 = growth.EpsilonCascade(2)
        assert c2.eps1(math.exp(math.e) * 0.99) == 1.0
        assert c2.eps1(math.exp(math.e) * 1.5) < 1.0

    def test_decreasing_beyond_floor(self, cascade_one):
        rs = np.geomspace(3.0, 1e12, 40)
        vals = [cascade_one.eps1(r) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_ratio_vanishes(self, cascade_one):
        # eps1/eps2 = eps2/eps3 -> 0 along r -> inf
        q = [cascade_one.eps1(r) / cascade_one.eps2(r)
             for r in (1e2, 1e6, 1e12, 1e50)]
        assert all(b < a for a, b in zip(q, q[1:]))


class TestExactIndicators:
    def test_exp(self, exp_model):
        ind = growth.indicator_exact_expsum(exp_model)
        assert len(ind.arcs) == 1
        assert ind.arcs[0].amplitude == pytest.approx(1.0)
        assert ind.arcs[0].phase == pytest.approx(0.0)
        for t in np.linspace(0, 2 * math.pi, 17):
            assert ind.h(t) == pytest.approx(math.cos(t), abs=1e-12)

    def test_sin(self, sin_model):
        ind = growth.indicator_exact_expsum(sin_model)
        assert np.allclose(sorted(b % (2 * math.pi) for b in ind.breakpoints[:-1]),
                           [0.0, math.pi], atol=1e-12)
        for t in (0.3, 1.0, 2.5, 4.0, 5.9):
            assert ind.h(t) == pytest.approx(abs(math.sin(t)), abs=1e-12)

    def test_cosh(self, cosh_model):
        ind = growth.indicator_exact_expsum(cosh_model)
        bps = sorted(b % (2 * math.pi) for b in ind.breakpoints[:-1])
        assert np.allclose(bps, [math.pi / 2, 3 * math.pi / 2], atol=1e-12)
        for t in (0.2, 1.8, 3.5, 5.0):
            assert ind.h(t) == pytest.approx(abs(math.cos(t)), abs=1e-12)

    def test_breakpoint_continuity(self, sin_model, cosh_model):
        for model in (sin_model, cosh_model):
            ind = growth.indicator_exact_expsum(model)
            for t in ind.breakpoints:
                jump = abs(ind.h(t - 1e-11) - ind.h(t + 1e-11))
                assert jump < 1e-9

    @staticmethod
    def _brute_h(bs, thetas):
        return np.max([(b * np.exp(1j * np.asarray(thetas))).real for b in bs],
                      axis=0)

    def test_narrow_arc_found(self):
        # the middle exponent wins on an arc ~7e-6 rad wide, well under
        # the 2 pi / 8192 spacing of a sampling scan
        rot = cmath.exp(1j * math.pi / 8192)
        bs = [cmath.exp(0.3j) * rot, cmath.exp(-0.3j) * rot,
              (math.cos(0.3) + 1e-6) * rot]
        ind = growth.indicator_exact_expsum(
            models.ExponentialSum([([1.0], b) for b in bs]))
        assert len(ind.arcs) == 3
        narrow = min(ind.arcs, key=lambda a: a.theta_hi - a.theta_lo)
        assert narrow.amplitude == pytest.approx(abs(bs[2]), rel=1e-15)
        mid = 0.5 * (narrow.theta_lo + narrow.theta_hi)
        assert ind.h(mid) == pytest.approx(self._brute_h(bs, [mid])[0],
                                           abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_exponents_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        w, c = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        up = cmath.exp(1j * math.pi / 2)
        # (exponents, expected arc count; None where it depends on the draw)
        cases = [
            ([complex(*p) for p in rng.normal(size=(int(rng.integers(3, 9)), 2))],
             None),
            ([complex(*p) for p in rng.normal(size=(2, 2))], 2),
            ([c + t * w for t in rng.normal(size=int(rng.integers(3, 7)))], 2),
            ([complex(k, 2 * k) for k in range(-2, 3)], 2),
            # cmath.exp(+-i pi/2) has real part 6.1e-17: sorted by real part,
            # such nearly vertical sets put an end of their line in its middle
            ([0j, up, up.conjugate()], 2),
            ([0j, up, -up, 2 * up, -3 * up.conjugate(), 0.5 * up], None),
            ([complex(1e-16 * x, y)
              for x, y in rng.normal(size=(int(rng.integers(3, 9)), 2))], None),
        ]
        thetas = np.linspace(0.0, 2 * math.pi, 2001)
        for bs, n_arcs in cases:
            ind = growth.indicator_exact_expsum(
                models.ExponentialSum([([1.0], b) for b in bs]))
            arcs = ind.arcs
            assert arcs[-1].theta_hi == pytest.approx(arcs[0].theta_lo + 2 * math.pi)
            assert all(a.theta_hi > a.theta_lo for a in arcs)
            assert all(a.theta_hi == b.theta_lo for a, b in zip(arcs, arcs[1:]))
            assert n_arcs is None or len(arcs) == n_arcs
            h = np.array([ind.h(t) for t in thetas])
            assert np.max(np.abs(h - self._brute_h(bs, thetas))) < 1e-12
            assert np.array_equal(ind.h(thetas), h)


class TestExactIndicatorProduct:
    @staticmethod
    def _product(exponent, genus, angle=0.0):
        return models.CanonicalProduct(
            models.PowerZeroRule(exponent=exponent, angle=angle), genus,
            tail_tol=0.05, r_max=10.0)

    @pytest.mark.parametrize("exponent,genus,angle",
                             [(2.0, 0, 0.0), (2.0, 0, 1.0), (1.5, 0, -0.4),
                              (0.75, 1, 2.5)])
    def test_rotated_ray_formula(self, exponent, genus, angle):
        ind = growth.indicator_exact_product(self._product(exponent, genus, angle))
        rho = 1.0 / exponent
        assert ind.rho == rho and len(ind.arcs) == 1
        thetas = np.linspace(-7.0, 7.0, 141)
        w = np.mod(thetas - angle, 2 * math.pi)
        expected = math.pi * np.cos(rho * (w - math.pi)) / math.sin(math.pi * rho)
        assert np.max(np.abs(ind.h(thetas) - expected)) < 1e-12
        assert ind.h(angle + math.pi) == pytest.approx(
            math.pi / math.sin(math.pi * rho), rel=1e-15)

    @pytest.mark.parametrize("exponent,genus", [(1.0, 1), (0.5, 3), (1.5, 1),
                                                (2.0, 1)])
    def test_integer_order_or_noncanonical_genus_refused(self, exponent, genus):
        product = self._product(exponent, genus)
        with pytest.raises(ValueError):
            growth.indicator_exact_product(product)
        with pytest.raises(ValueError):
            growth.canonical_ray_order(product)


class TestEmpiricalIndicator:
    def test_exp_exact_everywhere(self, exp_model, rho_one):
        thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        emp = growth.indicator_empirical(exp_model, rho_one, thetas,
                                         [1e2, 1e3, 1e4])
        assert np.max(np.abs(emp - np.cos(thetas))) < 1e-6

    def test_sin_at_right_angle(self, sin_model, rho_one):
        emp = growth.indicator_empirical(sin_model, rho_one, [math.pi / 2],
                                         [10.0, 100.0, 1000.0])
        expected = 1.0 - math.log(2.0) / 1000.0
        assert emp[0] == pytest.approx(expected, abs=1e-4)

    def test_sin_generic_angle(self, sin_model, rho_one):
        emp = growth.indicator_empirical(sin_model, rho_one, [0.3],
                                         [1e2, 1e3, 1e4])
        assert emp[0] == pytest.approx(abs(math.sin(0.3)), abs=1e-3)

    def test_sandwich_against_exact(self, sin_model, cosh_model, rho_one):
        for model in (sin_model, cosh_model):
            exact = growth.indicator_exact_expsum(model)
            zeros = exact.breakpoints   # h = |sin|, |cos| vanishes at its breaks
            thetas = [t for t in np.linspace(0, 2 * math.pi, 73)
                      if min(abs(math.remainder(t - z, 2 * math.pi))
                             for z in zeros) >= 0.3]
            emp = growth.indicator_empirical(model, rho_one, thetas,
                                             [1e2, 1e3, 1e4])
            for t, v in zip(thetas, emp):
                assert exact.h(t) - 0.01 <= v <= exact.h(t) + 0.01

    def test_ladder_validation(self, exp_model, rho_one):
        with pytest.raises(ValueError):
            growth.indicator_empirical(exp_model, rho_one, [0.0], [10.0, 5.0, 20.0])
        with pytest.raises(ValueError):
            growth.indicator_empirical(exp_model, rho_one, [0.0], [10.0, 20.0])


class TestGrowthMinorant:
    def test_beta_iterate_examples(self):
        b = growth.GrowthMinorant.exp_power(1.0, 1.0)
        assert growth.beta_log_track(b, 1.0, 2)[2] == pytest.approx(math.e)
        assert growth.beta_log_track(b, 1.0, 4)[4] == pytest.approx(3814279.1, rel=1e-6)
        b5 = growth.GrowthMinorant.exp_power(1.0, 0.5)
        assert growth.beta_log_track(b5, 100.0, 1)[1] == pytest.approx(10.0)

    def test_monotone_in_n_and_r0(self):
        b = growth.GrowthMinorant.growth_scale(
            growth.ProximateOrder.constant(1.0), growth.EpsilonCascade(1))
        track = growth.beta_log_track(b, 50.0, 6)
        assert all(y > x for x, y in zip(track, track[1:]) if y != math.inf)
        for n in (1, 2, 3):
            lo = growth.beta_log_track(b, 50.0, n)[n]
            hi = growth.beta_log_track(b, 60.0, n)[n]
            assert hi > lo or (hi == lo == math.inf)

    def test_below_threshold(self):
        b = growth.GrowthMinorant.exp_power(1e-3, 0.5)   # crosses r at 3.9e8
        with pytest.raises(BelowThreshold):
            growth.beta_log_track(b, 1e8, 1)[1]

    def test_increasing_and_above_identity(self):
        po = growth.ProximateOrder.constant(1.0)
        for b in (growth.GrowthMinorant.exp_power(0.5, 1.0),
                  growth.GrowthMinorant.growth_scale(po, growth.EpsilonCascade(1))):
            rs = np.geomspace(max(b.threshold_x0, 0.5) * 1.01 + 1.0, 1e6, 30)
            vals = [_log_beta(b, r) for r in rs]
            assert all(y > x for x, y in zip(vals, vals[1:]))
            assert all(v > math.log(r) for v, r in zip(vals, rs))

    def test_sentinel_beyond_float_range(self):
        b = growth.GrowthMinorant.exp_power(1.0, 1.0)
        track = growth.beta_log_track(b, 10.0, 8)
        assert track[-1] == math.inf


def _ref_eps1_from_log(l, n):
    """Scalar cascade: eps1 = (eps3**2)**2, eps3 = (log^(n-1) l)**-1/4."""
    v = l
    for _ in range(n - 1):
        v = math.log(v) if v > 0.0 else -math.inf
    e3 = v ** -0.25 if v > 1.0 else 1.0
    return (e3 * e3) * (e3 * e3)


def _ref_exp(x):
    return math.exp(x) if x < 709.0 else math.inf


def _assert_crossing(beta, rs):
    """threshold_x0 is where beta crosses the identity: beta(t) <= t and
    beta(t (1 + 1e-9)) > t (1 + 1e-9); a threshold of 0 means beta(r) > r
    at every r of rs."""
    t = beta.threshold_x0
    if t == 0.0:
        assert all(_log_beta(beta, r) > math.log(r) for r in rs)
        return
    up = t * (1 + 1e-9)
    assert _log_beta(beta, t) <= math.log(t)
    assert _log_beta(beta, up) > math.log(up)


class TestThreshold:
    @pytest.mark.parametrize("beta, crossing", [
        (growth.GrowthMinorant.exp_power(1e-3, 0.5), 3.9146e8),
        (growth.GrowthMinorant.growth_scale(growth.ProximateOrder.constant(0.5),
                                            growth.EpsilonCascade(1)), 5503.66),
    ], ids=["exp-power-1e-3-0.5", "growth-scale-rho-0.5"])
    def test_threshold_is_the_crossing(self, beta, crossing):
        assert beta.threshold_x0 == pytest.approx(crossing, rel=1e-4)
        _assert_crossing(beta, [])
        # no start radius with beta(r0) <= r0 passes
        below = beta.threshold_x0 * 0.999
        assert _log_beta(beta, below) <= math.log(below)
        with pytest.raises(BelowThreshold):
            growth.beta_log_track(beta, below, 2)


class TestMinorantArrays:
    """The array path of every minorant kind against per-element scalar
    references written with math (the pre-vectorisation formulas)."""

    def _cases(self):
        po_log = growth.ProximateOrder(0.5, lambda l: 0.5 + 1.0 / np.maximum(l, 1.0))
        return [
            (growth.GrowthMinorant.exp_power(0.5, 1.0),
             lambda l: 0.5 * _ref_exp(l)),
            (growth.GrowthMinorant.exp_power(2.0, 60.0),     # saturates to inf
             lambda l: 2.0 * _ref_exp(60.0 * l)),
            (growth.GrowthMinorant.growth_scale(growth.ProximateOrder.constant(1.0),
                                                growth.EpsilonCascade(1)),
             lambda l: _ref_exp(l) * _ref_eps1_from_log(l, 1)),
            (growth.GrowthMinorant.growth_scale(po_log, growth.EpsilonCascade(2)),
             lambda l: _ref_exp((0.5 + 1.0 / max(l, 1.0)) * l)
             * _ref_eps1_from_log(l, 2)),
        ]

    def test_many_matches_scalar(self):
        # below and past the exp^N(1) floors (e, e^e), and far out; 1e-13
        # allows a few ulps of log r amplified by exp(mu log r) when
        # math.log and np.log round differently
        rs = np.concatenate([[0.3, 1.0, 2.0, math.e, 10.0, 15.0, 100.0, 150.0],
                             np.geomspace(1e-3, 1e7, 300)])
        for beta, ref in self._cases():
            many = beta.log_beta_many(rs)
            assert many.shape == rs.shape
            assert list(many) == pytest.approx([_log_beta(beta, r) for r in rs],
                                               rel=1e-13)
            assert list(many) == pytest.approx([ref(math.log(r)) for r in rs],
                                               rel=1e-13)
            grid = beta.log_beta_many(rs[:8].reshape(2, 4))
            assert grid.shape == (2, 4)
        for beta, _ in self._cases():
            _assert_crossing(beta, rs)

    def test_nonpositive_radius_rejected(self):
        for beta, _ in self._cases():
            with pytest.raises(ValueError):
                beta.log_beta_many(np.array([1.0, 0.0]))
            with pytest.raises(ValueError):
                beta.log_beta_many(np.array([-2.0]))

    def test_scalar_entry_points_return_float(self):
        cascade = growth.EpsilonCascade(2)
        for r in (2.0, 1e3):
            assert all(type(v) is float for v in (cascade.eps1(r), cascade.eps2(r)))
        alpha = growth.DensityBudget.sector_budget(2, cascade)
        assert type(alpha.alpha_of_r(50.0)) is float


class TestSeriesCondition:
    def test_fast_tower_converges(self):
        b = growth.GrowthMinorant.exp_power(1.0, 1.0)
        alpha = growth.DensityBudget(lambda l: 0.0 if l == math.inf else 1 / l ** 2)
        chk = growth.series_condition_check(alpha, b, 10.0, 1e-10)
        assert chk.converges and chk.terms_used <= 5
        # alpha(beta^n(10)) = beta^{n-1}(10)^{-2}
        assert chk.terms[1] == pytest.approx(1e-2)
        assert chk.terms[2] == pytest.approx(math.exp(10.0) ** -2, rel=1e-12)

    def test_slow_doubling_diverges(self):
        # beta(r) = 2r and alpha = 1/log r: alpha(beta^n(10)) is
        # 1/(log 10 + n log 2), a harmonic series
        b = growth.GrowthMinorant(0.0, lambda l: l + math.log(2.0), "beta(r) = 2r")
        alpha = growth.DensityBudget(lambda l: 1 / l)
        chk = growth.series_condition_check(alpha, b, 10.0, 1e-10,
                                            max_terms=2000)
        assert not chk.converges and chk.terms_used == 2000
        assert chk.terms[1999] == pytest.approx(
            1 / (math.log(10.0) + 1999 * math.log(2.0)), rel=1e-9)

    def test_zero_budget(self):
        b = growth.GrowthMinorant.exp_power(1.0, 1.0)
        alpha = growth.DensityBudget(lambda l: 0.0)
        chk = growth.series_condition_check(alpha, b, 10.0, 1e-10)
        assert chk.converges and chk.partial_sum == 0.0

    def test_default_pairing_certifies(self):
        # beta = exp(r eps1(r)) with alpha = 12 eps3(r/2), N = 1, from r0 = 100
        cascade = growth.EpsilonCascade(1)
        po = growth.ProximateOrder.constant(1.0)
        beta = growth.GrowthMinorant.growth_scale(po, cascade)
        alpha = growth.DensityBudget.sector_budget(2, cascade)
        chk = growth.series_condition_check(alpha, beta, 100.0, 1e-10)
        assert chk.converges and chk.terms_used <= 10

    @pytest.mark.parametrize("r0", [math.nan, math.inf, 0.0])
    def test_start_radius_finite_and_above_threshold(self, r0):
        b = growth.GrowthMinorant.exp_power(1.0, 1.0)
        alpha = growth.DensityBudget(lambda l: 0.0)
        with pytest.raises(BelowThreshold):
            growth.series_condition_check(alpha, b, r0, 1e-10)
        with pytest.raises(BelowThreshold):
            growth.beta_log_track(b, r0, 3)



class TestZhengRatio:
    def test_exp_exact_two(self, exp_model):
        assert growth.zheng_ratio(exp_model, [50.0, 100.0]) == pytest.approx(2.0)

    def test_sin_close_to_two(self, sin_model):
        r = growth.zheng_ratio(sin_model, [50.0, 100.0, 200.0])
        assert r == pytest.approx(2.0, abs=2e-2)

    def test_polynomial_fails_certificate(self):
        cube = models.ExponentialSum([([0.0, 0.0, 0.0, 1.0], 0.0)])
        r = growth.zheng_ratio(cube, [1e4])
        assert r == pytest.approx(1.07, abs=1e-2)
        assert r < 1.9   # the d > 1 certificate degenerates for polynomials

    def test_max_modulus_sampling_stable(self, sin_model):
        a = growth.log_max_modulus(sin_model, 100.0, 2048)
        b = growth.log_max_modulus(sin_model, 100.0, 4096)
        assert abs(a - b) <= 1e-6


@given(st.floats(min_value=3.0, max_value=1e150),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_cascade_identities_property(r, n):
    c = growth.EpsilonCascade(n)
    e1, e2, e3 = c.eps1(r), c.eps2(r), _eps3(c, r)
    assert e1 == e2 * e2 == (e3 * e3) * (e3 * e3)
    assert 0.0 < e1 <= e2 <= e3 <= 1.0
