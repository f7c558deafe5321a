import cmath
import math

import numpy as np
import pytest

from crglab import analytic, models
from crglab.errors import (BandViolation, BranchViolation, HypothesisFailure,
                           SectorViolation, ZeroInDisk)
from conftest import log_abs_sin


class TestSchwarz:
    def test_exp(self, exp_model):
        val = analytic.schwarz_log_derivative(exp_model, 5 + 2j, 1.0, 256)
        assert abs(val - 1.0) < 1e-12

    def test_sin_high_up(self, sin_model):
        val = analytic.schwarz_log_derivative(sin_model, 20j, 1.0, 256)
        oracle = 1.0 / cmath.tan(20j)
        assert abs(val - oracle) < 1e-9

    def test_constant(self):
        const = models.ExponentialSum([([2.0], 0.0)])
        val = analytic.schwarz_log_derivative(const, 1 + 1j, 2.0, 256)
        assert abs(val) < 1e-14

    def test_zero_in_disk_detected(self, sin_model):
        with pytest.raises(ZeroInDisk):
            analytic.schwarz_log_derivative(sin_model, 3.0, 1.0, 256)

    def test_node_count_validation(self, exp_model):
        with pytest.raises(ValueError):
            analytic.schwarz_log_derivative(exp_model, 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            analytic.schwarz_log_derivative(exp_model, 0.0, 1.0, 8)

    def test_random_zero_free_disks(self, exp_model, sin_model):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = complex(rng.uniform(-8, 8), rng.uniform(2.0, 9.0))
            for model in (exp_model, sin_model):
                rec = analytic.schwarz_log_derivative(model, z, 0.7, 128)
                direct = models.log_derivative(model, z)
                assert abs(rec - direct) <= 1e-6 * max(abs(direct), 1e-12)


class TestCheck8l:
    def test_sin_imaginary_axis(self, sin_model, cascade_one):
        rows = analytic.check_8l(sin_model, cascade_one, [(100.0, math.pi / 2)])
        s = rows[0]
        assert s.re_zl == pytest.approx(100.0 / math.tanh(100.0), rel=1e-12)
        assert abs(s.re_zl - 100.0) < 1e-24 * 1e26   # coth(100)-1 ~ 1e-87
        assert abs(s.residual) < 1e-12

    def test_exp_real_axis_needs_offset(self, exp_model, cascade_one):
        # theta = 0 is an indicator breakpoint for e^z via the envelope arc
        # start; a sample safely inside the arc has zero residual
        rows = analytic.check_8l(exp_model, cascade_one, [(100.0, 2.0)])
        assert abs(rows[0].residual) < 1e-10

    def test_cosh_diagonal(self, cosh_model, cascade_one):
        rows = analytic.check_8l(cosh_model, cascade_one, [(1e8, math.pi / 4)])
        assert rows[0].predicted == pytest.approx(1e8 * math.sqrt(0.5), rel=1e-12)
        assert abs(rows[0].residual) <= 1.0

    def test_sector_violation(self, sin_model, cascade_one):
        with pytest.raises(SectorViolation):
            analytic.check_8l(sin_model, cascade_one, [(30.0, math.pi / 2)])

    def test_residuals_bounded_and_settling(self, sin_model, cascade_one):
        maxima = []
        for r in (1e2, 1e3, 1e4):
            gate = 3.0 * cascade_one.eps2(r) + 1e-6
            thetas = np.linspace(gate, math.pi - gate, 9)
            rows = analytic.check_8l(sin_model, cascade_one,
                                     [(r, t) for t in thetas])
            maxima.append(max(abs(s.residual) for s in rows))
        assert all(m <= 5.0 for m in maxima)
        assert all(b <= a + 1e-9 for a, b in zip(maxima, maxima[1:]))

    def test_k_squared_product_residual(self, cascade_one):
        # f = sin(pi sqrt z)/(pi sqrt z) has zL = (pi sqrt z / 2) cot(pi sqrt z)
        # - 1/2, so Re(zL) - rho h(theta) V(r) is -1/2 up to
        # e^(-2 pi sqrt r sin(theta/2)) and the truncation of zL
        product = models.CanonicalProduct(models.PowerZeroRule(2.0), 0, 1e-3, 1010.0)
        for r in (1e2, 1e3):
            rows = analytic.check_8l(product, cascade_one,
                                     [(r, t) for t in (1.5, math.pi / 2, math.pi, 4.0, 4.5)])
            v_eps2 = math.sqrt(r) * cascade_one.eps2(r)
            for s in rows:
                assert abs(s.re_zl - s.predicted + 0.5) <= r * product.derivative_tail_bound(r)
                assert s.residual == pytest.approx(-0.5 / v_eps2, abs=1e-3 / v_eps2)


class TestKernelIntegral:
    def test_negative_real_axis_half_order(self):
        res = analytic.kernel_integral_I(0.5, 0, -1.0)
        assert res.quadrature == pytest.approx(math.pi, rel=1e-9)
        assert res.closed_form == pytest.approx(math.pi, rel=1e-12)

    def test_imaginary_axis_branch(self):
        res = analytic.kernel_integral_I(0.5, 0, 1j)
        oracle = math.pi * cmath.exp(1j * math.pi / 4)
        assert cmath.isclose(res.closed_form, oracle, rel_tol=1e-12)
        assert res.rel_diff < 1e-7

    def test_genus_one_reduces_to_half_order(self):
        # t^{3/2}/(t^2 (t+1)) = t^{-1/2}/(t+1): the integral equals +pi
        res = analytic.kernel_integral_I(1.5, 1, -1.0)
        assert res.quadrature == pytest.approx(math.pi, rel=1e-9)

    def test_sweep_agreement(self):
        worst = 0.0
        for lam, p in ((0.3, 0), (0.5, 0), (0.7, 0), (1.2, 1), (1.5, 1),
                       (1.8, 1), (2.4, 2)):
            for theta in (0.3, math.pi / 2, math.pi, 5.5):
                z = 1.7 * cmath.exp(1j * theta)
                worst = max(worst, analytic.kernel_integral_I(lam, p, z).rel_diff)
        assert worst < 1e-7

    def test_branch_violation(self):
        with pytest.raises(BranchViolation):
            analytic.kernel_integral_I(0.5, 0, 2.0)   # positive real axis
        with pytest.raises(BranchViolation):
            analytic.kernel_integral_I(0.5, 0, 0.0)

    def test_order_window_validation(self):
        with pytest.raises(ValueError):
            analytic.kernel_integral_I(1.0, 0, -1.0)
        with pytest.raises(ValueError):
            analytic.kernel_integral_I(0.5, 1, -1.0)


@pytest.fixture(scope="module")
def wide_product():
    return models.CanonicalProduct(models.PowerZeroRule(exponent=2.0),
                                   genus=0, tail_tol=0.05, r_max=2e5)


# n(1e3) = 31 of the k^2 zeros is 0.136 eps(1e3) V(1e3) off V(1e3) = 31.62, so a
# declared constant of 0.1 fails the counting hypothesis there
_TOO_TIGHT = 0.1


class TestVerifyCrg:
    def test_against_sinh_oracle(self, wide_product, cascade_one):
        rows = analytic.verify_crg_ray_product(
            wide_product, cascade_one, [(1e4, math.pi)])
        row = rows[0]
        # oracle through the closed-form identity prod(1 - z/k^2)
        oracle = (math.pi * 100.0 - math.log(2 * math.pi * 100.0)
                  + math.log1p(-math.exp(-2 * math.pi * 100.0)))
        assert row.measured == pytest.approx(oracle, abs=wide_product.tail_bound)
        assert row.predicted == pytest.approx(100.0 * math.pi, rel=1e-12)
        assert abs(row.eps_residual) < 1.0

    def test_residual_decreases_in_r(self, wide_product, cascade_one):
        rows = analytic.verify_crg_ray_product(
            wide_product, cascade_one,
            [(1e3, math.pi), (1e4, math.pi), (1e5, math.pi)])
        resid = [abs(r.normalized_residual) for r in rows]
        assert resid[2] < resid[1] < resid[0]

    def test_band_violation(self, wide_product, cascade_one):
        eps = cascade_one.eps1(1e4)
        with pytest.raises(BandViolation):
            analytic.verify_crg_ray_product(wide_product, cascade_one,
                                            [(1e4, eps ** 2)])

    def test_counting_hypothesis_guard(self, wide_product, cascade_one):
        # a declared constant below the counting deviation must be rejected
        # by the pre-check
        with pytest.raises(HypothesisFailure):
            analytic.verify_crg_ray_product(wide_product, cascade_one,
                                            [(1e3, math.pi)], _TOO_TIGHT)
        analytic.verify_crg_ray_product(wide_product, cascade_one,
                                        [(1e3, math.pi)], 2 * _TOO_TIGHT)

    def test_rotated_ray_rotates_the_rows(self, wide_product, cascade_one):
        # the prediction follows the zero ray: on zeros k^2 e^(0.01 i) the
        # rows at theta + 0.01 are those of the zeros k^2 at theta
        theta0 = 0.01
        rotated = models.CanonicalProduct(models.PowerZeroRule(2.0, angle=theta0),
                                          genus=0, tail_tol=0.05, r_max=2e5)
        samples = [(1e3, 2.0), (1e4, math.pi), (1e5, 4.0)]
        want = analytic.verify_crg_ray_product(wide_product, cascade_one, samples)
        got = analytic.verify_crg_ray_product(
            rotated, cascade_one, [(r, t + theta0) for r, t in samples])
        for g, w in zip(got, want):
            assert g.theta == pytest.approx(w.theta + theta0, rel=1e-15)
            assert (g.measured, g.predicted, g.normalized_residual, g.eps_residual) == \
                pytest.approx((w.measured, w.predicted, w.normalized_residual,
                               w.eps_residual), rel=1e-9)

    def test_one_evaluation_for_all_samples(self, wide_product, cascade_one, monkeypatch):
        calls = []
        log_eval_many = models.CanonicalProduct.log_eval_many

        def counting(self, zs):
            calls.append(np.size(zs))
            return log_eval_many(self, zs)

        monkeypatch.setattr(models.CanonicalProduct, "log_eval_many", counting)
        samples = [(r, t) for r in (1e3, 1e4) for t in (2.0, math.pi, 4.0)]
        rows = analytic.verify_crg_ray_product(wide_product, cascade_one, samples)
        assert calls == [6] and [(row.r, row.theta) for row in rows] == samples

    @pytest.mark.parametrize("declared,samples,error", [
        (_TOO_TIGHT, [(1e3, 1e-3)], BandViolation),    # band before the hypothesis
        (_TOO_TIGHT, [(1e3, math.pi), (1e3, 1e-3)], HypothesisFailure),
        (1.0, [(1e3, math.pi), (1e3, 1e-3)], BandViolation),
    ], ids=["band-first", "first-sample-first", "second-sample"])
    def test_refusals_in_sample_order(self, wide_product, cascade_one, declared, samples,
                                      error):
        with pytest.raises(error):
            analytic.verify_crg_ray_product(wide_product, cascade_one, samples, declared)

    @pytest.mark.parametrize("exponent,genus", [(1.0, 1), (1.5, 1)])
    def test_noncanonical_product_refused(self, exponent, genus, cascade_one):
        # integer order, and a genus above the canonical one, are refused
        # before any sample is compared
        product = models.CanonicalProduct(
            models.PowerZeroRule(exponent=exponent), genus, tail_tol=0.1,
            r_max=200.0)
        with pytest.raises(ValueError):
            analytic.verify_crg_ray_product(product, cascade_one, [(100.5, math.pi / 4)])

    def test_sum_refused(self, sin_model, cascade_one):
        with pytest.raises(ValueError, match="ExponentialSum is not a canonical product"):
            analytic.verify_crg_ray_product(sin_model, cascade_one, [(100.5, math.pi / 4)])


def test_sin_log_modulus_oracle_self_check():
    # the shared test oracle agrees with direct evaluation at moderate height
    for z in (1.0 + 3j, -2.0 + 10j, 0.5 - 7j):
        direct = math.log(abs(cmath.sin(z)))
        assert log_abs_sin(z) == pytest.approx(direct, rel=1e-12)
