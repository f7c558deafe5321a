import math
import os

import numpy as np
import pytest

from crglab import criteria, dynamics, growth, models


@pytest.fixture(scope="module")
def beta_half():
    return growth.GrowthMinorant.exp_power(0.5, 1.0)


@pytest.fixture(scope="module")
def beta_scale():
    return growth.GrowthMinorant.growth_scale(
        growth.ProximateOrder.constant(1.0), growth.EpsilonCascade(1))


def _one_pixel(model, z0, r0, beta, **kwargs) -> int:
    """The code of z0 alone, as a 1x1 escape map of the unit window centred
    on it: 0 survived, 1..254 the escape step, 255 zero hit or
    indeterminate."""
    window = criteria.Window(z0.real - 0.5, z0.real + 0.5, z0.imag - 0.5, z0.imag + 0.5)
    return int(dynamics.escape_map(model, window, 1, 1, r0, beta, **kwargs).codes[0, 0])


class TestClassifyOrbit:
    def test_exp_two_step_escape(self, exp_model, beta_half):
        # z0=100: log|z1| = 100 < 500; z2 = e^(e^100) crosses at step 2 with
        # the beta track satisfied throughout
        assert _one_pixel(exp_model, 100 + 0j, 50.0, beta_half,
                          max_iter=50, bailout_log=500.0) == 2
        # z2 overflows, and the log-space redo decides the track: its
        # log|z2| = e^100 = 2.69e43 falls below log beta^2(9.9) = 10 e^99
        # = 9.89e43 under beta = exp(10 r), where +inf would escape at step 2
        beta_ten = growth.GrowthMinorant.exp_power(10.0, 1.0)
        assert _one_pixel(exp_model, 100 + 0j, 9.9, beta_ten,
                          max_iter=50, bailout_log=500.0) == 255

    def test_sin_fixed_point_survives(self, sin_model, beta_half):
        assert _one_pixel(sin_model, 0j, 10.0, beta_half, max_iter=50) == 0

    def test_sin_real_orbit_stays_bounded(self, sin_model, beta_half):
        # |z0| = e^0.45; crossing bailout e^0.5 in 100 steps would be a
        # nonzero code
        assert _one_pixel(sin_model, 1.5708 + 0j, 10.0, beta_half,
                          max_iter=100, bailout_log=0.5) == 0

    def test_track_recorded_step_by_step(self, exp_model, beta_half):
        # from r0 = 250 the track asks log|z1| > log beta(250) = 125, and
        # log|z1| = 100 breaks it before z2 crosses the bailout
        assert _one_pixel(exp_model, 100 + 0j, 250.0, beta_half, max_iter=10) == 255
        assert _one_pixel(exp_model, 100 + 0j, 50.0, beta_half, max_iter=10) == 2

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"bailout_log": 800.0}],
                             ids=["max-iter-0", "bailout-800"])
    def test_batch_entry_points_share_the_domain_check(self, exp_model,
                                                       beta_half, kwargs):
        window = criteria.Window(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dynamics.escape_map(exp_model, window, 4, 4, 2.0, beta_half,
                                **kwargs)
        with pytest.raises(ValueError):
            dynamics.measure_estimate(exp_model, window,
                                      criteria.MonteCarloPlan(10, 1),
                                      beta_half, 2.0, **kwargs)


class TestEscapeMonotonicity:
    def test_escaped_never_flips_to_survived(self, sin_model, beta_scale):
        w = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
        maps = {mi: dynamics.escape_map(sin_model, w, 24, 24, 2.0, beta_scale,
                                        max_iter=mi) for mi in (8, 20, 50)}
        esc = {mi: (m.codes >= 1) & (m.codes <= 254) for mi, m in maps.items()}
        assert (esc[8] <= esc[20]).all()
        assert (esc[20] <= esc[50]).all()

    def test_refinement_keeps_coinciding_centers(self, sin_model, beta_scale):
        w = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
        coarse = dynamics.escape_map(sin_model, w, 16, 16, 2.0, beta_scale)
        fine = dynamics.escape_map(sin_model, w, 48, 48, 2.0, beta_scale)
        # center (i+.5)/16 coincides with ((3i+1)+.5)/48
        assert np.array_equal(coarse.codes, fine.codes[1::3, 1::3])


class TestEscapeMapRaster:
    def test_exp_small_window_baseline(self, exp_model, beta_half):
        # regression baseline pinned from the first verified run: every orbit
        # from this window blows past bailout with a broken survival track
        em = dynamics.escape_map(exp_model, criteria.Window(-2, 2, -2, 2),
                                 4, 4, 2.0, beta_half, max_iter=50)
        # no pixel carries an escape step (codes 1..254)
        assert (em.codes == 255).all()
        assert not ((em.codes >= 1) & (em.codes <= 254)).any()

    def test_constant_stub_survives(self, beta_half):
        stub = models.ExponentialSum([([0.0, 0.5], 0.0)])   # f(z) = z/2
        em = dynamics.escape_map(stub, criteria.Window(-1, 1, -1, 1), 8, 8,
                                 2.0, beta_half, max_iter=20)
        assert (em.codes == 0).all()

    def test_sin_strip_has_escapers(self, sin_model, beta_scale):
        w = criteria.Window(0.0, 6.2832, 1.0, 3.0)
        a = dynamics.escape_map(sin_model, w, 64, 64, 2.0, beta_scale)
        b = dynamics.escape_map(sin_model, w, 128, 128, 2.0, beta_scale)
        fa, fb = a.escaped_fraction(), b.escaped_fraction()
        assert fa > 0 and fb > 0
        assert abs(fa - fb) <= 0.02

    def test_pgm_bytes(self, sin_model, beta_scale):
        em = dynamics.escape_map(sin_model, criteria.Window(0, 6.2832, 1, 3),
                                 8, 4, 2.0, beta_scale, max_iter=20)
        payload = em.to_pgm()
        assert payload.startswith(b"P5\n8 4\n255\n")
        assert len(payload) == len(b"P5\n8 4\n255\n") + 32

    def test_top_row_is_max_imaginary(self, sin_model, beta_scale):
        # escapers live at large |Im z|; top row corresponds to y near 3
        em = dynamics.escape_map(sin_model, criteria.Window(0, 6.2832, -3, 3),
                                 32, 32, 2.0, beta_scale)
        esc = (em.codes >= 1) & (em.codes <= 254)
        assert esc[0].sum() > 0 and esc[15].sum() == 0


class TestLeftHalfPlaneExp:
    def test_no_escape_from_contracting_region(self, exp_model, beta_half):
        # |e^z| < 1/e on Re z < -1: orbits fall toward bounded moduli and the
        # survival track breaks immediately
        xs = np.linspace(-3.0, -1.1, 6)
        ys = np.linspace(0.2, 2.5, 5)
        for x in xs:
            for y in ys:
                z = complex(x, y)
                if abs(z) <= 1.0:
                    continue
                assert not 1 <= _one_pixel(exp_model, z, 2.0, beta_half,
                                           max_iter=40) <= 254


class TestMeasureEstimate:
    def test_exp_annulus_positive(self, exp_model, beta_half):
        rep = dynamics.measure_estimate(exp_model, criteria.AnnulusSpec(200.0),
                                        criteria.GridPlan(128, 128), beta_half)
        assert rep.density > 0.0
        assert rep.fast_escaping_beta

    def test_contraction_zero(self, beta_half):
        stub = models.ExponentialSum([([0.0, 0.5], 0.0)])
        rep = dynamics.measure_estimate(stub, criteria.AnnulusSpec(200.0),
                                        criteria.GridPlan(32, 32), beta_half)
        assert rep.density == 0.0

    def test_sin_window_across_seeds(self, sin_model, beta_scale):
        w = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
        reps = [dynamics.measure_estimate(sin_model, w,
                                          criteria.MonteCarloPlan(20_000, s),
                                          beta_scale, r0=2.0)
                for s in (42, 43, 44)]
        assert all(r.density > 0 for r in reps)
        for i in range(3):
            for j in range(i + 1, 3):
                tol = 3 * max(reps[i].confidence_halfwidth,
                              reps[j].confidence_halfwidth)
                assert abs(reps[i].density - reps[j].density) <= tol

    def test_window_requires_r0(self, sin_model, beta_scale):
        with pytest.raises(ValueError):
            dynamics.measure_estimate(sin_model, criteria.Window(0, 1, 0, 1),
                                      criteria.MonteCarloPlan(10, 1), beta_scale)


class TestDeterminism:
    def test_identical_runs_bit_identical(self, sin_model, beta_scale):
        w = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
        plan = criteria.MonteCarloPlan(5000, 42)
        a = dynamics.measure_estimate(sin_model, w, plan, beta_scale, r0=2.0)
        b = dynamics.measure_estimate(sin_model, w, plan, beta_scale, r0=2.0)
        assert a == b

    def test_thread_count_does_not_change_results(self, sin_model, beta_scale,
                                                  monkeypatch):
        w = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
        plan = criteria.MonteCarloPlan(20_000, 7)
        outputs = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("CRG_THREADS", threads)
            rep = dynamics.measure_estimate(sin_model, w, plan, beta_scale,
                                            r0=2.0)
            em = dynamics.escape_map(sin_model, w, 64, 64, 2.0, beta_scale,
                                     max_iter=30)
            outputs.append((rep, em.to_pgm()))
        assert outputs[0] == outputs[1] == outputs[2]
