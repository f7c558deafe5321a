import dataclasses
import math

import numpy as np
import pytest

from crglab import criteria, growth, models
from crglab.covering import DiskSet


@pytest.fixture(scope="module")
def beta_half():
    return growth.GrowthMinorant.exp_power(0.5, 1.0)


@pytest.fixture(scope="module")
def beta_quarter():
    return growth.GrowthMinorant.exp_power(0.25, 1.0)


class TestRegions:
    def test_validation(self):
        with pytest.raises(ValueError):
            criteria.AnnulusSpec(0.0)
        with pytest.raises(ValueError):
            criteria.Window(1, 1, 0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError):
            criteria.AnnulusSpec(bad)
        with pytest.raises(ValueError):
            criteria.Window(0.0, bad, -1.0, 1.0)
        with pytest.raises(ValueError):
            criteria.Window(-bad, 0.0, -1.0, 1.0)

    def test_reach_covers_the_b_disks(self):
        # perfbench's product oracle builds its model out to outer * 1.55,
        # which must give the CLI's cutoff bit for bit
        for r in (0.3, 200.0, 1395.0, 6200.0):
            ann = criteria.AnnulusSpec(r)
            assert ann.reach == 3.1 * r == ann.outer * 1.55


class TestSamplePlans:
    def test_annulus_mc_is_area_uniform(self):
        ann = criteria.AnnulusSpec(10.0)
        zs = criteria.sample_points(ann, criteria.MonteCarloPlan(200_000, 9))
        s2 = np.abs(zs) ** 2
        # |z|^2 is uniform on [r^2/4, 4 r^2] under area-uniform sampling
        assert s2.min() >= 25.0 and s2.max() <= 400.0
        assert np.mean(s2) == pytest.approx((25.0 + 400.0) / 2, rel=5e-3)

    def test_grid_cells_equal_measure(self):
        ann = criteria.AnnulusSpec(4.0)
        zs = criteria.sample_points(ann, criteria.GridPlan(64, 32))
        assert zs.size == 64 * 32
        s2 = np.sort(np.unique(np.round(np.abs(zs) ** 2, 9)))
        gaps = np.diff(s2)
        assert np.allclose(gaps, gaps[0], rtol=1e-6)

    def test_mc_determinism(self):
        ann = criteria.AnnulusSpec(4.0)
        a = criteria.sample_points(ann, criteria.MonteCarloPlan(1000, 4))
        b = criteria.sample_points(ann, criteria.MonteCarloPlan(1000, 4))
        c = criteria.sample_points(ann, criteria.MonteCarloPlan(1000, 5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestChunkedPlacement:
    """annulus_density places each chunk of draws in its worker; the chunks
    join to sample_points bit for bit."""

    @pytest.mark.parametrize("region", [
        criteria.AnnulusSpec(200.0), criteria.Window(-3.1, 2.7, -1.3, 5.9)],
        ids=["annulus", "window"])
    @pytest.mark.parametrize("plan", [
        criteria.MonteCarloPlan(20_003, 42), criteria.GridPlan(161, 131)],
        ids=["mc", "grid"])
    def test_chunks_join_to_sample_points(self, region, plan, monkeypatch):
        monkeypatch.setenv("CRG_THREADS", "1")
        chunks = []

        def record(zs):
            chunks.append(zs.copy())
            return np.zeros(zs.shape, dtype=bool)

        criteria.annulus_density(record, region, plan)
        assert [c.size for c in chunks[:-1]] == [8192] * (len(chunks) - 1)
        assert len(chunks) == -(-plan.total // 8192)
        whole = criteria.sample_points(region, plan)
        assert np.concatenate(chunks).tobytes() == whole.tobytes()


def _one(z):
    """A one-point array for the batch membership API."""
    return np.array([z], dtype=np.complex128)


class TestMembership:
    def test_exp_on_axis(self, exp_model, beta_half):
        a = criteria.membership_A(exp_model, beta_half, _one(100.0))
        assert a.in_A[0] and a.re_zl[0] == pytest.approx(100.0)
        assert a.margin[0] == pytest.approx(50.0)
        a = criteria.membership_A(exp_model, beta_half, _one(100j))
        assert not a.in_A[0] and a.re_zl[0] == pytest.approx(0.0)

    def test_sin_far_up(self, sin_model, beta_half):
        a = criteria.membership_A(sin_model, beta_half, _one(100j))
        assert a.in_A[0]
        assert a.re_zl[0] == pytest.approx(100.0 / math.tanh(100.0), rel=1e-12)

    def test_b_disk_certificate_exp(self, exp_model, beta_half, beta_quarter):
        zs = _one(100.0)
        b = criteria.membership_B(exp_model, zs,
                                  criteria.membership_A(exp_model, beta_half, zs))
        assert b.in_B[0]
        assert b.disk_radius[0] == pytest.approx(32.0)
        assert b.min_disk_re[0] == pytest.approx(68.0)
        zs = _one(65 + 70j)
        a = criteria.membership_A(exp_model, beta_quarter, zs)
        b = criteria.membership_B(exp_model, zs, a)
        assert a.in_A[0] and b.in_B[0]
        assert b.min_disk_re[0] == pytest.approx(33.0)
        zs = _one(70.0)
        b = criteria.membership_B(exp_model, zs,
                                  criteria.membership_A(exp_model, beta_quarter, zs))
        assert b.in_B[0] and b.min_disk_re[0] == pytest.approx(38.0)

    def test_b_implies_a(self, exp_model, sin_model, beta_half):
        rng = np.random.default_rng(13)
        for model in (exp_model, sin_model):
            for _ in range(40):
                zs = _one(complex(rng.uniform(-150, 150), rng.uniform(-150, 150)))
                a = criteria.membership_A(model, beta_half, zs)
                b = criteria.membership_B(model, zs, a, disk_samples=8)
                if b.in_B[0]:
                    assert a.in_A[0]

    def test_disk_sample_doubling_stability(self, exp_model, sin_model, beta_half):
        # regression point set: verdicts must not flip under doubling
        pts = [100.0, 100j, 120 + 30j, 80 - 90j, -100.0, 90 + 90j]
        for model in (exp_model, sin_model):
            for z in pts:
                zs = _one(z)
                a = criteria.membership_A(model, beta_half, zs)
                b8 = criteria.membership_B(model, zs, a, disk_samples=8)
                b16 = criteria.membership_B(model, zs, a, disk_samples=16)
                assert b8.in_B[0] == b16.in_B[0]


class _CountingModel:
    """Delegates to a model and counts the points each evaluator sees."""

    def __init__(self, model):
        self.model = model
        self.n_eval = 0
        self.n_deriv = 0
        self.n_fused = 0
        self.max_deriv_call = 0

    def log_eval_many(self, zs):
        self.n_eval += np.size(zs)
        return self.model.log_eval_many(zs)

    def log_derivative_many(self, zs):
        self.n_deriv += np.size(zs)
        self.max_deriv_call = max(self.max_deriv_call, np.size(zs))
        return self.model.log_derivative_many(zs)

    def log_abs_and_derivative_many(self, zs):
        # one f and one f'/f evaluation per point, in a single pass
        self.n_fused += np.size(zs)
        self.n_eval += np.size(zs)
        self.n_deriv += np.size(zs)
        self.max_deriv_call = max(self.max_deriv_call, np.size(zs))
        return self.model.log_abs_and_derivative_many(zs)


class TestSinglePass:
    """f and f'/f are evaluated once per sample point; only the B disk adds
    f'/f evaluations, 1 + 8 * disk_samples per A-member."""

    def test_predicate_b_point_counts(self, sin_model, beta_half):
        zs = criteria.sample_points(criteria.AnnulusSpec(100.0),
                                    criteria.MonteCarloPlan(500, 11))
        k = int(criteria.predicate_A(sin_model, beta_half)(zs).sum())
        assert 0 < k < zs.size
        counting = _CountingModel(sin_model)
        criteria.predicate_B(counting, beta_half, disk_samples=4)(zs)
        assert counting.n_eval == counting.n_fused == zs.size
        assert counting.n_deriv == zs.size + k * (1 + 8 * 4)

    def test_predicate_b_disk_calls_bounded(self, sin_model, beta_half):
        # the B disk is swept one offset at a time, so no f'/f call sees
        # more points than the chunk itself
        zs = criteria.sample_points(criteria.AnnulusSpec(100.0),
                                    criteria.MonteCarloPlan(500, 11))
        counting = _CountingModel(sin_model)
        criteria.predicate_B(counting, beta_half, disk_samples=4)(zs)
        assert counting.n_deriv > zs.size
        assert counting.max_deriv_call <= zs.size

    def test_membership_b_point_counts(self, exp_model, beta_half):
        counting = _CountingModel(exp_model)
        zs = _one(100.0)
        a = criteria.membership_A(counting, beta_half, zs)
        b = criteria.membership_B(counting, zs, a, disk_samples=4)
        assert a.in_A[0] and b.in_B[0]
        assert (counting.n_fused, counting.n_eval, counting.n_deriv) == (
            1, 1, 1 + (1 + 8 * 4))
        counting = _CountingModel(exp_model)
        zs = _one(100j)
        a = criteria.membership_A(counting, beta_half, zs)
        b = criteria.membership_B(counting, zs, a, disk_samples=4)
        assert not a.in_A[0] and not b.in_B[0]
        assert (counting.n_fused, counting.n_eval, counting.n_deriv) == (1, 1, 1)


class TestAnnulusDensity:
    def test_always_true(self):
        rep = criteria.annulus_density(lambda zs: np.ones(zs.shape, bool),
                                       criteria.AnnulusSpec(5.0),
                                       criteria.MonteCarloPlan(2000, 1))
        assert rep.density == 1.0 and rep.hits == 2000

    def test_sector_third(self):
        pred = lambda zs: np.abs(np.angle(zs)) < math.pi / 3
        rep = criteria.annulus_density(pred, criteria.AnnulusSpec(7.0),
                                       criteria.MonteCarloPlan(100_000, 42))
        assert rep.density == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_exp_a_set_geometry(self, exp_model, beta_half):
        rep = criteria.annulus_density(
            criteria.predicate_A(exp_model, beta_half),
            criteria.AnnulusSpec(200.0), criteria.MonteCarloPlan(100_000, 42))
        assert rep.density == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_monotone_under_implication(self):
        ann = criteria.AnnulusSpec(3.0)
        plan = criteria.MonteCarloPlan(20_000, 6)
        narrow = lambda zs: np.abs(np.angle(zs)) < 0.5
        wide = lambda zs: np.abs(np.angle(zs)) < 1.0
        d1 = criteria.annulus_density(narrow, ann, plan).density
        d2 = criteria.annulus_density(wide, ann, plan).density
        assert d1 <= d2

    def test_mc_within_three_halfwidths_of_grid(self):
        pred = lambda zs: np.abs(np.angle(zs)) < math.pi / 3
        ann = criteria.AnnulusSpec(7.0)
        mc = criteria.annulus_density(pred, ann, criteria.MonteCarloPlan(50_000, 2))
        grid = criteria.annulus_density(pred, ann, criteria.GridPlan(512, 256))
        assert abs(mc.density - grid.density) <= 3 * mc.confidence_halfwidth


class TestExclusions:
    def test_no_disks_matches_plain(self):
        ann = criteria.AnnulusSpec(5.0)
        plan = criteria.MonteCarloPlan(5000, 3)
        pred = lambda zs: np.angle(zs) > 0
        base = criteria.annulus_density(pred, ann, plan)
        rep = criteria.annulus_density(pred, ann, plan, DiskSet(()))
        assert rep.density == base.density and rep.excluded_fraction == 0.0

    def test_full_coverage_kills_density(self):
        ann = criteria.AnnulusSpec(5.0)
        rep = criteria.annulus_density(
            lambda zs: np.ones(zs.shape, bool), ann,
            criteria.MonteCarloPlan(2000, 3), DiskSet(((0j, 100.0),)))
        assert rep.density == 0.0 and rep.excluded_fraction == 1.0

    def test_single_interior_disk_area(self):
        r = 100.0
        ann = criteria.AnnulusSpec(r)
        disks = DiskSet(((1.25 * r + 0j, r / 4.0),))
        rep = criteria.annulus_density(
            lambda zs: np.ones(zs.shape, bool), ann,
            criteria.GridPlan(512, 512), disks)
        assert rep.density == pytest.approx(1.0 - 1.0 / 60.0, abs=1e-3)
        assert rep.excluded_fraction == pytest.approx(1.0 / 60.0, abs=1e-3)


class TestHypothesis14b:
    def test_exp_fails_as_it_must(self, exp_model, beta_half):
        alpha = growth.DensityBudget(lambda l: 0.5)
        rows = criteria.hypothesis_check_14b(
            exp_model, beta_half, alpha, [200.0],
            criteria.MonteCarloPlan(20_000, 3), disk_samples=8)
        assert rows[0].flagged
        assert rows[0].margin == pytest.approx(-0.17, abs=0.03)

    def test_sin_default_margin_regression(self, sin_model):
        cascade = growth.EpsilonCascade(1)
        beta = growth.GrowthMinorant.growth_scale(
            growth.ProximateOrder.constant(1.0), cascade)
        alpha = growth.DensityBudget.sector_budget(2, cascade)
        rows = criteria.hypothesis_check_14b(
            sin_model, beta, alpha, [1000.0],
            criteria.MonteCarloPlan(4000, 11), disk_samples=8)
        assert not rows[0].flagged and rows[0].margin > 0
        # regression baseline from the first verified run
        assert rows[0].density == pytest.approx(0.914, abs=0.02)

    def test_always_true_stub_margin_equals_alpha(self):
        alpha = growth.DensityBudget(lambda l: 0.25)
        rep = criteria.annulus_density(lambda zs: np.ones(zs.shape, bool),
                                       criteria.AnnulusSpec(50.0),
                                       criteria.MonteCarloPlan(1000, 5))
        margin = rep.density - (1.0 - alpha.alpha_of_r(50.0))
        assert margin == pytest.approx(0.25)


class TestReportSerialization:
    def test_json_dict_fields(self):
        rep = criteria.annulus_density(lambda zs: np.ones(zs.shape, bool),
                                       criteria.AnnulusSpec(5.0),
                                       criteria.MonteCarloPlan(100, 1))
        d = rep.to_json_dict()
        assert d["format_version"] == 1
        assert set(d) == {"format_version", "region", "plan", "hits", "total",
                          "density", "confidence_halfwidth"}

    def test_json_key_order_with_optional_keys(self):
        # key order fixes the JSON bytes that the CLI writes
        rep = criteria.annulus_density(lambda zs: np.ones(zs.shape, bool),
                                       criteria.AnnulusSpec(5.0),
                                       criteria.MonteCarloPlan(100, 1),
                                       DiskSet(((5.0 + 0j, 1.0),)))
        d = dataclasses.replace(rep, fast_escaping_beta=True).to_json_dict()
        assert list(d) == ["format_version", "region", "plan", "hits", "total",
                           "density", "confidence_halfwidth",
                           "excluded_fraction", "fast_escaping_beta"]
