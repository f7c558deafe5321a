import math
import os

import numpy as np
import pytest

from crglab import criteria, dynamics, growth, models
from crglab.dynamics import ESCAPED, INDETERMINATE, SURVIVED, ZERO_HIT
from crglab.models import FunctionModel


@pytest.fixture(scope="module")
def beta_half():
    return growth.GrowthMinorant.exp_power(0.5, 1.0)


@pytest.fixture(scope="module")
def beta_scale():
    return growth.GrowthMinorant.growth_scale(1.0, growth.EpsilonCascade(1))


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

    def test_bailout_within_the_certified_radius(self, exp_model, beta_half):
        # a product certified out to |z| = e^4 takes bailout 4 and refuses
        # 4.5; e^z, certified out to |z| = 1.8e308, takes the largest, 700,
        # and a sum with 1e300 z, certified out to 1.8e8 = e^18.9, refuses 20
        product = models.CanonicalProduct(models.PowerZeroRule(2.0), 0, 0.2,
                                          math.exp(4.0))
        window = criteria.Window(0.0, 1.0, 0.0, 1.0)
        plan = criteria.MonteCarloPlan(10, 1)
        for model, bailout_log in ((product, 4.0), (exp_model, 700.0)):
            dynamics.escape_map(model, window, 2, 2, 2.0, beta_half,
                                bailout_log=bailout_log)
            dynamics.measure_estimate(model, window, plan, beta_half, 2.0,
                                      bailout_log=bailout_log)
        with pytest.raises(ValueError, match="certified radius"):
            dynamics.escape_map(product, window, 2, 2, 2.0, beta_half,
                                bailout_log=4.5)
        with pytest.raises(ValueError, match="certified radius"):
            dynamics.measure_estimate(product, window, plan, beta_half, 2.0,
                                      bailout_log=4.5)
        wide = models.ExponentialSum([([1.0], 1e300), ([1.0], 1.0)])
        with pytest.raises(ValueError, match="certified radius"):
            dynamics.measure_estimate(wide, window, plan, beta_half, 2.0,
                                      bailout_log=20.0)


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


# The full-mask classifier as it stood before the compacted loop, kept
# verbatim as the oracle the compacted loop must reproduce.
def _full_mask_classify(model: FunctionModel, z0s: np.ndarray, track: np.ndarray,
                         max_iter: int, bailout_log: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised classifier; returns (verdict codes, step of decision).

    ``track`` holds log beta^j(r0) for j = 0..max_iter (+inf sentinel allowed).
    When plain evaluation of the next iterate overflows, the step is redone
    through log-space evaluation: either the iterate is reconstructed as
    exp(log f), or its log-modulus is known to exceed 709 > bailout_log and
    the point is decided on the next comparison.
    """
    z = np.array(z0s, dtype=np.complex128).ravel()
    n = z.size
    codes = np.full(n, SURVIVED, dtype=np.uint8)
    steps = np.full(n, -1, dtype=np.int32)
    active = np.ones(n, dtype=bool)
    track_ok = np.ones(n, dtype=bool)
    zero_hit = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore"):
        lm = np.log(np.abs(z))

    for k in range(max_iter + 1):
        bad = active & np.isnan(lm)
        codes[bad], steps[bad] = INDETERMINATE, k
        active &= ~bad

        hit = active & zero_hit
        codes[hit], steps[hit] = ZERO_HIT, k
        active &= ~hit

        # survival-track comparison; lm > +inf sentinel is False, so a point
        # whose track left the float range can never be escape-certified
        track_ok &= ~active | (lm > track[k])

        crossed = active & (lm >= bailout_log)
        esc = crossed & track_ok
        codes[esc], steps[esc] = ESCAPED, k
        ind = crossed & ~track_ok
        codes[ind], steps[ind] = INDETERMINATE, k
        active &= ~crossed

        if k == max_iter or not active.any():
            break

        idx = np.flatnonzero(active)
        znext = model.plain_values(z[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            lm_next = np.log(np.abs(znext))
        bad_local = ~np.isfinite(np.abs(znext))
        if bad_local.any():
            src = z[idx][bad_local]
            la, ph, ok = model.log_eval_many(src)
            rebuilt = np.where(ok & (la < 709.0),
                               np.exp(np.minimum(la, 709.0)) * np.exp(1j * ph),
                               np.inf + 0.0j)
            rebuilt = np.where(ok, rebuilt, 0.0 + 0.0j)
            znext[bad_local] = rebuilt
            lm_next[bad_local] = np.where(ok, la, -np.inf)
            zero_hit[idx[bad_local]] = ~ok
        z[idx] = znext
        lm[idx] = lm_next

    return codes, steps


SIN_TERMS = [([-0.5j], 1j), ([0.5j], -1j)]


def _equivalence_case(name):
    """(model, beta, r0, bailout_log, window) of one seeded cloud."""
    scale = growth.GrowthMinorant.growth_scale(1.0, growth.EpsilonCascade(1))
    half = growth.GrowthMinorant.exp_power(0.5, 1.0)
    if name == "sin":
        return models.ExponentialSum(SIN_TERMS), scale, 2.0, 500.0, (0.0, 6.3, -3.0, 3.0)
    if name == "sin-low-bailout":
        return models.ExponentialSum(SIN_TERMS), scale, 20.0, 60.0, (-4.0, 4.0, -40.0, 40.0)
    if name == "exp":
        return models.ExponentialSum([([1.0], 1.0)]), half, 2.0, 500.0, (-3.0, 6.0, -4.0, 4.0)
    if name == "poly":       # (1 + z) e^z + z^2 e^-z
        return (models.ExponentialSum([([1.0, 1.0], 1.0), ([0.0, 0.0, 1.0], -1.0)]),
                scale, 2.0, 500.0, (-6.0, 6.0, -6.0, 6.0))
    if name == "product":    # zeros at k^2, certified out to the bailout e^4
        product = models.CanonicalProduct(models.PowerZeroRule(exponent=2.0), genus=0,
                                          tail_tol=0.2, r_max=math.exp(4.0) * 1.01)
        return (product, growth.GrowthMinorant.exp_power(2.0, 0.5), 2.0, 4.0,
                (-40.0, 40.0, -40.0, 40.0))
    # (z - 800) e^z: z = 800 overflows in plain arithmetic and is a zero of S
    return (models.ExponentialSum([([-800.0, 1.0], 1.0)]), half, 2.0, 500.0,
            (795.0, 805.0, -3.0, 3.0))


# 0, NaN, the plain-overflow points +-710i (rebuilt from log space) and the
# zero hit z = 800 of (z - 800) e^z, in every cloud
SPECIAL_POINTS = [0j, complex(math.nan, 0.0), 710j, -710j, 800 + 0j]


class TestCompactedClassifier:
    @pytest.mark.parametrize("name", ["sin", "sin-low-bailout", "exp", "poly",
                                      "product", "zero-hit"])
    def test_matches_full_mask_loop(self, name):
        model, beta, r0, bailout_log, (x0, x1, y0, y1) = _equivalence_case(name)
        rng = np.random.default_rng(2024)
        n = 600 if name == "product" else 3000
        cloud = rng.uniform(x0, x1, n) + 1j * rng.uniform(y0, y1, n)
        band = rng.uniform(-3.0, 3.0, 50) + 1j * (rng.choice([-1, 1], 50)
                                                  * rng.uniform(705, 715, 50))
        zs = np.concatenate([cloud, band, SPECIAL_POINTS])
        max_iter = 50
        track = dynamics._orbit_track(model, beta, r0, max_iter, bailout_log)
        want_codes, want_steps = _full_mask_classify(model, zs, track, max_iter, bailout_log)

        crossing = dynamics._crossing_floor(model, bailout_log)
        codes, steps = dynamics._classify_batch(model, zs, track, bailout_log, *crossing)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(steps, want_steps)

        codes, steps = dynamics._classify_batch(model, zs, track, bailout_log, *crossing,
                                                stop_below_track=True)
        assert np.array_equal(codes == ESCAPED, want_codes == ESCAPED)
        # a point that never fell below the track is decided as before
        kept = codes != dynamics.BELOW_TRACK
        assert np.array_equal(codes[kept], want_codes[kept])
        assert np.array_equal(steps[kept], want_steps[kept])

        assert want_codes[-4] == INDETERMINATE                       # NaN
        if name.startswith("sin"):
            # sin(+-710i) overflows; the log-space redo, log|sin| = 709.3,
            # crosses the bailout
            assert (want_codes[-3:-1] == ESCAPED).all()
            assert (want_steps[-3:-1] == 1).all()
        if name == "zero-hit":
            assert want_codes[-1] == ZERO_HIT and want_steps[-1] == 1

    def test_measure_stops_at_the_track(self, monkeypatch):
        # ACCEPT-09: sin, r0 = 2, bailout 500, 50 steps; track[k] is +inf
        # from k = 5, so no point may be evaluated from that step on
        monkeypatch.setenv("CRG_THREADS", "1")
        model = models.ExponentialSum(SIN_TERMS)
        beta = growth.GrowthMinorant.growth_scale(1.0, growth.EpsilonCascade(1))
        plain = model.plain_values
        batches = {"measure": [], "escape-map": []}
        evaluated: list[list[int]] = []      # points per plain_values call

        def counting(zs):
            evaluated[-1].append(len(zs))
            return plain(zs)

        classify = dynamics._classify_batch

        def in_both_modes(*args, **kwargs):
            evaluated.append([])
            batches["escape-map"].append(evaluated[-1])
            classify(*args)
            evaluated.append([])
            batches["measure"].append(evaluated[-1])
            return classify(*args, **kwargs)

        monkeypatch.setattr(model, "plain_values", counting)
        monkeypatch.setattr(dynamics, "_classify_batch", in_both_modes)
        dynamics.measure_estimate(model, criteria.Window(0.0, 2 * math.pi, -3.0, 3.0),
                                  criteria.MonteCarloPlan(100_000, 42), beta,
                                  r0=2.0, max_iter=50, bailout_log=500.0)
        track = dynamics._orbit_track(model, beta, 2.0, 50, 500.0)
        assert np.isinf(track[5:]).all()
        for per_step in batches["measure"]:
            assert np.isfinite(track[:len(per_step)]).all()
        measured = sum(map(sum, batches["measure"]))
        full = sum(map(sum, batches["escape-map"]))
        assert measured < 0.1 * full


def _no_bound(zs):
    return np.full(np.shape(zs), -np.inf)


def _counting(evaluate, counts, key):
    """``evaluate`` that adds the number of points it sees to counts[key]."""
    def counted(zs):
        counts[key] += np.size(zs)
        return evaluate(zs)
    return counted


def _crossing_case(name):
    """(model, beta, r0, window) of the closed-form crossing corpus."""
    scale = growth.GrowthMinorant.growth_scale(1.0, growth.EpsilonCascade(1))
    half = growth.GrowthMinorant.exp_power(0.5, 1.0)
    sums = {
        "sin": (SIN_TERMS, scale, (0.0, 6.3, -3.0, 3.0)),
        "exp": ([([1.0], 1.0)], half, (-3.0, 6.0, -4.0, 4.0)),
        # (1 + z) e^z + z^2 e^-z
        "poly": ([([1.0, 1.0], 1.0), ([0.0, 0.0, 1.0], -1.0)], scale, (-6.0, 6.0, -6.0, 6.0)),
        "three-term": ([([1.0], 1.0), ([1.0], complex(-0.5, 0.866)),
                        ([1.0], complex(-0.5, -0.866))], half, (-6.0, 6.0, -6.0, 6.0)),
        # (z - 800) e^z, whose orbits pass near -800, where l_j = 0
        "minus-800": ([([-800.0, 1.0], 1.0)], half, (795.0, 805.0, -3.0, 3.0)),
        "tiny-term": ([([1.0], 3.0), ([1e-300], -3.0)], half, (-4.0, 4.0, -4.0, 4.0)),
    }
    if name == "product":    # zeros at k^2, certified out to the bailout e^4
        product = models.CanonicalProduct(models.PowerZeroRule(exponent=2.0), genus=0,
                                          tail_tol=0.2, r_max=math.exp(4.0) * 1.01)
        return product, growth.GrowthMinorant.exp_power(2.0, 0.5), 2.0, (-40.0, 40.0, -40.0, 40.0)
    terms, beta, window = sums[name]
    return models.ExponentialSum(terms), beta, 2.0, window


class TestClosedFormCrossing:
    """A point whose certified log|f| reaches the bailout is decided one step
    early, with the verdict and step that evaluating it would give."""

    @pytest.mark.parametrize("name", ["sin", "exp", "poly", "three-term", "minus-800",
                                      "tiny-term", "product"])
    def test_verdicts_match_a_run_without_the_bound(self, name, monkeypatch):
        model, beta, r0, (x0, x1, y0, y1) = _crossing_case(name)
        rng = np.random.default_rng(28)
        n = 300 if name == "product" else 1500
        parts = [rng.uniform(x0, x1, n) + 1j * rng.uniform(y0, y1, n), SPECIAL_POINTS]
        if name != "product":
            parts += [criteria.sample_points(criteria.AnnulusSpec(r),
                                             criteria.MonteCarloPlan(200, 7))
                      for r in (3.0, 30.0, 40.0, 50.0)]
            parts.append(rng.uniform(-3.0, 3.0, 50)
                         + 1j * rng.choice([-1, 1], 50) * rng.uniform(705, 715, 50))
        zs = np.concatenate(parts)
        bound = model.log_abs_lower_bound
        decided = []

        def counted(z):
            lb = bound(z)
            decided.append(int(np.sum(lb >= crossing[0])))
            return lb

        max_iter = 50
        for bailout_log in ((4.0,) if name == "product" else (4.0, 12.0, 500.0, 700.0)):
            track = dynamics._orbit_track(model, beta, r0, max_iter, bailout_log)
            crossing = dynamics._crossing_floor(model, bailout_log)
            broken = track.copy()
            broken[3] = np.inf          # a sentinel inside the horizon
            for trk in (track, broken):
                for stop in (False, True):
                    monkeypatch.setattr(model, "log_abs_lower_bound", _no_bound)
                    want = dynamics._classify_batch(model, zs, trk, bailout_log,
                                                    *crossing, stop_below_track=stop)
                    monkeypatch.setattr(model, "log_abs_lower_bound", counted)
                    got = dynamics._classify_batch(model, zs, trk, bailout_log,
                                                   *crossing, stop_below_track=stop)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
        # the bound decides points of every sum, and none of a product
        assert (sum(decided) == 0) == (name == "product")

    def test_crossing_skips_the_overflowing_evaluation(self, monkeypatch):
        # sin on ann(40), mc:8192:1: most orbits leave e^500 at step 2 after
        # an iterate of modulus up to e^80; evaluating each one overflowed and
        # was redone in log space (15,687 points through plain_values and
        # 7,437 through log_eval_many without the bound)
        monkeypatch.setenv("CRG_THREADS", "1")
        model = models.ExponentialSum(SIN_TERMS)
        counts = {"plain_values": 0, "log_eval_many": 0}
        for method in counts:
            monkeypatch.setattr(model, method, _counting(getattr(model, method), counts, method))
        beta = growth.GrowthMinorant.growth_scale(1.0, growth.EpsilonCascade(1))
        rep = dynamics.measure_estimate(model, criteria.AnnulusSpec(40.0),
                                        criteria.MonteCarloPlan(8192, 1), beta)
        assert rep.hits == 7455
        assert counts["log_eval_many"] <= 0.01 * 7437
        assert counts["plain_values"] <= 8300
