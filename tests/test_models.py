import cmath
import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crglab import criteria, growth, models
from crglab.errors import (ContourTooClose, NearZero, NonIntegerResidue,
                           OverflowUnrepresentable)


class TestEvalLog:
    def test_exp_identity(self, exp_model):
        la, ph, ok = exp_model.log_eval_many(np.array([1.0]))
        assert ok[0]
        assert la[0] == pytest.approx(1.0, abs=1e-14)
        assert ph[0] == pytest.approx(0.0, abs=1e-14)

    def test_sin_huge_imaginary(self, sin_model):
        # |sin(iy)| = sinh(y) ~ e^y / 2, far beyond exp range
        la, _, _ = sin_model.log_eval_many(np.array([1000j]))
        assert la[0] == pytest.approx(1000.0 - math.log(2.0), abs=1e-9)

    def test_no_overflow_at_huge_exponent(self, exp_model):
        la, _, _ = exp_model.log_eval_many(np.array([1e8]))
        assert la[0] == pytest.approx(1e8)

    def test_unrepresentable_log_raises(self):
        f = models.ExponentialSum([([1e308, 1e308], 0.0)])
        with pytest.raises(OverflowUnrepresentable):
            growth.indicator_empirical(f, [0.0], [1e80, 2e80, 3e80])
        with pytest.raises(OverflowUnrepresentable):
            growth.log_max_modulus(f, 1e80)

    def test_infeasible_cutoff_refused(self):
        with pytest.raises(ValueError, match="factors"):
            models.CanonicalProduct(models.PowerZeroRule(exponent=2.0),
                                    genus=0, tail_tol=1e-12, r_max=1e9)

    def test_product_against_sinh_identity(self, k_squared_product):
        # prod (1 - z/k^2) = sin(pi sqrt(z)) / (pi sqrt(z)) at z = -100
        la, _, _ = k_squared_product.log_eval_many(np.array([-100.0]))
        oracle = math.log(math.sinh(10 * math.pi)) - math.log(10 * math.pi)
        assert la[0] == pytest.approx(oracle, abs=5e-3)

    def test_zero_hit_sentinel(self, exp_model, sin_model, k_squared_product):
        # exact zero factor of a product: log|E| = -inf, sentinel fires
        la, _, ok = k_squared_product.log_eval_many(np.array([4.0]))
        assert not ok[0] and la[0] == -math.inf
        # single-term decay below the underflow+50 threshold: sentinel fires
        _, _, ok = exp_model.log_eval_many(np.array([-700.0]))
        assert not ok[0]
        # an exact zero of a sum: the scaled terms cancel to exactly 0
        la, _, ok = sin_model.log_eval_many(np.array([0.0]))
        assert not ok[0] and la[0] == -math.inf
        # next to a zero of a sum the tiny modulus is ordinary and exact:
        # sin(fl(pi)) is the rounding error of fl(pi), about 1.2e-16
        la, _, ok = sin_model.log_eval_many(np.array([math.pi]))
        assert ok[0]
        assert la[0] == pytest.approx(math.log(math.sin(math.pi)), abs=1e-9)

    def test_to_complex_roundtrip(self, sin_model):
        for z in (0.7 + 0.3j, -2.0 + 1.5j, 3.0 - 4.0j):
            la, ph, _ = sin_model.log_eval_many(np.array([z]))
            assert cmath.isclose(cmath.exp(complex(la[0], ph[0])), cmath.sin(z),
                                 rel_tol=1e-12)

    @given(st.lists(
        st.tuples(
            st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                        allow_infinity=False), min_size=1,
                     max_size=3),
            st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                               allow_infinity=False)),
        min_size=1, max_size=4),
        st.complex_numbers(max_magnitude=30.0, allow_nan=False,
                           allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_summation(self, terms, z):
        # exponents must be distinct and some polynomial nonzero
        exps = [b for _, b in terms]
        if len({(b.real, b.imag) for b in exps}) != len(exps):
            return
        if all(all(c == 0 for c in coeffs) for coeffs, _ in terms):
            return
        f = models.ExponentialSum(terms)
        direct = complex(f.plain_values(np.array([z]))[0])
        la, ph, ok = f.log_eval_many(np.array([z]))
        if not ok[0] or la[0] < math.log(abs(direct) + 1e-300) - 1:
            return   # cancellation regime: both routes lose relative accuracy
        assert cmath.isclose(cmath.exp(complex(la[0], ph[0])), direct,
                             rel_tol=1e-10, abs_tol=1e-290)


class TestLogDerivative:
    def test_exp_constant_one(self, exp_model):
        for z in (0.0, 5 + 2j, -30j, 100.0):
            assert models.log_derivative(exp_model, z) == pytest.approx(1.0)

    def test_sin_cotangent(self, sin_model):
        val = models.log_derivative(sin_model, 50j)
        oracle = -1j / math.tanh(50.0)
        assert abs(val - oracle) <= 1e-9 * abs(oracle)

    def test_product_series_value(self):
        # L(-1) = -sum 1/(k^2+1) = (1 - pi coth pi)/2; truncation bound from
        # the stored cutoff must cover the difference
        prod = models.CanonicalProduct(models.PowerZeroRule(exponent=2.0),
                                       genus=0, tail_tol=1e-5, r_max=10.0)
        val = models.log_derivative(prod, -1.0)
        oracle = (1.0 - math.pi / math.tanh(math.pi)) / 2.0
        assert abs(val - oracle) <= prod.derivative_tail_bound(1.0) + 1e-12
        assert val.real == pytest.approx(-1.07667, abs=2e-5)

    def test_near_zero_raises(self, sin_model):
        with pytest.raises(NearZero):
            models.log_derivative(sin_model, math.pi + 1e-14)

    def test_infinite_value_raises(self):
        # f is finite and far from zero at z, but f'/f is not representable
        model = models.ExponentialSum([([complex(2.9, -1e300)], 0.0447),
                                       ([1.35, 1.88], 1e300)])
        with pytest.raises(OverflowUnrepresentable, match="f'/f leaves the float range"):
            models.log_derivative(model, 1e8 * cmath.exp(0.5j))

    def test_matches_finite_difference(self, sin_model, cosh_model):
        rng = np.random.default_rng(7)
        checked = 0
        for model in (sin_model, cosh_model):
            while checked < 500:
                z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
                la, _, ok = model.log_eval_many(np.array([z]))
                if not ok[0] or la[0] < -2.0:
                    continue
                h = 1e-6 * max(1.0, abs(z))
                la_p, ph_p, _ = model.log_eval_many(np.array([z + h]))
                la_m, ph_m, _ = model.log_eval_many(np.array([z - h]))
                dlog = (la_p[0] - la_m[0]) / (2 * h)
                dph = math.remainder(ph_p[0] - ph_m[0], 2 * math.pi) / (2 * h)
                fd = complex(dlog, dph)
                val = models.log_derivative(model, z)
                assert abs(val - fd) <= 1e-5 * max(1.0, abs(val))
                checked += 1
            checked = 0


class TestFusedPass:
    """log_abs_and_derivative_many gives the bits of log_eval_many's
    (log_abs, valid) and log_derivative_many's (L, ok)."""

    POLY = models.ExponentialSum([([1.0, 1.0], 1.0), ([0.0, 0.0, 1.0], -1.0)])
    BIG = models.ExponentialSum([([1.0, 1e308], 1.0)])      # 1e308 z overflows

    @pytest.mark.parametrize("name", ["exp", "sin", "poly", "big"])
    def test_bits_match_the_two_passes(self, name, exp_model, sin_model):
        model = {"exp": exp_model, "sin": sin_model,
                 "poly": self.POLY, "big": self.BIG}[name]
        rng = np.random.default_rng(3)
        zs = np.concatenate([
            rng.uniform(-60, 60, 2000) + 1j * rng.uniform(-60, 60, 2000),
            [0.0, math.pi + 1e-14, -1.0, 10.0, 1e-300, 800.0, -800j, 1e6 + 1e6j]])
        log_abs, _, valid = model.log_eval_many(zs)
        lvals, ok = model.log_derivative_many(zs)
        fused = model.log_abs_and_derivative_many(zs)
        for got, want in zip(fused, (log_abs, valid, lvals, ok)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_guards_are_exercised(self, sin_model):
        # sin: a zero hit at 0 and a near-zero f'/f next to pi
        log_abs, valid, _, ok = sin_model.log_abs_and_derivative_many(
            np.array([0.0, math.pi + 1e-14]))
        assert log_abs[0] == -math.inf and not valid[0] and not ok.any()
        # an overflowing coefficient: log|f| of +inf, valid, f'/f refused
        log_abs, valid, _, ok = self.BIG.log_abs_and_derivative_many(np.array([10.0]))
        assert log_abs[0] == math.inf and valid[0] and not ok[0]

    def test_product_is_the_two_passes(self, k_squared_product):
        zs = np.array([-1.0, 4.0, 3 + 2j, 50j])
        log_abs, _, valid = k_squared_product.log_eval_many(zs)
        lvals, ok = k_squared_product.log_derivative_many(zs)
        fused = k_squared_product.log_abs_and_derivative_many(zs)
        for got, want in zip(fused, (log_abs, valid, lvals, ok)):
            assert got.tobytes() == want.tobytes()


class TestArgumentPrinciple:
    def test_sin_zero_count(self, sin_model):
        assert models.count_zeros_argument_principle(
            sin_model, (-10, 10, -1, 1), 128) == 7

    def test_exp_no_zeros(self, exp_model):
        assert models.count_zeros_argument_principle(
            exp_model, (-5, 5, -5, 5), 64) == 0

    def test_product_zero_count(self, k_squared_product):
        assert models.count_zeros_argument_principle(
            k_squared_product, (0.5, 4.5, -1, 1), 128) == 2

    def test_stable_under_node_doubling(self, sin_model):
        a = models.count_zeros_argument_principle(sin_model, (-7, 7, -2, 2), 96)
        b = models.count_zeros_argument_principle(sin_model, (-7, 7, -2, 2), 192)
        assert a == b == 5

    def test_contour_too_close(self, sin_model):
        # odd node count puts a Gauss node exactly on the zero at pi
        with pytest.raises(ContourTooClose):
            models.count_zeros_argument_principle(
                sin_model, (math.pi, 2 * math.pi, -1, 1), 33)

    def test_non_integer_residue(self, sin_model):
        # hopelessly coarse quadrature on a thin rectangle near three zeros
        with pytest.raises(NonIntegerResidue):
            models.count_zeros_argument_principle(
                sin_model, (0.1, 9.9, -0.1, 0.1), 4)


class TestCountingFunction:
    def test_squares(self, k_squared_product):
        assert k_squared_product.counting_function(100.0) == 10
        assert k_squared_product.counting_function(99.9) == 9

    def test_even_spacing(self):
        prod = models.CanonicalProduct(
            models.PowerZeroRule(exponent=1.0), genus=1, tail_tol=1e-3, r_max=25.0)
        assert prod.counting_function(3.5) == 3
        assert prod.counting_function(3.0) == 3
        assert prod.counting_function(2.9999) == 2


class TestCanonicalProductContract:
    def test_cutoff_refinement_within_tail_bound(self):
        rule = models.PowerZeroRule(exponent=2.0)
        coarse = models.CanonicalProduct(rule, 0, 1e-2, 150.0)
        fine = models.CanonicalProduct(rule, 0, 1e-5, 150.0)
        assert fine.cutoff > coarse.cutoff
        for z in (-100.0, 37.3 + 5j, -20j):
            a = coarse.log_eval_many(np.array([z]))[0][0]
            b = fine.log_eval_many(np.array([z]))[0][0]
            assert abs(a - b) <= coarse.tail_bound

    def test_radius_certification_enforced(self, k_squared_product):
        with pytest.raises(ValueError):
            k_squared_product.log_eval_many(np.array([500.0]))

    def test_genus_must_beat_convergence_exponent(self):
        with pytest.raises(ValueError):
            models.CanonicalProduct(models.PowerZeroRule(exponent=1.0),
                                    genus=0, tail_tol=1e-3, r_max=10.0)

    def test_cutoff_where_the_tolerance_power_underflows(self):
        # 1e-4 ** (1/0.01) underflows to 0; the cutoff comes from its log
        prod = models.CanonicalProduct(models.PowerZeroRule(1.01), 0, 1e-4, 3e-300)
        assert prod.cutoff == 1
        assert prod.tail_bound == pytest.approx(6e-298, rel=1e-12)


class TestExponentialSumValidation:
    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError):
            models.ExponentialSum([([1.0], 1.0), ([2.0], 1.0)])

    def test_all_zero_polynomials_rejected(self):
        with pytest.raises(ValueError):
            models.ExponentialSum([([0.0], 1.0)])


# The product evaluation as it stood before the single factor pass: two
# copies of the point-block and factor-chunk loops, kept verbatim as the
# oracle whose bits the single pass must reproduce.
ZERO_HIT_LOG, _TWO_PI = models.ZERO_HIT_LOG, 2.0 * math.pi


class _TwoLoopProduct(models.CanonicalProduct):
    def _check_radius(self, r: float) -> None:
        if r > self.r_max * (1 + 1e-12):
            raise ValueError(
                f"|z| = {r:g} exceeds the certified radius r_max = {self.r_max:g}")

    def _z_blocks(self, flat: np.ndarray):
        """Yield index slices so block_size * zero_chunk stays bounded."""
        zero_chunk = min(self._CHUNK, self.cutoff)
        block = max(1, (1 << 22) // zero_chunk)
        for lo in range(0, flat.size, block):
            yield slice(lo, min(lo + block, flat.size))

    def log_eval_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Truncated sum of log E(z/a_k, p); accurate to within tail_bound."""
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        if flat.size:
            self._check_radius(float(np.max(np.abs(flat))))
        p = self.genus
        log_abs = np.zeros(flat.shape)
        phase = np.zeros(flat.shape)
        hit = np.zeros(flat.shape, dtype=bool)
        for blk in self._z_blocks(flat):
            zb = flat[blk]
            for lo in range(1, self.cutoff + 1, self._CHUNK):
                hi = min(lo + self._CHUNK - 1, self.cutoff)
                a = self.rule.zeros(lo, hi)
                u = zb[:, None] / a[None, :]
                one_m = 1.0 - u
                mag = np.abs(one_m)
                hit[blk] |= (mag == 0.0).any(axis=1)
                with np.errstate(divide="ignore"):
                    term_log = np.log(mag)
                term_arg = np.angle(one_m)
                if p > 0:
                    upow = u.copy()
                    for j in range(1, p + 1):
                        term_log = term_log + upow.real / j
                        term_arg = term_arg + upow.imag / j
                        if j < p:
                            upow = upow * u
                log_abs[blk] += term_log.sum(axis=1)
                phase[blk] += term_arg.sum(axis=1)
        valid = ~hit & (log_abs >= ZERO_HIT_LOG)
        log_abs = np.where(valid, log_abs, -np.inf)
        phase = np.remainder(phase + math.pi, _TWO_PI) - math.pi
        phase = np.where(phase == -math.pi, math.pi, phase)
        phase = np.where(valid, phase, 0.0)
        return (log_abs.reshape(zs.shape), phase.reshape(zs.shape),
                valid.reshape(zs.shape))

    def log_derivative_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_k z**p / (a_k**p (z - a_k)) over the stored cutoff."""
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        if flat.size:
            self._check_radius(float(np.max(np.abs(flat))))
        p = self.genus
        total = np.zeros(flat.shape, dtype=np.complex128)
        ok = np.ones(flat.shape, dtype=bool)
        for blk in self._z_blocks(flat):
            zb = flat[blk]
            for lo in range(1, self.cutoff + 1, self._CHUNK):
                hi = min(lo + self._CHUNK - 1, self.cutoff)
                a = self.rule.zeros(lo, hi)
                diff = zb[:, None] - a[None, :]
                ok[blk] &= (np.abs(diff) > 1e-9 * np.abs(a)[None, :]).all(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    if p == 0:
                        contrib = 1.0 / diff
                    else:
                        contrib = zb[:, None] ** p / (a[None, :] ** p * diff)
                    contrib = np.where(np.isfinite(contrib), contrib, 0.0)
                total[blk] += contrib.sum(axis=1)
        total = np.where(ok, total, 0.0)
        return total.reshape(zs.shape), ok.reshape(zs.shape)

    def log_abs_and_derivative_many(self, zs: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(log_abs, valid, L, ok) from the two passes above, whose factor
        chunks bound the peak memory."""
        log_abs, _, valid = self.log_eval_many(zs)
        return (log_abs, valid, *self.log_derivative_many(zs))

    def plain_values(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.complex128)
        log_abs, phase, valid = self.log_eval_many(zs)
        with np.errstate(over="ignore"):
            mag = np.exp(log_abs)
        vals = mag * (np.cos(phase) + 1j * np.sin(phase))
        return np.where(valid, vals, 0.0)


class TestOneFactorPass:
    """Each product evaluation makes one pass over the factor chunks, with the
    bits of the two-loop reference and at most 2^20 entries per step."""

    @pytest.mark.parametrize("rule,genus,tol,r_max,n", [
        (models.PowerZeroRule(2.0), 0, 1e-3, 300.0, 5),      # two chunks, 3 blocks
        (models.PowerZeroRule(1.5, angle=0.1), 1, 1e-4, 100.0, 56),
        (models.PowerZeroRule(1.5), 1, 0.02, 10.0, 50_000),  # 50 zeros, 3 blocks
        (models.PowerZeroRule(1.0), 2, 1e-3, 30.0, 56),
    ], ids=["genus0-two-chunks", "genus1-angle", "genus1-many-blocks", "genus2"])
    def test_bits_match_the_two_loop_reference(self, rule, genus, tol, r_max, n):
        model = models.CanonicalProduct(rule, genus, tol, r_max)
        ref = _TwoLoopProduct(rule, genus, tol, r_max)
        rng = np.random.default_rng(19)
        zs = r_max * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        a_3 = rule.zeros(3, 3)[0]
        zs[:3] = [0.0, a_3, a_3 + 1e-12]
        for name in ("log_eval_many", "log_derivative_many",
                     "log_abs_and_derivative_many", "plain_values"):
            got, want = getattr(model, name)(zs), getattr(ref, name)(zs)
            if name == "plain_values":
                got, want = (got,), (want,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes(), name
        # the guards are exercised: a zero hit at a_3, f'/f refused next to it
        _, valid, _, ok = model.log_abs_and_derivative_many(zs[:3])
        assert valid.tolist() == [True, False, True] and ok.tolist() == [True, False, False]

    def test_fused_call_makes_each_chunk_once(self, monkeypatch):
        model = models.CanonicalProduct(models.PowerZeroRule(2.0), 0, 1e-3, 300.0)
        chunk = models.CanonicalProduct._CHUNK
        assert model.cutoff > chunk     # two chunks of zeros
        calls = collections.Counter()
        zeros = models.PowerZeroRule.zeros

        def counting(rule, k_lo, k_hi):
            calls[k_lo, k_hi] += 1
            return zeros(rule, k_lo, k_hi)

        monkeypatch.setattr(models.PowerZeroRule, "zeros", counting)
        chunks = [(lo, min(lo + chunk - 1, model.cutoff))
                  for lo in range(1, model.cutoff + 1, chunk)]
        # 2 points x 2^19 zeros fill one block of 2^20 entries, 5 points three
        # blocks; either way each chunk is made once, for both parts of f
        for n in (2, 5):
            calls.clear()
            model.log_abs_and_derivative_many(np.linspace(1.0 + 1j, 250.0, n))
            assert calls == {c: 1 for c in chunks}

    def test_each_view_does_only_the_work_it_reads(self, k_squared_product, monkeypatch):
        seen = []
        add_log, add_deriv = models._add_log_factors, models._add_log_derivative_factors

        def log_part(zb, a, p, log_abs, arg):
            seen.append("log" if arg is None else "log+phase")
            add_log(zb, a, p, log_abs, arg)

        def deriv_part(*args):
            seen.append("deriv")
            add_deriv(*args)

        monkeypatch.setattr(models, "_add_log_factors", log_part)
        monkeypatch.setattr(models, "_add_log_derivative_factors", deriv_part)
        zs = np.array([3.0 + 1j, -50.0])
        for name, parts in (("log_eval_many", ["log+phase"]),
                            ("log_derivative_many", ["deriv"]),
                            ("log_abs_and_derivative_many", ["log", "deriv"]),
                            ("plain_values", ["log+phase"])):
            seen.clear()
            getattr(k_squared_product, name)(zs)
            assert seen == parts, name

    def test_fused_call_peak_memory(self):
        # the genus-1 product of perfbench's product workload, on ann(200)
        model = models.CanonicalProduct(models.PowerZeroRule(1.5, angle=0.1), 1,
                                        1e-4, 620.0)
        zs = criteria.sample_points(criteria.AnnulusSpec(200.0),
                                    criteria.MonteCarloPlan(60, 1))
        tracemalloc.start()
        try:
            model.log_abs_and_derivative_many(zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20
