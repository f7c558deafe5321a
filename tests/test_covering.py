import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crglab import covering
from crglab.errors import CertificateFailure


class TestDiskSet:
    def test_text_round_trip(self):
        ds = covering.DiskSet(((1.234567890123456 + 2j, 0.375),
                               (-0.1 - 0.2j, 1e-9)))
        txt = ds.to_text()
        assert txt.endswith("\n") and "\r" not in txt
        assert covering.DiskSet.from_text(txt).disks == ds.disks

    def test_read_columns(self):
        ds = covering.DiskSet(((0.1 + 0.2j, 0.3), (-4e-300 + 5e300j, 6.0)))
        assert covering.read_columns(ds.to_text(), 3) == [(0.1, 0.2, 0.3),
                                                          (-4e-300, 5e300, 6.0)]
        assert covering.read_columns("\n 1 2 \n\n\t\n3 4\n", 2) == [(1.0, 2.0),
                                                                   (3.0, 4.0)]
        assert covering.read_columns("", 1) == []
        with pytest.raises(ValueError, match="line 3: expected 2 numbers, got 3"):
            covering.read_columns("1 2\n\n0.2 0.1 9\n", 2)
        with pytest.raises(ValueError, match="line 1: expected 1 numbers, got 2"):
            covering.read_columns("0.1 0.2\n", 1)
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="line 3: numbers must be finite"):
                covering.read_columns(f"1 2\n\n3 {bad}\n5 6\n", 2)

    def test_positive_radii_enforced(self):
        with pytest.raises(ValueError):
            covering.DiskSet(((0j, 0.0),))

    @pytest.mark.parametrize("centre", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_finite_centres_enforced(self, centre):
        with pytest.raises(ValueError, match="centres must be finite"):
            covering.DiskSet(((0j, 1.0), (centre, 1.0)))

    def test_outside_means_multiplicity_zero(self):
        rng = np.random.default_rng(9)
        ds = covering.DiskSet(tuple(
            (complex(x, y), r) for x, y, r in
            zip(rng.uniform(-1, 1, 25), rng.uniform(-1, 1, 25),
                rng.uniform(0.05, 0.4, 25))))
        zs = np.concatenate([rng.uniform(-1.5, 1.5, 5000)
                             + 1j * rng.uniform(-1.5, 1.5, 5000),
                             [c + r for c, r in ds.disks],    # near the circles
                             ds.centers()])
        assert np.array_equal(ds.mask_outside(zs), ds.multiplicity(zs) == 0)
        assert not ds.mask_outside(ds.centers()).any()
        assert covering.DiskSet(()).mask_outside(zs).all()

    @pytest.mark.parametrize("offset", [0.0, 1e6 + 1e6j, -3e9])
    def test_multiplicity_matches_every_disk_test(self, offset):
        # points exactly on the circles (3-4-5 triangles and axis points),
        # at the centres, a hair outside, and uniform; one disk tested
        # against every point is the reference
        rng = np.random.default_rng(12)
        cs = offset + rng.integers(-6, 7, 30) + 1j * rng.integers(-6, 7, 30)
        rs = rng.choice([0.5, 1.0, 5.0, 2.5], 30)
        ds = covering.DiskSet(tuple(zip(map(complex, cs), map(float, rs))))
        on = np.array([5, -5, 5j, -5j, 3 + 4j, -3 + 4j, 3 - 4j, -4 - 3j]) / 5
        rim = (cs[:, None] + rs[:, None] * on[None, :]).ravel()
        zs = np.concatenate([rim, cs, rim * (1 + 1e-16), np.nextafter(rim.real, np.inf) + 1j * rim.imag,
                             offset + rng.uniform(-12, 12, 6000) + 1j * rng.uniform(-12, 12, 6000),
                             [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), 0j]])
        ref = sum((np.abs(zs - c) <= r).astype(np.int64) for c, r in ds.disks)
        assert np.array_equal(ds.multiplicity(zs), ref)
        assert np.array_equal(ds.multiplicity(zs.reshape(2, -1)), ref.reshape(2, -1))
        assert ds.multiplicity(rim).min() >= 1 and ds.multiplicity(cs).min() >= 1


def _halton_reference(n, base):
    """Per-element radical inverse, the scalar form of covering._halton."""
    out = []
    for i in range(n):
        f, x, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out.append(x)
    return np.array(out)


class TestHalton:
    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_bit_identical_to_scalar(self, base):
        for n in (0, 1, 7, 8000, 40_000):
            assert np.array_equal(covering._halton(n, base),
                                  _halton_reference(n, base))


def _besicovitch_reference(points, radius_fn):
    """Pure-Python greedy: visit by (-radius, index), select a point iff no
    selected disk contains it (the earlier form of besicovitch_cover)."""
    pts = [complex(p) for p in points]
    radii = [float(radius_fn(p)) for p in pts]
    sel = []
    for i in sorted(range(len(pts)), key=lambda i: (-radii[i], i)):
        if not any(abs(pts[i] - c) <= r for c, r in sel):
            sel.append((pts[i], radii[i]))
    return covering.DiskSet(tuple(sel))


def _densest_disk_reference(pts, rho):
    """Candidates from triu_indices, counted in one matrix (the earlier form)."""
    tol = 1e-9 * max(rho, 1.0)
    iu, ju = np.triu_indices(len(pts), k=1)
    close = np.abs(pts[iu] - pts[ju]) <= 2.0 * rho + tol
    pi, pj = pts[iu[close]], pts[ju[close]]
    mid = (pi + pj) / 2.0
    d = np.abs(pj - pi)
    h = np.sqrt(np.maximum(rho * rho - (d / 2.0) ** 2, 0.0))
    perp = np.where(d > 0, 1j * (pj - pi) / np.where(d > 0, d, 1.0), 0.0)
    cand = np.concatenate([pts, mid + h * perp, mid - h * perp])
    counts = (np.abs(pts[None, :] - cand[:, None]) <= rho + tol).sum(axis=1)
    k = int(np.argmax(counts))
    return int(counts[k]), complex(cand[k])


def _clustered_cloud(seed, n=120):
    """Uniform points, a tight cluster and exact repeats, with tied radii."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.random(n) + 1j * rng.random(n),
                          0.4 + 0.01 * (rng.normal(size=n // 2)
                                        + 1j * rng.normal(size=n // 2))])
    pts[n:n + 8] = pts[3]
    radii = rng.choice([0.02, 0.03, 0.05], size=pts.size)
    radii[::5] = rng.uniform(0.01, 0.08, radii[::5].size)
    return pts, radii


class TestBesicovitch:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_python_greedy(self, seed):
        pts, radii = _clustered_cloud(seed)
        by_index = dict(zip(map(complex, pts), radii))   # repeats share a radius
        shared = [by_index[complex(p)] for p in pts]
        disks = covering.besicovitch_cover(pts, shared)
        assert disks == _besicovitch_reference(pts, lambda p: by_index[complex(p)])

    def test_audit_counts_points_as_probes(self):
        pts, radii = _clustered_cloud(1)
        by_index = dict(zip(map(complex, pts), radii))
        disks = covering.besicovitch_cover(pts, [by_index[complex(p)] for p in pts])
        cert = covering.besicovitch_audit(pts, disks, n_probes=700)
        assert cert.n_probes == 700 + len(pts)
        assert cert.covers_all and cert.n_selected == len(disks)

    def test_single_point(self):
        disks = covering.besicovitch_cover([0.0], [1.0])
        assert disks.disks == ((0j, 1.0),)

    def test_two_separated(self):
        disks = covering.besicovitch_cover([0.0, 3.0], [1.0, 1.0])
        assert len(disks) == 2

    def test_random_cloud_audit(self):
        rng = np.random.default_rng(5)
        pts = rng.random(1000) + 1j * rng.random(1000)
        radii = rng.uniform(0.01, 0.05, 1000)
        disks = covering.besicovitch_cover(pts, radii)
        cert = covering.besicovitch_audit(pts, disks, n_probes=10_000)
        assert cert.covers_all
        assert cert.max_multiplicity <= covering.BESICOVITCH_MAX_MULTIPLICITY

    def test_dense_same_radius(self):
        rng = np.random.default_rng(8)
        pts = 0.1 * (rng.random(400) + 1j * rng.random(400))
        disks = covering.besicovitch_cover(pts, np.full(pts.size, 0.05))
        cert = covering.besicovitch_audit(pts, disks, n_probes=5000)
        assert cert.covers_all and cert.max_multiplicity <= 256

    @pytest.mark.parametrize("radii", [[1.0], [1.0, 1.0, 1.0]])
    def test_radii_length_mismatch_refused(self, radii):
        with pytest.raises(ValueError):
            covering.besicovitch_cover([0.0, 3.0], radii)

    def test_repeated_point_takes_its_largest_radius(self):
        disks = covering.besicovitch_cover([0j, 0j, 0.3 + 0j], [0.5, 0.01, 0.05])
        assert disks.disks == ((0j, 0.5),)

    def test_matches_python_greedy_at_4000_points(self):
        rng = np.random.default_rng(31)
        pts = rng.random(4000) + 1j * rng.random(4000)
        radius = dict(zip(map(complex, pts), rng.uniform(0.01, 0.05, 4000)))
        disks = covering.besicovitch_cover(pts, [radius[complex(p)] for p in pts])
        assert disks == _besicovitch_reference(pts, lambda p: radius[complex(p)])

    def test_non_finite_point_refused(self):
        with pytest.raises(ValueError, match=r"point 2 is not finite: \(nan\+0j\)"):
            covering.besicovitch_cover([0j, 1j, complex(math.nan, 0.0)], [1.0, 1.0, 1.0])


class TestFuchsMacintyre:
    def test_single_point(self):
        disks, cert = covering.fuchs_macintyre_disks([0j], 0.1)
        (c, r), = disks.disks
        assert c == 0j and 0.05 <= r <= 0.2
        assert cert.sum_sq_radii <= 4 * 0.1 ** 2 + 1e-18
        assert cert.max_harmonic_sum <= cert.harmonic_bound

    def test_coincident_pair(self):
        disks, cert = covering.fuchs_macintyre_disks([1 + 1j, 1 + 1j], 1.0)
        assert len(disks) == 1
        assert Fraction(cert.sum_sq_radii) <= Fraction(cert.budget)

    def test_heavy_cluster(self):
        disks, cert = covering.fuchs_macintyre_disks([0.5j] * 7, 1.0)
        assert cert.max_harmonic_sum <= cert.harmonic_bound

    def test_hundred_random_points(self):
        rng = np.random.default_rng(5)
        pts = rng.random(100) + 1j * rng.random(100)
        disks, cert = covering.fuchs_macintyre_disks(pts, 0.1)
        assert cert.n_points == 100
        budget = 4 * Fraction(0.1) ** 2
        assert sum(Fraction(r) ** 2 for r in disks.radii()) <= budget

    def test_exact_budget_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            pts = rng.normal(size=n) + 1j * rng.normal(size=n)
            h = float(rng.uniform(0.02, 2.0))
            disks, cert = covering.fuchs_macintyre_disks(pts, h,
                                                         n_probes=2000)
            assert sum(Fraction(r) ** 2 for r in disks.radii()) \
                <= 4 * Fraction(h) ** 2
            assert cert.max_harmonic_sum <= cert.harmonic_bound * (1 + 1e-12)

    def test_densest_disk_memory_bounded(self):
        # candidate counts go in blocks, not one (n + n^2) x n matrix,
        # which at n = 400 alone took about 0.5 GB
        rng = np.random.default_rng(3)
        pts = rng.random(400) + 1j * rng.random(400)
        tracemalloc.start()
        try:
            covering.fuchs_macintyre_disks(pts, 0.2, n_probes=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20

    def test_densest_disk_memory_at_4000_points(self):
        # a 4000 x 4000 complex distance matrix alone is 256 MB
        rng = np.random.default_rng(3)
        pts = rng.random(4000) + 1j * rng.random(4000)
        tracemalloc.start()
        try:
            covering._densest_disk(pts, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("seed", range(24))
    def test_densest_disk_matches_triu_reference(self, seed):
        # eleven cases a seed: a clustered cloud with repeats at four radii,
        # a shuffled integer lattice at four radii that put many points on
        # one circle (tied counts), exact repeats, a 1e-3 cloud offset to
        # 1e6, and pairs 1e-10 apart at rho = 0
        rng = np.random.default_rng(seed)
        pts, _ = _clustered_cloud(seed, n=60)
        cases = [(pts, rho) for rho in (0.0, 0.01, 0.05, 0.3)]
        k = int(rng.integers(3, 8))
        lattice = (np.arange(k)[:, None] + 1j * np.arange(k)[None, :]).ravel()
        lattice = lattice[rng.permutation(k * k)[:int(rng.integers(k, k * k + 1))]]
        cases += [(lattice, rho) for rho in (0.5, math.sqrt(2) / 2, 1.0, math.sqrt(5) / 2)]
        base = rng.random(6) + 1j * rng.random(6)
        cases.append((base[rng.integers(0, 6, 40)], float(rng.choice([0.0, 0.1, 0.3]))))
        offset = 1e6 + 1e6j + 1e-3 * (rng.random(50) + 1j * rng.random(50))
        cases.append((offset, float(rng.choice([1e-4, 2.5e-4, 5e-4]))))
        cases.append((np.concatenate([base, base + 1e-10 * (1 + 1j)]), 0.0))
        for pts, rho in cases:
            assert covering._densest_disk(pts, rho) \
                == _densest_disk_reference(pts, rho)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            covering.fuchs_macintyre_disks([], 1.0)
        with pytest.raises(ValueError):
            covering.fuchs_macintyre_disks([0j], 0.0)

    def test_nan_audit_fails_closed(self):
        # a NaN point is refused before the search, which sorts the points
        with pytest.raises(ValueError, match=r"point 1 is not finite"):
            covering.fuchs_macintyre_disks([0.2 + 0.1j, complex(math.nan, 0.0)],
                                           0.5, 200)


class TestCartanLevin:
    def test_linear_factor(self):
        disks, cert = covering.cartan_levin_disks([1.0 + 0j], 1.0, 0.1)
        assert cert.sum_radii <= 0.4 + 1e-15
        assert cert.log_max_modulus_2eR == pytest.approx(math.log(1 + 2 * math.e), rel=1e-9)
        assert cert.min_log_g > cert.bound_rhs

    def test_empty_zero_list(self):
        disks, cert = covering.cartan_levin_disks([], 1.0, 0.1)
        assert len(disks) == 0 and cert.n_disks == 0

    def test_symmetric_pair(self):
        disks, cert = covering.cartan_levin_disks([1.0, -1.0], 1.0, 0.2)
        assert Fraction(cert.sum_radii) <= 4 * Fraction(0.2) * Fraction(1.0)
        assert cert.min_log_g > cert.bound_rhs

    def test_random_polynomials_up_to_degree_50(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(1, 51))
            radius = 2.0 * np.sqrt(rng.random(n))
            angle = 2 * math.pi * rng.random(n)
            zeros = radius * np.exp(1j * angle)
            zeros = zeros[np.abs(zeros) > 1e-6]
            disks, cert = covering.cartan_levin_disks(zeros, 1.0, 0.25,
                                                      n_probes=4000)
            assert sum(Fraction(r) for r in disks.radii()) <= Fraction(1.0)
            assert cert.min_log_g > cert.bound_rhs

    def test_reported_sum_within_budget(self):
        # 200 zeros uniform in D(0, 2) plus a cluster of 100: the float sum
        # of these radii reads 0.4000000000000017 > 0.4 although the exact
        # sum is within the budget
        rng = np.random.default_rng(101)
        zeros = np.concatenate([
            2 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200)),
            0.3 + 0.2j + 0.05 * (rng.normal(size=100) + 1j * rng.normal(size=100))])
        disks, cert = covering.cartan_levin_disks(zeros, 1.0, 0.1)
        assert cert.sum_radii <= cert.budget
        assert cert.sum_radii == float(sum(Fraction(r) for r in disks.radii()))

    def test_l_exposed_not_enforced(self):
        # the disk count is reported; no bound on it is asserted by design
        disks, cert = covering.cartan_levin_disks([0.5, 0.5j, -0.5], 1.0, 0.3)
        assert cert.n_disks == len(disks)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            covering.cartan_levin_disks([0j], 1.0, 0.1)
        with pytest.raises(ValueError):
            covering.cartan_levin_disks([1.0], 1.0, 5.0)

    def test_nan_audit_fails_closed(self):
        # a non-finite zero is refused before log M(2eR, g) or any disk
        for bad in (complex(math.nan, 0.0), complex(0.0, -math.inf)):
            with pytest.raises(ValueError, match=r"zero 1 is not finite"):
                covering.cartan_levin_disks([0.2 + 0.1j, bad], 1.0, 0.2, 200)

    def test_greedy_failure_is_certificate_failure(self, monkeypatch):
        # a search that finds no disk is a construction bug (exit 3), and
        # stays one under python -O
        monkeypatch.setattr(covering, "_densest_disk", lambda pts, rho: (0, 0j))
        with pytest.raises(CertificateFailure, match="level-1 disk"):
            covering.cartan_levin_disks([0.5, 0.5j], 1.0, 0.2, 200)


class TestDensityTransferSmoke:
    def test_affine_maps_preserve_density(self):
        # affine maps have distortion C = 1: densities transfer exactly
        rng = np.random.default_rng(4)
        q = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        p_mask = q.real > 0.3
        for a, b in ((2.0 + 1j, 3.0), (0.5j, -1 + 1j)):
            img = a * q + b
            img_mask = img.real * 0 == 0   # all in f(Q)
            dens_pre = p_mask.mean()
            dens_post = (p_mask & img_mask).mean()
            assert dens_post == pytest.approx(dens_pre)
