"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure and runtime. Tolerances are pinned here, not configured.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from crglab import analytic, covering, criteria, dynamics, growth, models
from crglab.cli import run
from conftest import log_abs_sin

SIN_SPEC = "expsum:[(0,-0.5)]exp((0,1));[(0,0.5)]exp((0,-1))"
EXP_SPEC = "expsum:[1]exp(1)"


def _report(tag: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{tag} {status} [{elapsed:.2f}s < {budget:.0f}s] {detail}")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: runtime {elapsed:.2f}s over budget"


def test_criterion_01_indicator_oracle(sin_model, exp_model):
    t0 = time.perf_counter()
    band = np.concatenate([np.linspace(0.3, math.pi - 0.3, 360),
                           np.linspace(math.pi + 0.3, 2 * math.pi - 0.3, 360)])
    emp = growth.indicator_empirical(sin_model, band, [1e2, 1e3, 1e4])
    sin_err = float(np.max(np.abs(emp - np.abs(np.sin(band)))))
    full = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    emp_e = growth.indicator_empirical(exp_model, full, [1e2, 1e3, 1e4])
    exp_err = float(np.max(np.abs(emp_e - np.cos(full))))
    elapsed = time.perf_counter() - t0
    ok = sin_err <= 1e-3 and exp_err <= 1e-6
    _report("ACCEPT-01", ok,
            f"sin max err {sin_err:.2e} <= 1e-3, exp max err {exp_err:.2e} <= 1e-6",
            elapsed, 5.0)


def test_criterion_02_crg_ray_product_oracle(cascade_one):
    t0 = time.perf_counter()
    product = models.CanonicalProduct(models.PowerZeroRule(exponent=2.0),
                                      genus=0, tail_tol=0.05, r_max=2e5)
    angles = (math.pi / 2, math.pi, 3 * math.pi / 2)
    rows = analytic.verify_crg_ray_product(
        product, cascade_one,
        [(1e4, t) for t in angles] + [(1e3, math.pi), (1e5, math.pi)])
    at_1e4 = [abs(r.normalized_residual) for r in rows[:3]]
    r_1e3 = abs(rows[3].normalized_residual)
    r_1e5 = abs(rows[4].normalized_residual)
    # cross-check the measured values against prod(1 - z/k^2) = sin(pi sqrt z)/(pi sqrt z)
    ident_ok = True
    for row in rows:
        z = row.r * cmath.exp(1j * row.theta)
        w = math.pi * cmath.sqrt(z)
        oracle = log_abs_sin(w) - math.log(abs(w))
        ident_ok &= abs(row.measured - oracle) <= product.tail_bound + 1e-6
    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.1 for v in at_1e4) and r_1e5 < r_1e3 and ident_ok
    _report("ACCEPT-02", ok,
            f"residuals@1e4 {max(at_1e4):.4f} <= 0.1, "
            f"decrease {r_1e3:.4f} -> {r_1e5:.4f}, identity ok {ident_ok}",
            elapsed, 60.0)


def test_criterion_03_schwarz_reconstruction(exp_model, sin_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for model in (exp_model, sin_model):
        for _ in range(10):
            z = complex(rng.uniform(-8, 8), rng.uniform(2.0, 8.0))
            rec = analytic.schwarz_log_derivative(model, z, 0.8, 512)
            direct = models.log_derivative(model, z)
            worst = max(worst, abs(rec - direct) / abs(direct))
    elapsed = time.perf_counter() - t0
    _report("ACCEPT-03", worst <= 1e-6,
            f"worst relative error {worst:.2e} <= 1e-6 over 20 disks",
            elapsed, 1.0)


def test_criterion_04_8l_closed_form(sin_model):
    t0 = time.perf_counter()
    worst = 0.0
    for r in (20.0, 50.0, 100.0):
        val = (r * 1j * models.log_derivative(sin_model, r * 1j)).real
        worst = max(worst, abs(val - r))
    elapsed = time.perf_counter() - t0
    _report("ACCEPT-04", worst <= 1e-8,
            f"max |Re(zL) - r| = {worst:.2e} <= 1e-8 (oracle r coth r)",
            elapsed, 1.0)


def test_criterion_05_kernel_integral_sweep():
    t0 = time.perf_counter()
    cases = [(0.5, 0, -1.0 + 0j)]
    for lam, p in ((0.3, 0), (0.5, 0), (0.8, 0), (1.4, 1), (1.6, 1), (2.5, 2)):
        for theta in (0.7, math.pi, 5.2):
            cases.append((lam, p, 1.3 * cmath.exp(1j * theta)))
    cases.append((0.25, 0, 0.4j))
    assert len(cases) >= 20
    worst = 0.0
    for lam, p, z in cases:
        res = analytic.kernel_integral_I(lam, p, z)
        worst = max(worst, res.rel_diff)
    pivot = analytic.kernel_integral_I(0.5, 0, -1.0)
    pivot_ok = (abs(pivot.quadrature - math.pi) < 1e-7 * math.pi
                and abs(pivot.closed_form - math.pi) < 1e-9)
    elapsed = time.perf_counter() - t0
    _report("ACCEPT-05", worst <= 1e-7 and pivot_ok,
            f"worst rel diff {worst:.2e} <= 1e-7 over {len(cases)} cases; "
            f"I(1/2,0,-1) = pi on both routes",
            elapsed, 5.0)


def test_criterion_06_covering_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    pts = rng.random(1500) + 1j * rng.random(1500)
    radii = rng.uniform(0.01, 0.05, 1500)
    disks = covering.besicovitch_cover(pts, radii)
    bes = covering.besicovitch_audit(pts, disks, n_probes=100_000)
    bes_ok = bes.covers_all and bes.max_multiplicity <= 256

    fuchs_ok = True
    for i in range(100):
        n = int(rng.integers(1, 41)) if i < 99 else 100
        cloud = rng.random(n) + 1j * rng.random(n)
        if rng.random() < 0.2:   # exercise clustered inputs too
            cloud[: n // 2 + 1] = cloud[0]
        h = float(rng.uniform(0.02, 1.0))
        dset, cert = covering.fuchs_macintyre_disks(cloud, h, n_probes=1500)
        fuchs_ok &= sum(Fraction(r) ** 2 for r in dset.radii()) \
            <= 4 * Fraction(h) ** 2
        fuchs_ok &= cert.max_harmonic_sum <= cert.harmonic_bound * (1 + 1e-12)

    cartan_ok = True
    for _ in range(10):
        n = int(rng.integers(1, 51))
        zeros = 2.0 * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
        zeros = zeros[np.abs(zeros) > 1e-6]
        if zeros.size == 0:
            continue
        eta = float(rng.uniform(0.05, 0.5))
        dset, cert = covering.cartan_levin_disks(zeros, 1.0, eta, n_probes=3000)
        cartan_ok &= sum(Fraction(r) for r in dset.radii()) \
            <= 4 * Fraction(eta) * Fraction(1.0)
        cartan_ok &= cert.min_log_g > cert.bound_rhs

    elapsed = time.perf_counter() - t0
    _report("ACCEPT-06", bes_ok and fuchs_ok and cartan_ok,
            f"besicovitch mult {bes.max_multiplicity} <= 256 at 1e5 probes; "
            f"fuchs 100/100 exact budgets; cartan 10/10 audits",
            elapsed, 60.0)


def test_criterion_07_density_geometry(exp_model):
    t0 = time.perf_counter()
    beta = growth.GrowthMinorant.exp_power(0.5, 1.0)
    rep = criteria.annulus_density(criteria.predicate_A(exp_model, beta),
                                   criteria.AnnulusSpec(200.0),
                                   criteria.MonteCarloPlan(100_000, 42))
    elapsed = time.perf_counter() - t0
    err = abs(rep.density - 1.0 / 3.0)
    _report("ACCEPT-07", err <= 0.02,
            f"dens(A, ann(200)) = {rep.density:.4f}, |err| = {err:.4f} <= 0.02",
            elapsed, 10.0)


def test_criterion_08_series_condition(rho_one, cascade_one):
    t0 = time.perf_counter()
    beta = growth.GrowthMinorant.growth_scale(rho_one, cascade_one)
    alpha = growth.sector_budget(2, cascade_one)
    chk = growth.series_condition_check(alpha, beta, 100.0, 1e-10)
    elapsed = time.perf_counter() - t0
    ok = chk.converges and chk.terms_used <= 10 and chk.terms[-1] < 1e-10
    _report("ACCEPT-08", ok,
            f"converges in {chk.terms_used} terms, tail {chk.terms[-1]:.1e} < 1e-10, "
            f"sum {chk.partial_sum:.4f}",
            elapsed, 1.0)


def test_criterion_09_mcmullen_positivity(sin_model, rho_one, cascade_one):
    t0 = time.perf_counter()
    beta = growth.GrowthMinorant.growth_scale(rho_one, cascade_one)
    window = criteria.Window(0.0, 2 * math.pi, -3.0, 3.0)
    reps = [dynamics.measure_estimate(sin_model, window,
                                      criteria.MonteCarloPlan(100_000, s),
                                      beta, r0=2.0, max_iter=50)
            for s in (42, 43, 44)]
    positive = all(r.density > 0 for r in reps)
    consistent = all(
        abs(a.density - b.density)
        <= 3 * max(a.confidence_halfwidth, b.confidence_halfwidth)
        for i, a in enumerate(reps) for b in reps[i + 1:])
    em1 = dynamics.escape_map(sin_model, window, 128, 128, 2.0, beta, 50)
    em2 = dynamics.escape_map(sin_model, window, 256, 256, 2.0, beta, 50)
    grid_gap = abs(em1.escaped_fraction() - em2.escaped_fraction())
    elapsed = time.perf_counter() - t0
    ok = positive and consistent and grid_gap <= 0.02
    _report("ACCEPT-09", ok,
            f"densities {[round(r.density, 4) for r in reps]} > 0, "
            f"seed-consistent, grid gap {grid_gap:.4f} <= 0.02",
            elapsed, 120.0)


def test_criterion_10_zheng_ratio(sin_model):
    t0 = time.perf_counter()
    ratio = growth.zheng_ratio(sin_model, [50.0, 100.0, 200.0])
    elapsed = time.perf_counter() - t0
    _report("ACCEPT-10", ratio >= 1.9,
            f"min log M(2r)/log M(r) = {ratio:.4f} >= 1.9",
            elapsed, 1.0)


def test_criterion_11_byte_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    captures = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("CRG_THREADS", threads)
        blob = b""
        for repeat in range(2):
            base = tmp_path / f"t{threads}r{repeat}"
            base.mkdir()
            jobs = [
                (["indicator", "--fn", SIN_SPEC, "--thetas", "90",
                  "--radii", "1e2,1e3,1e4", "--out", str(base / "i.csv")],
                 base / "i.csv"),
                (["density", "--fn", EXP_SPEC, "--set", "A", "--r", "200",
                  "--beta", "exp-power:0.5,1", "--plan", "mc:30000:7",
                  "--out", str(base / "d.json")], base / "d.json"),
                (["measure", "--fn", SIN_SPEC, "--window", "0,6.2832,-3,3",
                  "--plan", "mc:30000:42", "--r0", "2",
                  "--out", str(base / "m.json")], base / "m.json"),
                # the default r0 = r/2 of an annulus
                (["measure", "--fn", SIN_SPEC, "--annulus", "40",
                  "--plan", "mc:40000:7", "--out", str(base / "ma.json")],
                 base / "ma.json"),
                (["escape-map", "--fn", SIN_SPEC, "--window", "0,6.2832,-3,3",
                  "--size", "96x96", "--r0", "2", "--out", str(base / "e.pgm")],
                 base / "e.pgm"),
                (["escape-map", "--fn", SIN_SPEC, "--window=-1.7,4.1,-0.3,2.9",
                  "--size", "100x77", "--r0", "2", "--out", str(base / "ea.pgm")],
                 base / "ea.pgm"),
                (["verify-crg", "--fn", "product:zeros=pow(2),genus=0,cut=0.2",
                  "--samples", "1000:3.141592653589793",
                  "--out", str(base / "v.csv")], base / "v.csv"),
                (["check-8l", "--fn", SIN_SPEC,
                  "--samples", "100:1.5707963267948966;1000:1.8",
                  "--out", str(base / "8.csv")], base / "8.csv"),
            ]
            for argv, path in jobs:
                assert run(argv) == 0
                blob += path.read_bytes()
        captures.append(blob)
    elapsed = time.perf_counter() - t0
    ok = captures[0] == captures[1] == captures[2]
    _report("ACCEPT-11", ok,
            f"{len(captures[0])} artifact bytes identical across "
            "1/2/8 workers and repeated runs",
            elapsed, 120.0)
