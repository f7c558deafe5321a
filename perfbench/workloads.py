"""The benchmark's five workloads: CLI operations generated from a seed, and
the output check of each operation.

A workload is a cycle of rounds; round ``k`` of seed ``s`` always produces the
same operations. Every round holds one operation of each kind the workload
has, so a run that stops after whole rounds measures a fixed mix. Sizes are
chosen so that each operation takes roughly 0.05-0.3 s on a 2-core machine.

Argument tokens that start with ``@`` name a file in the operation's own
directory: inputs are written there before the clock starts, outputs are read
back after it stops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

SIN = "expsum:[(0,-0.5)]exp((0,1));[(0,0.5)]exp((0,-1))"
EXP = "expsum:[1]exp(1)"
POLY = "expsum:[1,1]exp(1);[0,0,1]exp(-1)"           # (1+z)e^z + z^2 e^-z
PRODUCT = "product:zeros=pow(2),genus=0,cut=1e-3"     # sin(pi sqrt z)/(pi sqrt z)
PRODUCT_G1 = "product:zeros=pow(1.5,angle=0.1),genus=1,cut=1e-4"
EXP_BETA = "exp-power:0.5,1"
SCALE_BETA = "growth-scale"

EXP_RADII = (200.0, 300.0, 400.0, 500.0)
SIN_RADII = (150.0, 250.0, 350.0, 450.0)
POLY_RADII = (200.0, 300.0, 400.0, 500.0)

# dens(A, ann(r)) from grid:4000:1000 runs. Each agrees within 1e-3 with the
# area of its asymptotic region, computed without crglab: for sin z with the
# growth-scale minorant {|y| > 64, |y| - log 2 > |z| / log|z|}; for the POLY
# sum with exp(|z|/2) the union of {x + 1 > 64, x + log|z| > |z|/2} and
# {-x > 64, -x + 2 log|z| > |z|/2}.
REFERENCE_DENSITY = {
    (SIN, 150.0): 0.774756, (SIN, 250.0): 0.862196,
    (SIN, 350.0): 0.886300, (SIN, 450.0): 0.896163,
    (POLY, 200.0): 0.686602, (POLY, 300.0): 0.683751,
    (POLY, 400.0): 0.680116, (POLY, 500.0): 0.677836,
}
DENSITY_TOL = 0.02          # the ACCEPT-07 tolerance


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One CLI operation and the check of what it wrote.

    ``check(outs, run_cli)`` receives the bytes of every output file and a
    function that runs a reference CLI command and returns the bytes of its
    ``@out.json``; it raises CheckFailed or returns facts (counts the traced
    run aggregates).
    """

    kind: str
    argv: list[str]
    samples: int
    check: Callable[[dict[str, bytes], Callable[[list[str]], bytes]], dict]
    inputs: dict[str, str] = field(default_factory=dict)

    @property
    def outputs(self) -> list[str]:
        return [a[1:] for a in self.argv if a.startswith("@") and a[1:] not in self.inputs]


@dataclass(frozen=True)
class Workload:
    """A named round generator; why each exists is in BENCHMARK.json."""

    name: str
    make_round: Callable[[int, int], list[Op]]
    # (spec, r_max) models and minorant kinds that set-up builds
    models: tuple[tuple[str, float], ...]
    minorants: tuple[str, ...]


def _rng(seed: int, rnd: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, salt])


def _plan_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _pick(rng: np.random.Generator, values: tuple[float, ...]) -> float:
    return float(values[int(rng.integers(len(values)))])


def _fmt_points(zs: np.ndarray) -> str:
    return "".join(f"{z.real:.17g} {z.imag:.17g}\n" for z in zs)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _report(outs: dict[str, bytes], total: int) -> dict:
    """A density report that is internally consistent."""
    rep = json.loads(outs["out.json"])
    _expect(rep["total"] == total, f"total {rep['total']} != {total}")
    _expect(0 <= rep["hits"] <= total, f"hits {rep['hits']} out of range")
    _expect(rep["density"] == rep["hits"] / total, "density != hits / total")
    return rep


# ---------------------------------------------------------------------------
# density-A

def _density_argv(fn: str, set_: str, r: float, beta: str, plan: str) -> list[str]:
    return ["density", "--fn", fn, "--set", set_, "--r", f"{r:g}", "--beta", beta,
            "--plan", plan, "--out", "@out.json"]


def _near(expected: float, tol: float, total: int):
    def check(outs, run_cli):
        d = _report(outs, total)["density"]
        _expect(abs(d - expected) <= tol, f"density {d:.4f} not within {tol} of {expected:.4f}")
        return {}
    return check


def density_a_round(seed: int, rnd: int) -> list[Op]:
    rng = _rng(seed, rnd, 1)
    ops = []
    r = _pick(rng, EXP_RADII)
    n = 40_000
    ops.append(Op("exp-mc", _density_argv(EXP, "A", r, EXP_BETA, f"mc:{n}:{_plan_seed(rng)}"),
                  n, _near(1.0 / 3.0, DENSITY_TOL, n)))
    r = _pick(rng, SIN_RADII)
    n = 25_000
    ops.append(Op("sin-mc", _density_argv(SIN, "A", r, SCALE_BETA, f"mc:{n}:{_plan_seed(rng)}"),
                  n, _near(REFERENCE_DENSITY[(SIN, r)], DENSITY_TOL, n)))
    r = _pick(rng, POLY_RADII)
    n = 30_000
    ops.append(Op("poly-mc", _density_argv(POLY, "A", r, EXP_BETA, f"mc:{n}:{_plan_seed(rng)}"),
                  n, _near(REFERENCE_DENSITY[(POLY, r)], DENSITY_TOL, n)))
    r = _pick(rng, SIN_RADII)
    n1, n2 = 200, 125
    ops.append(Op("sin-grid", _density_argv(SIN, "A", r, SCALE_BETA, f"grid:{n1}:{n2}"),
                  n1 * n2, _near(REFERENCE_DENSITY[(SIN, r)], DENSITY_TOL, n1 * n2)))

    # e^z outside 40 seeded disks of the annulus: the excluded fraction can
    # only remove A-members, so dens <= 1/3 + tol and dens >= 1/3 - tol - excl
    r = _pick(rng, EXP_RADII)
    n = 40_000
    s = r * np.sqrt(0.25 + 3.75 * rng.random(40))
    centers = s * np.exp(2j * math.pi * rng.random(40))
    radii = r * rng.uniform(0.02, 0.08, 40)
    disks = "".join(f"{c.real:.17g} {c.imag:.17g} {rad:.17g}\n"
                    for c, rad in zip(centers, radii))

    def check_exclusion(outs, run_cli):
        rep = _report(outs, n)
        excl = rep["excluded_fraction"]
        _expect(0.0 < excl < 1.0, f"excluded fraction {excl} out of range")
        third = 1.0 / 3.0
        _expect(third - DENSITY_TOL - excl <= rep["density"] <= third + DENSITY_TOL,
                f"density {rep['density']:.4f} inconsistent with exclusion {excl:.4f}")
        return {}
    argv = _density_argv(EXP, "A", r, EXP_BETA, f"mc:{n}:{_plan_seed(rng)}")
    ops.append(Op("exp-exclude", argv + ["--exclude-disks", "@disks.txt"], n,
                  check_exclusion, {"disks.txt": disks}))
    return ops


# ---------------------------------------------------------------------------
# density-B

def _b_within_a(argv_a: list[str], total: int):
    def check(outs, run_cli):
        hits_b = _report(outs, total)["hits"]
        hits_a = json.loads(run_cli(argv_a))["hits"]
        _expect(hits_b <= hits_a, f"B hits {hits_b} exceed A hits {hits_a}")
        return {}
    return check


def density_b_round(seed: int, rnd: int) -> list[Op]:
    rng = _rng(seed, rnd, 2)
    ops = []
    # two or more full 8192-point chunks per op, so the thread pool has work
    for kind, fn, radii, beta, n in (("sin-B", SIN, SIN_RADII, SCALE_BETA, 16_384),
                                     ("exp-B", EXP, EXP_RADII, EXP_BETA, 65_536)):
        r = _pick(rng, radii)
        plan = f"mc:{n}:{_plan_seed(rng)}"
        ops.append(Op(kind, _density_argv(fn, "B", r, beta, plan), n,
                      _b_within_a(_density_argv(fn, "A", r, beta, plan), n)))

    lo = _pick(rng, (500.0, 1000.0))
    r_list = (lo, lo + _pick(rng, (500.0, 1000.0)))
    n = 16_384
    plan = f"mc:{n}:{_plan_seed(rng)}"

    def check_14(outs, run_cli):
        rep = json.loads(outs["out.json"])
        _expect(rep["series"]["converges"] is True, "series condition did not converge")
        _expect([row["r"] for row in rep["margins"]] == list(r_list), "margin radii differ")
        for row in rep["margins"]:
            argv_a = _density_argv(SIN, "A", row["r"], SCALE_BETA, plan)
            hits_a = json.loads(run_cli(argv_a))["hits"]
            _expect(row["density"] <= hits_a / n,
                    f"dens(B) {row['density']} exceeds dens(A) {hits_a / n} at r={row['r']}")
            _expect(row["alpha"] > 0.0, f"alpha {row['alpha']} is not positive")
            _expect(row["margin"] == row["density"] - (1.0 - row["alpha"])
                    and row["flagged"] == (row["margin"] < 0.0), "margin row inconsistent")
        return {}
    ops.append(Op("check-14", ["check-14", "--fn", SIN, "--r0", "100",
                               "--r-list", ",".join(f"{r:g}" for r in r_list),
                               "--m-arcs", "2", "--plan", plan, "--out", "@out.json"],
                  n * len(r_list), check_14))
    return ops


# ---------------------------------------------------------------------------
# escape

def _positive_escape(total: int):
    def check(outs, run_cli):
        rep = _report(outs, total)
        _expect(rep["density"] > 0.0, "escape density is 0")
        return {"escaped": rep["hits"], "orbits": total}
    return check


def escape_round(seed: int, rnd: int) -> list[Op]:
    rng = _rng(seed, rnd, 3)
    ops = []
    n = 30_000
    dx = 0.2 * rng.random()
    window = f"{dx:.6f},{dx + 6.2832:.6f},-3,3"          # the ACCEPT-09 window, shifted
    ops.append(Op("measure-window", ["measure", "--fn", SIN, "--window", window,
                                     "--plan", f"mc:{n}:{_plan_seed(rng)}", "--r0", "2",
                                     "--out", "@out.json"], n, _positive_escape(n)))
    r = _pick(rng, (30.0, 40.0, 50.0))
    n = 40_000
    ops.append(Op("measure-annulus", ["measure", "--fn", SIN, "--annulus", f"{r:g}",
                                      "--plan", f"mc:{n}:{_plan_seed(rng)}",
                                      "--out", "@out.json"], n, _positive_escape(n)))
    w = h = 160
    dx = 0.2 * rng.random()
    window = f"{dx:.6f},{dx + 6.2832:.6f},-3,3"

    def check_map(outs, run_cli):
        blob = outs["map.pgm"]
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        _expect(blob.startswith(header), "bad PGM header")
        pix = np.frombuffer(blob[len(header):], dtype=np.uint8)
        _expect(pix.size == w * h, f"PGM has {pix.size} pixels, expected {w * h}")
        escaped = int(((pix >= 1) & (pix <= 254)).sum())
        _expect(escaped > 0, "no escaping pixel")
        return {"escaped": escaped, "orbits": w * h, "undecided": int((pix == 255).sum()),
                "pixels": w * h}
    ops.append(Op("escape-map", ["escape-map", "--fn", SIN, "--window", window,
                                 "--size", f"{w}x{h}", "--r0", "2", "--out", "@map.pgm"],
                  w * h, check_map))
    return ops


# ---------------------------------------------------------------------------
# product

PRODUCT_R = 200.0


def _product_oracle(plan_seed: int, n: int, checked: int):
    """sin(pi sqrt z)/(pi sqrt z) has zeros k^2: compare log f and f'/f at
    the first ``checked`` points of the op's plan, within the model's own
    certified tail bounds plus 1e-6. A is empty on ann(200) (|zL| ~ 22 < 64),
    so the density must be exactly 0."""
    def check(outs, run_cli):
        from crglab import cli, criteria
        rep = _report(outs, n)
        _expect(rep["hits"] == 0, f"A-density {rep['density']} on ann(200) is not 0")
        ann = criteria.AnnulusSpec(PRODUCT_R)
        zs = criteria.sample_points(ann, criteria.MonteCarloPlan(n, plan_seed))[:checked]
        model = cli.build_model(cli.parse_function_spec(PRODUCT), ann.outer * 1.55)
        log_abs, phase, valid = model.log_eval_many(zs)
        lvals, ok = model.log_derivative_many(zs)
        _expect(bool(valid.all() and ok.all()), "product evaluation flagged a guard")
        w = np.pi * np.sqrt(zs)
        f = np.sin(w) / w
        dlog = np.pi / (2.0 * np.sqrt(zs)) / np.tan(w) - 1.0 / (2.0 * zs)
        err_abs = np.abs(log_abs - np.log(np.abs(f)))
        err_arg = np.abs(np.angle(np.exp(1j * (phase - np.angle(f)))))
        tol = model.tail_bound + 1e-6
        _expect(bool((err_abs <= tol).all() and (err_arg <= tol).all()),
                f"log f off the oracle by {err_abs.max():.3g}/{err_arg.max():.3g} > {tol:.3g}")
        for z, L, ref in zip(zs, lvals, dlog):
            dtol = model.derivative_tail_bound(abs(z)) + 1e-6
            _expect(abs(L - ref) <= dtol, f"f'/f off the oracle by {abs(L - ref):.3g} > {dtol:.3g}")
        return {}
    return check


def product_round(seed: int, rnd: int) -> list[Op]:
    rng = _rng(seed, rnd, 4)
    n = 2
    plan_seed = _plan_seed(rng)
    ops = [Op("product-g0", _density_argv(PRODUCT, "A", PRODUCT_R, EXP_BETA,
                                          f"mc:{n}:{plan_seed}"),
              n, _product_oracle(plan_seed, n, 1))]
    n = 60

    def check_g1(outs, run_cli):
        _report(outs, n)
        return {}
    ops.append(Op("product-g1", _density_argv(PRODUCT_G1, "A", PRODUCT_R, EXP_BETA,
                                              f"mc:{n}:{_plan_seed(rng)}"), n, check_g1))
    return ops


# ---------------------------------------------------------------------------
# covering

def _read_disks(blob: bytes) -> list[tuple[Fraction, Fraction, Fraction]]:
    rows = []
    for line in blob.decode("ascii").splitlines():
        re_s, im_s, r_s = line.split()
        rows.append((Fraction(float(re_s)), Fraction(float(im_s)), Fraction(float(r_s))))
    _expect(len(rows) > 0 and all(r > 0 for _, _, r in rows), "empty or bad disk set")
    return rows


def _covering_argv(construction: str, *args: str) -> list[str]:
    return ["covering", construction, *args, "--out-disks", "@disks.txt",
            "--out-cert", "@cert.json"]


# Audit probes per certificate. The default of 10000 makes the pure-Python
# Halton generator the larger part of a fuchs or cartan op; 2000 leaves the
# densest-disk search in charge.
PROBES = 2000


def _fuchs_op(rng: np.random.Generator, H: float) -> Op:
    """Half the points in 4 tight clusters, half uniform in the unit square.

    The cluster centers are fixed, so that the candidate count of the first
    densest-disk search, and with it the op's peak memory, varies little
    between seeds."""
    n = 220
    centers = np.array([0.25 + 0.25j, 0.75 + 0.3j, 0.3 + 0.75j, 0.7 + 0.7j])
    k = n // 2
    pts = np.concatenate([
        centers[rng.integers(0, 4, k)]
        + 0.03 * (rng.standard_normal(k) + 1j * rng.standard_normal(k)),
        rng.random(n - k) + 1j * rng.random(n - k)])

    def check(outs, run_cli):
        disks = _read_disks(outs["disks.txt"])
        cert = json.loads(outs["cert.json"])
        _expect(sum(r * r for _, _, r in disks) <= 4 * Fraction(H) ** 2,
                "sum of squared radii exceeds 4 H^2")
        _expect(cert["n_points"] == n and cert["n_disks"] == len(disks), "certificate counts")
        _expect(cert["max_harmonic_sum"] <= cert["harmonic_bound"] * (1 + 1e-12),
                "harmonic bound violated")
        return {}
    return Op("fuchs", _covering_argv("fuchs", "--points", "@points.txt", "--H", f"{H:g}",
                                      "--probes", str(PROBES)),
              n, check, {"points.txt": _fmt_points(pts)})


def _cartan_op(rng: np.random.Generator, eta: float) -> Op:
    """Zeros area-uniform in D(0, 2), disks for R = 1."""
    n = 500
    zeros = 2.0 * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))

    def check(outs, run_cli):
        disks = _read_disks(outs["disks.txt"])
        cert = json.loads(outs["cert.json"])
        _expect(sum(r for _, _, r in disks) <= 4 * Fraction(eta) * Fraction(1.0),
                "sum of radii exceeds 4 eta R")
        _expect(cert["n_zeros"] == n and cert["n_disks"] == len(disks), "certificate counts")
        _expect(cert["min_log_g"] > cert["bound_rhs"], "minimum-modulus bound violated")
        return {}
    return Op("cartan", _covering_argv("cartan", "--zeros", "@zeros.txt", "--R", "1",
                                       "--eta", f"{eta:g}", "--probes", str(PROBES)),
              n, check, {"zeros.txt": _fmt_points(zeros)})


def _besicovitch_op(rng: np.random.Generator) -> Op:
    """Uniform points in the unit square with radii in [0.01, 0.05]."""
    n = 4000
    pts = rng.random(n) + 1j * rng.random(n)
    radii = rng.uniform(0.01, 0.05, n)

    def check(outs, run_cli):
        disks = _read_disks(outs["disks.txt"])
        cert = json.loads(outs["cert.json"])
        _expect(cert["covers_all"] is True and cert["n_selected"] == len(disks),
                "certificate claims")
        _expect(cert["max_multiplicity"] <= 256, "multiplicity above 256")
        cx = np.array([float(c) for c, _, _ in disks])
        cy = np.array([float(c) for _, c, _ in disks])
        cr = np.array([float(r) for _, _, r in disks])
        slack = np.hypot(pts.real[:, None] - cx, pts.imag[:, None] - cy) - cr
        best = slack.argmin(axis=1)
        # a point clearly inside its best disk in floats is covered; the
        # others are decided in exact arithmetic
        for i in np.flatnonzero(slack[np.arange(n), best] > -1e-9):
            x, y, r = disks[best[i]]
            p = pts[i]
            _expect((Fraction(p.real) - x) ** 2 + (Fraction(p.imag) - y) ** 2 <= r * r,
                    f"point {p} is not covered")
        return {}
    return Op("besicovitch", _covering_argv("besicovitch", "--points", "@points.txt",
                                            "--radii", "@radii.txt"),
              n, check, {"points.txt": _fmt_points(pts),
                         "radii.txt": "".join(f"{r:.17g}\n" for r in radii)})


def covering_round(seed: int, rnd: int) -> list[Op]:
    # H and eta stay fixed: cycling them would give the slowest ninth of the
    # ops a cost of their own, and the tail percentile would jump between it
    # and the next group from run to run
    rng = _rng(seed, rnd, 5)
    return [_fuchs_op(rng, 0.2), _cartan_op(rng, 0.06), _besicovitch_op(rng)]


WORKLOADS = {w.name: w for w in (
    Workload("density-A", density_a_round,
             ((EXP, 1550.0), (SIN, 1395.0), (POLY, 1550.0)), ("exp-power", "growth-scale")),
    Workload("density-B", density_b_round,
             ((SIN, 6200.0), (EXP, 1550.0)), ("exp-power", "growth-scale")),
    Workload("escape", escape_round,
             ((SIN, 1.0),), ("growth-scale",)),
    Workload("product", product_round,
             ((PRODUCT, 620.0), (PRODUCT_G1, 620.0)), ("exp-power",)),
    Workload("covering", covering_round, (), ()),
)}
