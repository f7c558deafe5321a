"""Batch membership tests for the escape-criteria sets A and B, region
sampling, and Lebesgue density estimation over annuli and windows.

A point belongs to A when Re(z f'(z)/f(z)) > 64 and |f(z)| > beta(|z|); it
belongs to B when additionally Re(zeta f'(zeta)/f(zeta)) > 0 throughout the
protective disk |zeta - z| < 32 |f(z)/f'(z)|. Where one term of an
exponential sum dominates the disk, a closed-form bound proves the disk
condition (the model's ``disk_re_zl_lower_bound``). Every other disk is
tested by structured sampling at one fixed pattern (16 points on each of 8
concentric circles plus the center), and there a B verdict is a sampling
certificate, never a proof. The bound accepts only disks that the samples
accept too, so the verdicts are those of sampling alone.

Sampling is deterministic: Monte Carlo draws come from a counter-based Philox
stream keyed by the seed, so the sample at index i is a function of
(seed, n, i) for a plan of n samples. ``sweep`` is the one way a region is
sampled: the uniforms (or grid indices) are drawn serially before the work
is split into chunks; each chunk then places its own points by elementwise
arithmetic, so sample i has the same bits, and results are bit-identical,
for any CRG_THREADS. ``annulus_density`` counts through it for the A and B
densities and for the escape density of ``dynamics.measure_estimate``, and
``dynamics.escape_map`` draws its raster through it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import require_positive
from .growth import GrowthMinorant, angle_grid
from .models import FunctionModel
from .parallel import map_chunked

if TYPE_CHECKING:
    from .covering import DiskSet

# thresholds defining the escape-criteria sets A and B
A_THRESHOLD = 64.0
B_RADIUS_FACTOR = 32.0


@dataclass(frozen=True)
class AnnulusSpec:
    """The annulus r/2 < |z| < 2r, for an r > 0 whose ``reach`` 3.1 r is
    finite, so that every sample and every B disk point is a float."""

    r: float

    def __post_init__(self) -> None:
        require_positive("annulus radius", self.r)
        if not math.isfinite(self.reach):
            raise ValueError(f"annulus radius {self.r:g} puts the reach 3.1 r "
                             "of its B disks past the float range")

    @property
    def inner(self) -> float:
        return self.r / 2.0

    @property
    def outer(self) -> float:
        return 2.0 * self.r

    @property
    def reach(self) -> float:
        """Radius out to which the B test evaluates f on this annulus."""
        # Re(zL) > 64 keeps each B disk within 1.5|z| <= 3r of 0
        return 3.1 * self.r

    def region_dict(self) -> dict:
        return {"kind": "annulus", "r": self.r}


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self) -> None:
        bounds = (self.x0, self.x1, self.y0, self.y1)
        if not (all(map(math.isfinite, bounds))
                and self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"window must be finite and nondegenerate, got {bounds}")

    def region_dict(self) -> dict:
        return {"kind": "window", "x0": self.x0, "x1": self.x1,
                "y0": self.y0, "y1": self.y1}


Region = AnnulusSpec | Window


@dataclass(frozen=True)
class GridPlan:
    """Deterministic cell-center sampling; cells are equal-measure.

    On an annulus the axes are (n1 = angular, n2 = radial) with equal-area
    radial bins; on a window they are (n1 = x, n2 = y) pixel centers in
    raster order, rows counted from the top edge y1 downward, so that the
    window grid of ``escape_map`` is this plan.
    """

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("grid plan needs positive dimensions")

    @property
    def total(self) -> int:
        return self.n1 * self.n2

    def plan_dict(self) -> dict:
        return {"kind": "grid", "n1": self.n1, "n2": self.n2}


@dataclass(frozen=True)
class MonteCarloPlan:
    """Area-uniform seeded sampling with a normal-approximation interval."""

    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample count must be positive")

    @property
    def total(self) -> int:
        return self.n

    def plan_dict(self) -> dict:
        return {"kind": "monte-carlo", "n": self.n, "seed": self.seed}


SamplePlan = GridPlan | MonteCarloPlan


def sample_points(region: Region, plan: SamplePlan) -> np.ndarray:
    """Deterministic sample locations for the plan, area-uniform in measure."""
    return _place(region, plan, _draws(plan))


def _draws(plan: SamplePlan) -> np.ndarray:
    """The serial part of sampling, one row per sample: the flat cell index
    of a grid plan, or the (u, v) uniform pair of a Monte Carlo plan, a view
    of the 2 x n Philox block whose entry (d, i) is draw d*n + i of the
    seed's stream, so that it depends on n as well as on (seed, d, i)."""
    if isinstance(plan, GridPlan):
        return np.arange(plan.total)
    return np.random.Generator(np.random.Philox(key=plan.seed)).random((2, plan.n)).T


def _place(region: Region, plan: SamplePlan, draws: np.ndarray) -> np.ndarray:
    """Sample locations of ``draws``, elementwise, so that any slice of the
    draws places to the same slice of the samples.

    A grid index k is cell (j, i) = divmod(k, n1); on a window, row j = 0 is
    the top one. Monte Carlo on the annulus inverts the radial area CDF:
    s = r * sqrt(1/4 + 15/4 * u) maps u ~ U[0,1) to |z| with uniform area.
    """
    if isinstance(plan, GridPlan):
        j, i = np.divmod(draws, plan.n1)
        if isinstance(region, AnnulusSpec):
            thetas = (i + 0.5) * (math.tau / plan.n1)
            s = region.r * np.sqrt(0.25 + 3.75 * (j + 0.5) / plan.n2)
            return s * np.exp(1j * thetas)
        x = region.x0 + (i + 0.5) * (region.x1 - region.x0) / plan.n1
        y = region.y1 - (j + 0.5) * (region.y1 - region.y0) / plan.n2
        return x + 1j * y
    u, v = draws[:, 0], draws[:, 1]
    if isinstance(region, AnnulusSpec):
        s = region.r * np.sqrt(0.25 + 3.75 * u)
        return s * np.exp(1j * math.tau * v)
    return (region.x0 + u * (region.x1 - region.x0)
            + 1j * (region.y0 + v * (region.y1 - region.y0)))


@dataclass(frozen=True)
class DensityReport:
    """dens(X, region) estimate with its sampling provenance."""

    region: dict
    plan: dict
    hits: int
    total: int
    density: float
    confidence_halfwidth: float
    excluded_fraction: float | None = None
    fast_escaping_beta: bool | None = None

    def to_json_dict(self) -> dict:
        """The fields in declaration order, unset optional ones left out."""
        return {"format_version": 1,
                **{k: v for k, v in asdict(self).items() if v is not None}}


class VerdictsA(NamedTuple):
    """The A test at each point of an array, elementwise."""

    in_A: np.ndarray         # bool
    re_zl: np.ndarray        # Re(z L(z)), -inf where L is undefined
    margin: np.ndarray       # log|f(z)| - log beta(|z|), -inf where log f is invalid
    L: np.ndarray            # f'/f, reused by the B test
    l_ok: np.ndarray         # bool, L defined


class VerdictsB(NamedTuple):
    """The B test at each point of an array, elementwise.

    ``min_disk_re`` is the closed-form lower bound of Re(zeta L) on the disk
    where that bound is > 0 and decides it; elsewhere it is the minimum over
    16 points on each of 8 concentric circles plus the center, a sampling
    certificate. Points outside A get ``in_B`` False and ``min_disk_re`` -inf.
    """

    in_B: np.ndarray         # bool
    min_disk_re: np.ndarray  # the bound, or min Re(zeta L(zeta)) over the disk samples
    disk_radius: np.ndarray  # 32/|L(z)|, inf where L is undefined or 0


def membership_A(model: FunctionModel, beta: GrowthMinorant,
                 zs: np.ndarray) -> VerdictsA:
    """Strict log-space test: Re(z L(z)) > 64 and log|f(z)| > log beta(|z|),
    from one fused evaluation of log|f| and f'/f per point."""
    log_abs, ok, lvals, l_ok = model.log_abs_and_derivative_many(zs)
    re_zl = np.where(l_ok, (zs * lvals).real, -np.inf)
    log_beta = beta.log_beta_many(np.abs(zs))
    margin = np.where(ok, log_abs - log_beta, -np.inf)
    in_a = ok & l_ok & (re_zl > A_THRESHOLD) & (margin > 0.0)
    return VerdictsA(in_a, re_zl, margin, lvals, l_ok)


# unit-disk sample pattern: the center plus 16 points on each circle of radius j/8
_DISK_OFFSETS = np.concatenate([[0.0 + 0.0j], (
    np.arange(1, 9)[:, None] / 8.0 * np.exp(1j * angle_grid(16))).ravel()])


def membership_B(model: FunctionModel, zs: np.ndarray, a: VerdictsA) -> VerdictsB:
    """Positivity of Re(zeta L(zeta)) on the disk of radius
    32 |f(z)/f'(z)| = 32/|L(z)| about each A-member of ``zs``, where ``a`` is
    ``membership_A`` at ``zs``.

    Each disk is first given the model's closed-form lower bound
    (``disk_re_zl_lower_bound``); a disk whose bound is > 0 is in B. The
    other disks are sampled at the centre and at 16 points on each of 8
    circles, and a near-zero of f at any sample point refutes positivity.

    The bound decides no disk differently from the samples. Where it is
    > 0, one term T_j dominates the disk with sum_(k != j) |T_k/T_j| <= 1/2,
    so |S| >= max_k |term of S| / 2 at every sample point and the 1e-6
    near-zero guard cannot fire. The bound lies below Re(zeta L) by at least
    its slack, 1e-9 |zeta| (|b_j| + delta), far more than the rounding of a
    sampled Re(zeta L), so every sample reads > 0 in floats too.
    """
    # only A-members need the disk certificate; for them Re(zL) > 64 forces
    # the disk radius 32/|L| below |z|/2, keeping samples near the annulus
    with np.errstate(divide="ignore"):
        radius = np.where(a.l_ok & (np.abs(a.L) > 0),
                          B_RADIUS_FACTOR / np.abs(a.L), np.inf)
    min_re = np.full(zs.shape, -np.inf)
    idx = np.flatnonzero(a.in_A)
    low = model.disk_re_zl_lower_bound(zs[idx], radius[idx])
    undecided = np.flatnonzero(~(low > 0.0))
    if undecided.size:
        centers, radii = zs[idx[undecided]], radius[idx[undecided]]
        sampled = np.full(undecided.shape, np.inf)
        for off in _DISK_OFFSETS:   # O(k) memory per call
            pts = centers + radii * off
            lvals_d, ok_d = model.log_derivative_many(pts)
            sampled = np.minimum(sampled, np.where(ok_d, (pts * lvals_d).real, -np.inf))
        low[undecided] = sampled
    min_re[idx] = low
    return VerdictsB(a.in_A & (min_re > 0.0), min_re, radius)


def predicate_A(model: FunctionModel,
                beta: GrowthMinorant) -> Callable[[np.ndarray], np.ndarray]:
    """The A mask of ``membership_A`` as a predicate for density estimation."""
    def pred(zs: np.ndarray) -> np.ndarray:
        return membership_A(model, beta, zs).in_A
    return pred


def predicate_B(model: FunctionModel,
                beta: GrowthMinorant) -> Callable[[np.ndarray], np.ndarray]:
    """The B mask of ``membership_B`` as a predicate for density estimation."""
    def pred(zs: np.ndarray) -> np.ndarray:
        return membership_B(model, zs, membership_A(model, beta, zs)).in_B
    return pred


def sweep(fn: Callable[[np.ndarray], np.ndarray], region: Region,
          plan: SamplePlan) -> np.ndarray:
    """``fn`` at every sample of the plan, in sample order.

    The draws are made serially; each chunk of them is placed and handed to
    ``fn`` in a worker. ``fn`` must be elementwise (row i of its result
    depends only on sample i), so the result has the same bits for any
    CRG_THREADS.
    """
    return map_chunked(lambda draws: fn(_place(region, plan, draws)), _draws(plan))


def annulus_density(predicate: Callable[[np.ndarray], np.ndarray],
                    region: Region, plan: SamplePlan,
                    exclude: DiskSet | None = None) -> DensityReport:
    """Density of predicate-true samples under the deterministic plan.

    ``predicate`` receives a complex array and returns a boolean mask; the
    worker parallelism level never changes which samples are drawn. With
    ``exclude``, a sample inside one of its disks is not a hit, and the
    report records the sampled area fraction of the excluded union for
    budget comparisons. A Monte Carlo plan gives a 95% normal-approximation
    half-width, a grid plan 0.
    """
    def count(zs: np.ndarray) -> np.ndarray:
        hit = predicate(zs)
        outside = (np.ones(zs.shape, dtype=bool) if exclude is None
                   else exclude.mask_outside(zs))
        return np.stack([hit & outside, outside], axis=1)

    n = plan.total
    packed = sweep(count, region, plan)
    excluded = None
    if exclude is not None:
        excluded = 1.0 - float(packed[:, 1].sum()) / n
    hits = int(packed[:, 0].sum())
    density = hits / n
    half = 0.0
    if isinstance(plan, MonteCarloPlan):
        half = 1.96 * math.sqrt(max(density * (1.0 - density), 0.0) / n)
    return DensityReport(region.region_dict(), plan.plan_dict(), hits, n,
                         density, half, excluded)
