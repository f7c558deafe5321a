"""Analytic identities: Schwarz reconstruction of f'/f, the directional
asymptotic Re(z f'/f) ~ rho h(theta) V(r), and the ray-distributed-zero
kernel integral with its closed form.
"""

from __future__ import annotations

import math
from cmath import exp as cmath_exp
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BandViolation,
    BranchViolation,
    HypothesisFailure,
    NonConvergent,
    OverflowUnrepresentable,
    SectorViolation,
    ZeroInDisk,
    require_positive,
)
from .growth import EpsilonCascade, angle_grid, scale_V
from .models import CanonicalProduct, ExponentialSum, FunctionModel, log_derivative

_TWO_PI = 2.0 * math.pi


def schwarz_log_derivative(model: FunctionModel, z: complex, t_r: float,
                           node_count: int = 256) -> complex:
    """Reconstruct L(z) = f'(z)/f(z) from boundary values of log|f|.

    Uses the Schwarz-formula identity
        L(z) = (1 / pi t) * integral of log|f(z + t e^{i phi})| e^{-i phi} dphi,
    valid when f is zero-free on the closed disk of radius t around z. The
    zero-free hypothesis is certified by an argument-principle count on the
    circle; spectral accuracy of the periodic trapezoid rule is certified by
    node doubling.

    The radius t_r must be positive and finite, and the node count m a power
    of two, at least 16. One pass evaluates log|f| and L on the 2m equispaced
    nodes z + t_r e^{i phi}. Its even nodes are the m-node circle bit for
    bit: the winding number and the m-node sum read them, and the 2m-node
    sum reads all. A node where f or f'/f leaves the float range, or a sum
    that does, raises OverflowUnrepresentable; only a near-zero of f raises
    ZeroInDisk. Every comparison is written so that NaN fails it.
    """
    z, t_r, m = complex(z), float(t_r), int(node_count)
    require_positive("radius", t_r)
    if m < 16 or (m & (m - 1)) != 0:
        raise ValueError("node_count must be a power of two, at least 16")
    phis = angle_grid(2 * m)
    log_abs, valid, lvals, ok = model.log_abs_and_derivative_many(
        z + t_r * np.exp(1j * phis))
    circle = f"the quadrature circle |z - {z}| = {t_r:g}"
    if np.isposinf(log_abs).any():
        raise OverflowUnrepresentable(f"f leaves the float range on {circle}")
    if not ok[::2].all():
        raise ZeroInDisk("zero of f on or next to the quadrature circle")
    if not np.isfinite(lvals[::2]).all():
        raise OverflowUnrepresentable(f"f'/f leaves the float range on {circle}")
    # (1/2 pi i) oint L dz by the periodic trapezoid rule on the even nodes
    winding = t_r / m * np.sum(lvals[::2] * np.exp(1j * phis[::2]))
    if not np.isfinite(winding):
        raise OverflowUnrepresentable(
            f"the argument-principle sum leaves the float range on {circle}")
    if not abs(winding) <= 0.25:
        raise ZeroInDisk(
            f"argument-principle count {winding:.3f} != 0 on D({z}, {t_r})")
    if not valid.all():
        raise ZeroInDisk("zero hit on the quadrature circle")
    coarse = complex(2.0 / (m * t_r) * np.sum(log_abs[::2] * np.exp(-1j * phis[::2])))
    fine = complex(2.0 / (2 * m * t_r) * np.sum(log_abs * np.exp(-1j * phis)))
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        raise OverflowUnrepresentable(
            f"the Schwarz quadrature sum leaves the float range on {circle}")
    scale = max(abs(fine), 1e-30)
    if not abs(fine - coarse) <= 1e-6 * scale:
        raise NonConvergent(
            f"Schwarz quadrature changed by {abs(fine - coarse) / scale:.2e} "
            "under node doubling")
    return coarse


@dataclass(frozen=True)
class DirectionalSample:
    """One sample of the asymptotic Re(z L(z)) = rho h(theta) V(r) + O(V eps2)."""

    r: float
    theta: float
    re_zl: float
    predicted: float
    residual: float   # (re_zl - predicted) / (V(r) * eps2(r))


def check_8l(model: ExponentialSum, cascade: EpsilonCascade,
             samples: Sequence[tuple[float, float]]) -> list[DirectionalSample]:
    """Residuals of Re(z f'/f) against rho*h(theta)*V(r) in eps2 units, with
    rho and h the order and exact indicator of an exponential sum (any other
    model raises ValueError).

    Every sample must keep angular distance >= 3*eps2(r) from all indicator
    breakpoints (the sector domain of validity); otherwise SectorViolation.
    """
    if not isinstance(model, ExponentialSum):
        raise ValueError(f"{type(model).__name__} is not an exponential sum")
    ind = model.exact_indicator()
    out = []
    breaks = ind.breakpoints
    for r, theta in samples:
        e2 = cascade.eps2(r)
        dist = min(abs(math.remainder(theta - tb, _TWO_PI)) for tb in breaks)
        if dist < 3.0 * e2:
            raise SectorViolation(
                f"theta = {theta:g} is {dist:.3g} < 3*eps2 = {3 * e2:.3g} "
                f"from a breakpoint at r = {r:g}")
        z = r * complex(math.cos(theta), math.sin(theta))
        re_zl = (z * log_derivative(model, z)).real
        v = scale_V(model.order, r)
        predicted = model.order * ind.h(theta) * v
        out.append(DirectionalSample(r, theta, re_zl, predicted,
                                     (re_zl - predicted) / (v * e2)))
    return out


@dataclass(frozen=True)
class KernelIntegralResult:
    quadrature: complex
    closed_form: complex

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.closed_form), 1e-300)
        return abs(self.quadrature - self.closed_form) / scale


def kernel_integral_I(rho_at_r: float, p: int, z: complex) -> KernelIntegralResult:
    """I(z) = integral_0^inf t^rho / (t^{p+1} (t - z)) dt, two independent ways.

    Requires p < rho < p+1 and 0 < arg z < 2 pi. The quadrature route
    substitutes t = |z| e^u (which splits the range at t = |z| and tames both
    endpoints exponentially); the closed form is
        -pi e^{-i pi (rho - p)} / sin(pi (rho - p)) * z^{rho - p - 1}
    on the branch 0 < arg z < 2 pi. Raises NonConvergent if the two routes
    disagree beyond 1e-7 relative.
    """
    from scipy.integrate import quad   # the only scipy user; kept off import

    lam = rho_at_r - p
    if not (0.0 < lam < 1.0):
        raise ValueError(f"need p < rho(r) < p+1, got rho={rho_at_r}, p={p}")
    if z == 0:
        raise BranchViolation("z = 0 is outside the branch domain")
    theta = math.atan2(z.imag, z.real)
    if theta <= 0.0:
        theta += _TWO_PI
    if not (0.0 < theta < _TWO_PI):
        raise BranchViolation(f"arg z = {theta:g} not in (0, 2*pi)")
    radius = abs(z)

    # closed form, powers on the branch 0 < arg z < 2 pi
    log_z = complex(math.log(radius), theta)
    closed = (-math.pi * np.exp(-1j * math.pi * lam) / math.sin(math.pi * lam)
              * np.exp((lam - 1.0) * log_z))

    # quadrature of R^{lam-1} * e^{u lam} / (e^u - e^{i theta}) over u in R;
    # each half-line uses the algebraic form whose exponentials stay <= 1
    eitheta = complex(math.cos(theta), math.sin(theta))

    def integrand(u: float) -> complex:
        if u >= 0.0:
            return cmath_exp((lam - 1.0) * u) / (1.0 - eitheta * math.exp(-u))
        return cmath_exp(lam * u) / (math.exp(u) - eitheta)

    pieces = []
    for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)):
        re_val, _ = quad(lambda u: integrand(u).real, lo, hi,
                         epsabs=1e-10, epsrel=1e-12, limit=400)
        im_val, _ = quad(lambda u: integrand(u).imag, lo, hi,
                         epsabs=1e-10, epsrel=1e-12, limit=400)
        pieces.append(complex(re_val, im_val))
    quadrature = radius ** (lam - 1.0) * (pieces[0] + pieces[1])

    result = KernelIntegralResult(complex(quadrature), complex(closed))
    if result.rel_diff > 1e-7:
        raise NonConvergent(
            f"kernel integral routes disagree: {result.rel_diff:.2e} relative")
    return result


@dataclass(frozen=True)
class CRGComparison:
    """Measured vs predicted log-modulus for a ray-distributed product.

    ``normalized_residual`` is (measured - predicted)/V(r); ``eps_residual``
    rescales by the theoretical error unit eps(r)**(1/4).
    """

    r: float
    theta: float
    measured: float
    predicted: float
    normalized_residual: float
    eps_residual: float


def verify_crg_ray_product(product: CanonicalProduct, c: float,
                           cascade: EpsilonCascade,
                           samples: Sequence[tuple[float, float]],
                           declared_constant: float = 1.0) -> list[CRGComparison]:
    """Compare log|f(r e^{i theta})| with c*pi*cos((theta-pi)rho)/sin(pi rho) * V(r),
    rho the product's order and V(r) = r**rho.

    Preconditions enforced per sample: theta inside the band
    sqrt(eps(r)) <= theta <= 2pi - sqrt(eps(r)) (else BandViolation), zeros on
    the positive ray within the angular envelope, and the counting hypothesis
    |n(r,0) - c*V(r)| <= declared_constant * eps(r) * V(r) (else
    HypothesisFailure), and no sample on a zero (else ZeroInDisk), checked
    sample by sample in that order. A model that is not a canonical product,
    a product without an exact indicator, a c or declared_constant that is
    not positive and finite, and a sample beyond the product's r_max raise
    ValueError before any sample is checked. All samples are evaluated in
    one call.
    """
    if not isinstance(product, CanonicalProduct):
        raise ValueError(f"{type(product).__name__} is not a canonical product")
    rho = product.exact_indicator().rho
    require_positive("c", c)
    require_positive("declared_constant", declared_constant)
    angle = product.rule.angle
    if angle != 0.0:
        lim = cascade.eps1(product.rule.modulus(product.cutoff))
        if abs(angle) > lim:
            raise HypothesisFailure(
                f"zero ray angle {angle:g} exceeds the envelope eps = {lim:g}")
    zs = np.array([r * complex(math.cos(theta), math.sin(theta)) for r, theta in samples])
    log_abs, _, valid = product.log_eval_many(zs)
    out = []
    for (r, theta), z, measured, ok in zip(samples, zs, log_abs.tolist(), valid):
        eps = cascade.eps1(r)
        half_band = math.sqrt(eps)
        if not (half_band <= theta <= _TWO_PI - half_band):
            raise BandViolation(
                f"theta = {theta:g} outside [{half_band:g}, {_TWO_PI - half_band:g}]")
        v = scale_V(rho, r)
        n_r = product.counting_function(r)
        if abs(n_r - c * v) > declared_constant * eps * v:
            raise HypothesisFailure(
                f"counting deviation |{n_r} - {c * v:.6g}| exceeds "
                f"{declared_constant:g} * eps * V at r = {r:g}")
        predicted = (c * math.pi * math.cos((theta - math.pi) * rho)
                     / math.sin(math.pi * rho) * v)
        if not ok:
            raise ZeroInDisk(f"sample point {complex(z)} hit a zero of the product")
        resid = (measured - predicted) / v
        out.append(CRGComparison(r, theta, measured, predicted, resid,
                                 resid / eps ** 0.25))
    return out
