"""Growth scales: proximate orders, the epsilon cascade, indicators,
growth minorants and density budgets.

Log-domain evaluation is first-class throughout: a minorant exposes
``log_beta_of_log`` (log beta(r) as a function of log r) so that iterates
beta^n(r0) can be followed far beyond the floating-point range, and a
density budget exposes the matching ``alpha_of_log``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BelowThreshold, OverflowUnrepresentable, ZeroHit,
                     require_increasing, require_positive)
from .models import CanonicalProduct, ExponentialSum, FunctionModel

_TWO_PI = 2.0 * math.pi

# log values above this are collapsed to the +inf sentinel when iterating
# a minorant; exp() of anything near it is unrepresentable anyway.
LOG_SENTINEL = 1e300


# ---------------------------------------------------------------------------
# proximate orders

@dataclass(frozen=True)
class ProximateOrder:
    """rho(r) -> rho with rho'(r) r log r -> 0; V(r) = r**rho(r).

    ``rho_of_log`` evaluates rho at r = exp(l), so log-domain work never
    forms r itself; ``rho_of_r`` is defined through it. It must accept a
    numpy array of l and return rho elementwise (a scalar that broadcasts
    against l is allowed), because minorants evaluate it on whole sample
    batches.
    """

    rho_limit: float
    rho_of_log: Callable[[np.ndarray], np.ndarray | float]
    description: str = ""

    def rho_of_r(self, r: float) -> float:
        return float(self.rho_of_log(math.log(r)))

    @staticmethod
    def constant(rho: float) -> "ProximateOrder":
        require_positive("order rho", rho)
        return ProximateOrder(
            rho_limit=rho,
            rho_of_log=lambda l: rho,
            description=f"constant rho = {rho:g}")


def scale_V(po: ProximateOrder, r: float) -> float:
    """V(r) = r**rho(r)."""
    require_positive("r", r)
    return math.exp(po.rho_of_r(r) * math.log(r))


# ---------------------------------------------------------------------------
# epsilon cascade

def _iterated_log(x: np.ndarray, n: int) -> np.ndarray:
    """log applied n times elementwise; a nonpositive stage gives -inf."""
    with np.errstate(divide="ignore"):
        for _ in range(n):
            x = np.log(np.maximum(x, 0.0))
    return x


@dataclass(frozen=True)
class EpsilonCascade:
    """eps1 = 1/log^N(r) with eps2 = sqrt(eps1), eps3 = sqrt(eps2).

    Below the floor exp^N(1) every level is clamped to 1. eps3 is the
    computational primitive and the larger levels are its squares, so the
    identities eps1 = eps2**2 = (eps3**2)**2 hold bit-exactly (eps1 then
    matches 1/log^N(r) to within two roundings).
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be a positive integer")

    def eps3_from_log(self, log_r: np.ndarray) -> np.ndarray:
        """eps3 evaluated elementwise from l = log r (l may exceed the float
        range of r; l = inf gives 0)."""
        v = _iterated_log(log_r, self.N - 1)
        return np.where(v > 1.0, np.maximum(v, 1.0) ** -0.25, 1.0)

    def eps2_from_log(self, log_r: np.ndarray) -> np.ndarray:
        e3 = self.eps3_from_log(log_r)
        return e3 * e3

    def eps1_from_log(self, log_r: np.ndarray) -> np.ndarray:
        e2 = self.eps2_from_log(log_r)
        return e2 * e2

    def eps1(self, r: float) -> float:
        return float(self.eps1_from_log(_iterated_log(r, 1)))

    def eps2(self, r: float) -> float:
        return float(self.eps2_from_log(_iterated_log(r, 1)))


# ---------------------------------------------------------------------------
# indicators

def angle_grid(n: int) -> np.ndarray:
    """The n angles 2 pi k / n, k = 0..n-1."""
    if n < 1:
        raise ValueError(f"need at least one angle, got {n}")
    return np.arange(n) * (_TWO_PI / n)


@dataclass(frozen=True)
class SinusoidArc:
    """h(theta) = amplitude * cos(rho*theta + phase) on [theta_lo, theta_hi]."""

    theta_lo: float
    theta_hi: float
    amplitude: float
    phase: float


@dataclass(frozen=True)
class ExactIndicator:
    """Piecewise-sinusoid indicator; arcs partition one full turn."""

    arcs: tuple[SinusoidArc, ...]
    rho: float = 1.0

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(a.theta_lo for a in self.arcs) + (self.arcs[-1].theta_hi,)

    def h(self, theta: float | np.ndarray) -> float | np.ndarray:
        """h elementwise; a scalar theta gives a float."""
        lo = self.arcs[0].theta_lo
        t = lo + np.mod(np.asarray(theta, dtype=float) - lo, _TWO_PI)
        # the first arc ending at or past t (1e-15 slack), else the last
        ends = np.array([a.theta_hi for a in self.arcs]) + 1e-15
        j = np.minimum(np.searchsorted(ends, t), len(self.arcs) - 1)
        amp, phase = np.array([(a.amplitude, a.phase) for a in self.arcs]).T[:, j]
        out = amp * np.cos(self.rho * t + phase)
        return out if out.ndim else float(out)


def _hull_ccw(points: list[complex]) -> list[complex]:
    """Convex-hull vertices in counter-clockwise order (Andrew's monotone
    chain); points inside the hull or on an edge are not vertices."""
    pts = sorted(set(points), key=lambda p: (p.real, p.imag))
    if len(pts) < 3:
        return pts

    def chain(seq: list[complex]) -> list[complex]:
        out: list[complex] = []
        for p in seq:
            # pop out[-1] unless out[-2] -> out[-1] -> p turns left by more
            # than 1e-12 rad: smaller turns are rounding noise of collinear
            # exponents. The angle, not its sine, is cut, so the hairpins
            # that noise makes on a nearly vertical line (left turns of
            # nearly pi) keep their vertex.
            while len(out) >= 2:
                c = (out[-1] - out[-2]).conjugate() * (p - out[-1])
                if math.atan2(c.imag, c.real) > 1e-12:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def indicator_exact_expsum(f) -> ExactIndicator:
    """h(theta) = max_k |b_k| cos(theta + arg b_k) for an exponential sum.

    h(theta) = max_k Re(b_k e^{i theta}) is the support function of the
    indicator diagram, the convex hull of {conj b_k} (B. Ya. Levin,
    *Distribution of Zeros of Entire Functions*, ch. I). The hull vertices,
    taken counter-clockwise, win in turn; the outward normal angle of the
    edge entering a vertex starts its arc and its exterior angle is the arc
    width, so the breakpoints are exact.
    Each arc carries (A_j, phi_j) = (|b_k|, arg b_k) of its exponent.
    """
    if not isinstance(f, ExponentialSum):
        raise ValueError(f"{type(f).__name__} is not an exponential sum")
    verts = _hull_ccw([b.conjugate() for b in f.exponents()])
    # edges[j] enters vertex j; the outward normal of an edge d points at
    # angle atan2(-d.real, d.imag), and a single vertex gives d = 0 and the
    # one arc [0, 2 pi]
    edges = [v - u for u, v in zip(verts[-1:] + verts[:-1], verts)]
    starts = [math.atan2(-edges[0].real, edges[0].imag) % _TWO_PI]
    for d_in, d_out in zip(edges, edges[1:]):
        # the arc of a vertex is its exterior angle, in [0, pi]; adding
        # these keeps the arcs in hull order even where rounding would swap
        # two nearly equal normal angles
        c = d_in.conjugate() * d_out
        starts.append(min(starts[-1] + math.atan2(abs(c.imag), c.real),
                          starts[0] + _TWO_PI))
    # the arcs past 2 pi, a suffix, wrap round to the front
    k = sum(t < _TWO_PI for t in starts)
    order = [*range(k, len(verts)), *range(k)]
    lo = [starts[j] - _TWO_PI if j >= k else starts[j] for j in order]
    hi = lo[1:] + [lo[0] + _TWO_PI]
    arcs = []
    for j, t0, t1 in zip(order, lo, hi):
        if t1 > t0:  # a vertex whose exterior angle rounds to 0 wins nowhere
            b = verts[j].conjugate()
            arcs.append(SinusoidArc(t0, t1, abs(b), math.atan2(b.imag, b.real)))
    return ExactIndicator(arcs=tuple(arcs), rho=1.0)


def canonical_ray_order(product: CanonicalProduct) -> float:
    """rho = 1/e for zeros |a_k| = scale * k**e on one ray. ValueError where
    the ray indicator does not apply: a model that is not a canonical
    product, rho within 1e-9 of an integer, or a genus other than floor(rho)
    (a larger one multiplies f by exp(z sum 1/a_k), of order 1)."""
    if not isinstance(product, CanonicalProduct):
        raise ValueError(f"{type(product).__name__} is not a canonical product")
    rho = 1.0 / product.rule.exponent
    if abs(rho - round(rho)) <= 1e-9:
        raise ValueError(f"order rho = {rho:g} is an integer")
    if product.genus != math.floor(rho):
        raise ValueError(f"genus {product.genus} is not the canonical genus "
                         f"{math.floor(rho)} of order rho = {rho:g}")
    return rho


def indicator_exact_product(product: CanonicalProduct) -> ExactIndicator:
    """h(theta) = c pi cos(rho (theta - theta0 - pi)) / sin(pi rho) on the one
    arc [theta0, theta0 + 2 pi), for zeros on the ray of angle theta0 with
    density c = scale**(-rho) (B. Ya. Levin, *Distribution of Zeros of
    Entire Functions*, ch. I-II)."""
    rho = canonical_ray_order(product)
    rule = product.rule
    arc = SinusoidArc(rule.angle, rule.angle + _TWO_PI,
                      math.pi * rule.scale ** -rho / math.sin(math.pi * rho),
                      -rho * (rule.angle + math.pi))
    return ExactIndicator(arcs=(arc,), rho=rho)


def _log_moduli(model: FunctionModel, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|f|, valid) at zs. A model reports log|f| = +inf, valid, where
    its sum overflowed: an orbit there has escaped, but a growth value would
    be wrong, so it raises OverflowUnrepresentable."""
    log_abs, _, ok = model.log_eval_many(zs)
    blown = ok & (log_abs == np.inf)
    if blown.any():
        raise OverflowUnrepresentable(
            f"log|f| is not representable at z = {complex(zs[blown][0])}")
    return log_abs, ok


def indicator_empirical(model: FunctionModel, po: ProximateOrder,
                        theta_grid: Sequence[float],
                        radii: Sequence[float]) -> np.ndarray:
    """The finite-radius proxy for h at each theta of the grid: the max over
    the radius ladder of log|f(r e^{i theta})| / V(r).

    Zero-hit samples are skipped; a theta with every radius on a zero raises
    ZeroHit, and a log-modulus past the float range OverflowUnrepresentable.
    """
    radii = require_increasing("radius ladder", radii, at_least=3)
    thetas = np.asarray(list(theta_grid), dtype=float)
    vs = np.array([scale_V(po, r) for r in radii])
    best = np.full(thetas.shape, -np.inf)
    any_ok = np.zeros(thetas.shape, dtype=bool)
    for r, v in zip(radii, vs):
        log_abs, ok = _log_moduli(model, r * np.exp(1j * thetas))
        cand = np.where(ok, log_abs / v, -np.inf)
        best = np.maximum(best, cand)
        any_ok |= ok
    if not any_ok.all():
        bad = thetas[~any_ok]
        raise ZeroHit(f"all radii hit zeros at theta = {bad[:3]}")
    return best


# ---------------------------------------------------------------------------
# growth minorants and density budgets

@dataclass(frozen=True)
class GrowthMinorant:
    """Continuous increasing beta with beta(x) > x for x > threshold_x0.

    ``log_beta_of_log`` maps l = log r to log beta(r), so iterates can be
    followed far beyond the float range of r itself. It must accept a numpy
    array of l and return log beta elementwise with the same shape, so that
    a whole sample batch costs one call. ``fast_escaping_form`` marks
    minorants of the shape exp(r^mu-or-larger), for which escape upgrades
    to the fast-escaping regime.
    """

    threshold_x0: float
    log_beta_of_log: Callable[[np.ndarray], np.ndarray]
    description: str
    fast_escaping_form: bool = False

    def log_beta_many(self, rs: np.ndarray) -> np.ndarray:
        rs = np.asarray(rs, dtype=float)
        if not (rs > 0).all():   # NaN fails too; +inf is a valid radius here
            raise ValueError("r must be positive")
        return self.log_beta_of_log(np.log(rs))

    @staticmethod
    def exp_power(c: float, mu: float) -> "GrowthMinorant":
        """beta(r) = exp(c * r**mu)."""
        require_positive("c", c)
        require_positive("mu", mu)

        def lb(l: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):   # c * exp(x) past the float range is +inf
                return c * _safe_exp(mu * l)

        return GrowthMinorant(_find_threshold(lb), lb,
                              f"beta(r) = exp({c:g} * r**{mu:g})",
                              fast_escaping_form=True)

    @staticmethod
    def growth_scale(po: ProximateOrder, cascade: EpsilonCascade) -> "GrowthMinorant":
        """beta(r) = exp(r**rho(r) * eps1(r))."""
        def lb(l: np.ndarray) -> np.ndarray:
            return _safe_exp(po.rho_of_log(l) * l) * cascade.eps1_from_log(l)

        return GrowthMinorant(
            _find_threshold(lb), lb,
            f"beta(r) = exp(r**rho(r) / log^{cascade.N}(r)), rho -> {po.rho_limit:g}",
            fast_escaping_form=True)

def _safe_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) elementwise, cut to +inf at x >= 709, just below where exp
    overflows."""
    return np.where(x < 709.0, np.exp(np.minimum(x, 709.0)), np.inf)


# log r in steps of 0.1 across the positive floats, 5e-324 to 1.65e308
_LOG_R_GRID = np.arange(-7444, 7098) / 10.0


def _find_threshold(log_beta_of_log: Callable[[np.ndarray], np.ndarray]) -> float:
    """The radius t where beta last crosses the identity: beta(t) <= t and
    beta(x) > x on the scan grid past t.

    The cell after the last failing grid point is bisected in r down to
    adjacent floats; 0 when no grid point fails. A failing stretch narrower
    than one grid step past the last failing point goes unseen.
    """
    bad = np.flatnonzero(log_beta_of_log(_LOG_R_GRID) <= _LOG_R_GRID)
    if not bad.size:
        return 0.0
    lo = math.exp(_LOG_R_GRID[bad[-1]])
    if bad[-1] + 1 == _LOG_R_GRID.size:
        return lo
    hi = math.exp(_LOG_R_GRID[bad[-1] + 1])
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if float(log_beta_of_log(math.log(mid))) <= math.log(mid):
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class DensityBudget:
    """Decreasing alpha(r) -> 0, defined once in the log domain so that it
    reaches iterated radii beyond the float range."""

    alpha_of_log: Callable[[float], float]
    description: str = ""

    def alpha_of_r(self, r: float) -> float:
        return float(self.alpha_of_log(math.log(r)))

    @staticmethod
    def sector_budget(m_arcs: int, cascade: EpsilonCascade) -> "DensityBudget":
        """alpha(r) = 6 * m * eps3(r/2), one wedge allowance per sector edge."""
        if m_arcs < 1:
            raise ValueError(f"m_arcs must be at least 1, got {m_arcs}")
        c = 6.0 * m_arcs

        def a_l(l: float) -> float:
            return c * cascade.eps3_from_log(l - math.log(2.0))

        return DensityBudget(a_l, f"alpha(r) = {c:g} * eps3(r/2)")


# ---------------------------------------------------------------------------
# iteration of the minorant and the series condition

def _check_start_radius(beta: GrowthMinorant, r0: float) -> None:
    """Iteration starts from a finite r0 above the minorant's threshold."""
    if not (math.isfinite(r0) and r0 > beta.threshold_x0):
        raise BelowThreshold(f"r0 = {r0:g} is not a finite radius above the "
                             f"minorant threshold {beta.threshold_x0:g}")


def _log_step(beta: GrowthMinorant, l: float) -> float:
    """log beta(r) from l = log r; +inf past LOG_SENTINEL and from l = +inf."""
    if l == math.inf:
        return math.inf
    nxt = float(beta.log_beta_of_log(l))
    return math.inf if nxt > LOG_SENTINEL else nxt


def beta_log_track(beta: GrowthMinorant, r0: float, n: int) -> list[float]:
    """[log r0, log beta(r0), ..., log beta^n(r0)] with +inf sentinel."""
    _check_start_radius(beta, r0)
    track = [math.log(r0)]
    for _ in range(n):
        track.append(_log_step(beta, track[-1]))
    return track


@dataclass(frozen=True)
class SeriesCheck:
    converges: bool
    partial_sum: float
    terms_used: int
    terms: tuple[float, ...]


def series_condition_check(alpha: DensityBudget, beta: GrowthMinorant,
                           r0: float, tail_tol: float,
                           max_terms: int = 10_000) -> SeriesCheck:
    """Certify sum_n alpha(beta^n(r0)) < inf by ratio test plus tail tolerance.

    Terms are summed until the current term is below ``tail_tol`` while
    decaying at ratio <= 1/2 from its predecessor (that pair of conditions is
    the certificate), or until ``max_terms``. Non-convergence is a result,
    not an error. ``tail_tol`` must be positive and finite.
    """
    require_positive("tail_tol", tail_tol)
    _check_start_radius(beta, r0)
    l = math.log(r0)
    total = 0.0
    terms: list[float] = []
    prev = math.inf
    for n in range(max_terms):
        term = float(alpha.alpha_of_log(l))
        total += term
        terms.append(term)
        decayed = (term == 0.0) or (term <= 0.5 * prev)
        if n >= 1 and term < tail_tol and decayed:
            return SeriesCheck(True, total, n + 1, tuple(terms))
        prev = term
        l = _log_step(beta, l)
    return SeriesCheck(False, total, max_terms, tuple(terms))


# ---------------------------------------------------------------------------
# scalar growth diagnostics

def log_max_modulus(model: FunctionModel, r: float, n_angles: int = 2048) -> float:
    """log M(r, f) estimated as the max of log|f| over an angle grid;
    OverflowUnrepresentable where log|f| leaves the float range."""
    require_positive("r", r)
    log_abs, ok = _log_moduli(model, r * np.exp(1j * angle_grid(n_angles)))
    vals = np.where(ok, log_abs, -np.inf)
    return float(np.max(vals))


def zheng_ratio(model: FunctionModel, r_list: Sequence[float]) -> float:
    """min over the list of log M(2r) / log M(r), a d > 1 certificate."""
    best = math.inf
    for r in require_increasing("r_list", r_list):
        m1 = log_max_modulus(model, r)
        if m1 <= 0:
            raise ValueError(f"M(r) <= 1 at r = {r:g}; ratio undefined")
        best = min(best, log_max_modulus(model, 2 * r) / m1)
    return best
