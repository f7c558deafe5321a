"""Concrete entire-function models with overflow-safe log-space evaluation.

Two families are supported:

* exponential sums  f(z) = sum_k P_k(z) * exp(b_k z)  with polynomial
  coefficients P_k and pairwise distinct exponents b_k;
* canonical products f(z) = prod_k E(z / a_k, p) over a rule-generated zero
  sequence a_k = k**e * exp(i*theta0), truncated at a certified cutoff.

Each model carries its own ``order`` rho, ``exact_indicator()`` and
``certified_log_radius`` (log r_max for a product; for a sum, the log of the
radius past which some b_k z leaves the float range), so no caller asks which
family it holds.

The primary representation of a value is its logarithm: ``log_eval_many``
returns log|f(z)| and the argument of f(z) in (-pi, pi], so quantities such
as |f(z)| versus beta(|z|) stay comparable long after exp() would overflow. An
exponential sum is e^mu S with mu = max_k Re(b_k z), so log|f| = mu + log|S|
and f'/f = S'/S come from the same scaled sums; a product sums log E(z/a_k, p)
and its derivative over the same tiles of zeros, in real arithmetic on the
point rotated onto the zero ray. Either way ``log_abs_and_derivative_many``
returns both from one pass.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (ContourTooClose, NearZero, NonIntegerResidue,
                     OverflowUnrepresentable, require_positive)

# A value whose log-modulus falls below this is treated as a zero hit:
# log of the smallest positive normal double, plus 50 for slack.
ZERO_HIT_LOG = math.log(sys.float_info.min) + 50.0

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Relative cancellation below which the logarithmic derivative is refused.
_NEAR_ZERO_REL = 1e-6

# |1 - z/a_k|^2 at or below which a point of a product is a zero hit: z/a_k is
# rounded in three steps (the rotation onto the ray, 1/|a_k| and the product),
# so a point on a zero can read |1 - z/a_k| of a few 1e-16 instead of 0
_HIT_DEN = 1e-30


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
        t = lo + np.mod(np.asarray(theta, dtype=float) - lo, math.tau)
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


class ExponentialSum:
    """f(z) = sum_k P_k(z) exp(b_k z), coefficients ascending by degree.

    Terms whose polynomial is identically zero are dropped at construction;
    the exponents of the remaining terms must be pairwise distinct.
    """

    order = 1.0

    def __init__(self, terms: Iterable[tuple[Sequence[complex], complex]]):
        cleaned: list[tuple[tuple[complex, ...], complex]] = []
        for coeffs, b in terms:
            tup = tuple(complex(c) for c in coeffs)
            while tup and tup[-1] == 0:
                tup = tup[:-1]
            if tup:
                cleaned.append((tup, complex(b)))
        if not cleaned:
            raise ValueError("exponential sum needs at least one nonzero term")
        exps = [b for _, b in cleaned]
        if len({(b.real, b.imag) for b in exps}) != len(exps):
            raise ValueError("exponents must be pairwise distinct")
        self.terms: tuple[tuple[tuple[complex, ...], complex], ...] = tuple(cleaned)
        # the exponent gaps |b_k - b_i| and sizes |b_k| of the Rouche bounds
        self._gap_matrix = np.array([[abs(b - c) for c in exps] for b in exps])
        self._abs_b = np.array([abs(b) for b in exps])
        # |Re(b_k z)| and |Im(b_k z)| are at most |b_k| |z|, so every b_k z is
        # finite for |z| up to the radius, less 1e-12 for rounding; +inf for a
        # polynomial, whose own overflow is not bounded here
        top = float(self._abs_b.max())
        self.certified_log_radius = _LOG_FLOAT_MAX - math.log(top) - 1e-12 if top else math.inf

    def __repr__(self) -> str:
        parts = [f"{list(c)}*exp({b}z)" for c, b in self.terms]
        return "ExponentialSum(" + " + ".join(parts) + ")"

    def exponents(self) -> list[complex]:
        return [b for _, b in self.terms]

    def exact_indicator(self) -> ExactIndicator:
        """h(theta) = max_k |b_k| cos(theta + arg b_k).

        h(theta) = max_k Re(b_k e^{i theta}) is the support function of the
        indicator diagram, the convex hull of {conj b_k} (B. Ya. Levin,
        *Distribution of Zeros of Entire Functions*, ch. I). The hull
        vertices, taken counter-clockwise, win in turn; the outward normal
        angle of the edge entering a vertex starts its arc and its exterior
        angle is the arc width, so the breakpoints are exact.
        Each arc carries (A_j, phi_j) = (|b_k|, arg b_k) of its exponent.
        """
        verts = _hull_ccw([b.conjugate() for b in self.exponents()])
        # edges[j] enters vertex j; the outward normal of an edge d points at
        # angle atan2(-d.real, d.imag), and a single vertex gives d = 0 and
        # the one arc [0, 2 pi]
        edges = [v - u for u, v in zip(verts[-1:] + verts[:-1], verts)]
        starts = [math.atan2(-edges[0].real, edges[0].imag) % math.tau]
        for d_in, d_out in zip(edges, edges[1:]):
            # the arc of a vertex is its exterior angle, in [0, pi]; adding
            # these keeps the arcs in hull order even where rounding would
            # swap two nearly equal normal angles
            c = d_in.conjugate() * d_out
            starts.append(min(starts[-1] + math.atan2(abs(c.imag), c.real),
                              starts[0] + math.tau))
        # the arcs past 2 pi, a suffix, wrap round to the front
        k = sum(t < math.tau for t in starts)
        arc_order = [*range(k, len(verts)), *range(k)]
        lo = [starts[j] - math.tau if j >= k else starts[j] for j in arc_order]
        hi = lo[1:] + [lo[0] + math.tau]
        arcs = []
        for j, t0, t1 in zip(arc_order, lo, hi):
            if t1 > t0:  # a vertex whose exterior angle rounds to 0 wins nowhere
                b = verts[j].conjugate()
                arcs.append(SinusoidArc(t0, t1, abs(b), math.atan2(b.imag, b.real)))
        return ExactIndicator(arcs=tuple(arcs), rho=self.order)

    def plain_values(self, zs: np.ndarray) -> np.ndarray:
        """Direct complex evaluation; overflows to inf/nan silently."""
        zs = np.asarray(zs, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = np.zeros(zs.shape, dtype=np.complex128)
            for coeffs, b in self.terms:
                p = coeffs[-1]
                for c in reversed(coeffs[:-1]):
                    p = p * zs + c
                acc = acc + p * np.exp(b * zs)
        return acc

    def _scaled_sums(self, zs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(mu, S, S', largest |term of S|): mu = max_k Re(b_k z),
        S = sum_k P_k e^(b_k z - mu), S' = sum_k (P_k' + b_k P_k) e^(b_k z - mu);
        f = e^mu S and f' = e^mu S'."""
        zs = np.asarray(zs, dtype=np.complex128)
        bz = [b * zs for _, b in self.terms]
        mu = np.maximum.reduce([w.real for w in bz])
        s = np.zeros(zs.shape, dtype=np.complex128)
        ds = np.zeros(zs.shape, dtype=np.complex128)
        scale = np.zeros(zs.shape)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for (coeffs, b), w in zip(self.terms, bz):
                p, dp = coeffs[-1], 0.0
                for c in reversed(coeffs[:-1]):
                    dp = dp * zs + p
                    p = p * zs + c
                e = np.exp(w - mu)
                term = p * e
                s = s + term
                ds = ds + (dp + b * p) * e
                scale = np.maximum(scale, np.abs(term))
        return mu, s, ds, scale

    def log_eval_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised log|f| = mu + log|S| and arg f = arg S.

        Returns (log_abs, phase, valid). log_abs is +inf and valid where S is
        not finite (mu or a coefficient overflowed), and -inf and invalid
        below ZERO_HIT_LOG, an exact zero of S included.
        """
        mu, s, _, _ = self._scaled_sums(zs)
        log_abs, valid = _log_modulus(mu, s, np.abs(s))
        phase = np.angle(s)
        phase = np.where(phase == -math.pi, math.pi, phase)
        phase = np.where(valid & np.isfinite(s), phase, 0.0)
        return log_abs, phase, valid

    def log_derivative_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised f'/f = S'/S.

        Returns (L, ok); ok is False where S cancels below the near-zero
        guard, 1e-6 of its largest term.
        """
        _, s, ds, scale = self._scaled_sums(zs)
        return _log_ratio(s, ds, np.abs(s), scale)

    def log_abs_and_derivative_many(self, zs: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(log_abs, valid, L, ok) of ``log_eval_many`` and
        ``log_derivative_many`` from one pass over the terms, without the
        phase; bit-identical to the two separate calls."""
        mu, s, ds, scale = self._scaled_sums(zs)
        abs_s = np.abs(s)
        return (*_log_modulus(mu, s, abs_s), *_log_ratio(s, ds, abs_s, scale))

    def log_abs_lower_bound(self, zs: np.ndarray) -> np.ndarray:
        """A lower bound of log|f(z)| at each point, or -inf where no term
        dominates, in closed form: f is not evaluated.

        This is the domination step of ``disk_re_zl_lower_bound`` at R = 0,
        with U_k >= |P_k(z)| >= l_k at rho = |z|: where the dominant term j
        has l_j > 0 and Q = sum_(k != j) (U_k/l_j) exp(Re((b_k - b_j) z))
        <= 1/2, f = T_j (1 + E) with |E| <= Q, so

            log|f(z)| >= Re(b_j z) + log l_j + log(1 - Q).

        The bound returned is that less a rounding slack of
        1e-9 (1 + |Re(b_j z) + log l_j|). It is -inf where Q > 1/2, where any
        step overflows or is NaN, and where l_j <= 1e-4 U_j: there l_j is a
        residue of cancellation whose rounding the slack does not cover.
        """
        zs = np.asarray(zs, dtype=np.complex128)
        abs_z = np.abs(zs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                         under="ignore"):
            # per term k: (U_k, l_k) at rho = |z|, Re(b_k z) and U_k again
            terms = []
            for coeffs, b in self.terms:
                up, _, low = _poly_bounds(coeffs, abs_z, abs_z)
                terms.append((up, low, (b * zs).real, up))
            _, l_j, re_j, u_j, _, q = _dominance(terms, self._gap_matrix, 0.0)
            head = re_j + np.log(l_j)
            bound = head + np.log1p(-q) - 1e-9 * (1.0 + np.abs(head))
        ok = (l_j > 1e-4 * u_j) & (q <= 0.5) & np.isfinite(bound)
        return np.where(ok, bound, -np.inf)

    def log_abs_reach(self, floor: float) -> float:
        """log r* such that log|f(z)| < floor wherever |z| < r*, from the
        upper bound max_k (|b_k| r + log U_k(r)) + log(#terms) of log|f| on
        |z| = r, which increases with r: -inf where that bound reaches
        ``floor`` at r = e^-700, else the bound bisected in log r up to 700."""
        # per term: |b_k| and (log |c_ki|, i) over the nonzero c_ki
        logs = [(abs(b), [(math.log(abs(c)), i) for i, c in enumerate(coeffs) if c])
                for coeffs, b in self.terms]

        def upper(log_r: float) -> float:
            return math.log(len(logs)) + max(
                size * math.exp(log_r) + _log_sum_exp([lc + i * log_r for lc, i in mags])
                for size, mags in logs)

        lo, hi = -700.0, 700.0
        if upper(lo) >= floor:
            return -math.inf
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if upper(mid) >= floor else (mid, hi)
        return lo

    def disk_re_zl_lower_bound(self, centers: np.ndarray,
                               radii: np.ndarray) -> np.ndarray:
        """A lower bound of Re(zeta L(zeta)) on each closed disk
        |zeta - z| <= R, or -inf where no term dominates the disk.

        Term k is T_k = P_k e^(b_k zeta), P_k = sum_i c_ki zeta^i of degree
        d_k. On the disk rho- <= |zeta| <= rho+ with rho+ = |z| + R and
        rho- = max(|z| - R, 0), so |P_k| <= U_k = sum_i |c_ki| rho+^i,
        |P_k'| <= U'_k = sum_i i |c_ki| rho+^(i-1) and
        |P_k| >= l_k = |c_kd| rho-^d - sum_(i<d) |c_ki| rho+^i. The dominant
        term j maximises Re(b_k z) + log l_k, and every other term has
        |T_k/T_j| <= q_k = (U_k/l_j) exp(Re((b_k - b_j) z) + |b_k - b_j| R).
        Where l_j > 0 and Q = sum_k q_k <= 1/2, f = T_j (1 + E) with
        |E| <= Q has no zero on the disk, and

            |L - b_j| <= delta = U'_j/l_j
                + sum_k q_k (U'_k/U_k + |b_k - b_j| + U'_j/l_j) / (1 - Q),

        so Re(zeta L) >= Re(b_j z) - |b_j| R - rho+ delta. The bound returned
        is that less a rounding slack of 1e-9 rho+ (|b_j| + delta). It is
        -inf where l_j <= 0, Q > 1/2 or any step overflows or is NaN. The
        work is O(terms^2) per disk, with no evaluation of f.
        """
        centers = np.asarray(centers, dtype=np.complex128)
        radii = np.asarray(radii, dtype=np.float64)
        abs_z = np.abs(centers)
        hi, lo = abs_z + radii, np.maximum(abs_z - radii, 0.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                         under="ignore"):
            # per term k: (U_k, U'_k, l_k) and Re(b_k z)
            terms = [(*_poly_bounds(coeffs, hi, lo), (b * centers).real)
                     for coeffs, b in self.terms]
            gaps = self._gap_matrix
            j, l_j, re_j, d_up_j, ratios, q = _dominance(
                [(up, low, re_bz, d_up) for up, d_up, low, re_bz in terms], gaps, radii)
            rel_j = d_up_j / l_j
            dq = np.zeros(hi.shape)
            for k, ((up, d_up, _, _), ratio) in enumerate(zip(terms, ratios)):
                gap = gaps[k][j]   # |b_k - b_j|
                dq += np.where(j != k, ratio * (d_up + up * (gap + rel_j)), 0.0)
            abs_b_j = self._abs_b[j]
            delta = rel_j + dq / (1.0 - q)
            bound = (re_j - abs_b_j * radii - hi * delta
                     - 1e-9 * hi * (abs_b_j + delta))   # the rounding slack
        ok = (l_j > 0.0) & (q <= 0.5) & np.isfinite(bound)
        return np.where(ok, bound, -np.inf)


def _dominance(terms: Sequence[tuple[np.ndarray, ...]], gaps: np.ndarray,
               radii: np.ndarray | float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                          list[np.ndarray], np.ndarray]:
    """The domination step of the Rouche bounds on the disks |zeta - z| <= R.

    ``terms`` holds per term k (U_k, l_k, Re(b_k z), X_k), with
    U_k >= |P_k| >= l_k on the disk and X_k any per-term quantity the caller
    needs at the dominant term, and ``gaps`` the matrix |b_k - b_i|. The
    dominant term j is the first of the largest Re(b_k z) + log l_k, and
    every other term has |T_k/T_j| <= ratio_k U_k with
    ratio_k = exp(Re((b_k - b_j) z) + |b_k - b_j| R) / l_j. Returns
    (j, l_j, Re(b_j z), X_j, [ratio_k], Q = sum_(k != j) ratio_k U_k); the
    three picked values are -inf where no term has l_k > 0.
    """
    shape = np.shape(terms[0][2])
    j = np.zeros(shape, dtype=np.intp)
    best = l_j = re_j = x_j = np.full(shape, -np.inf)
    for k, (_, low, re_bz, x) in enumerate(terms):
        score = re_bz + np.log(np.where(low > 0.0, low, 0.0))
        wins = score > best
        best, j, l_j, re_j, x_j = (
            np.where(wins, new, old) for new, old in
            ((score, best), (k, j), (low, l_j), (re_bz, re_j), (x, x_j)))
    ratios, q = [], np.zeros(shape)
    for k, (up, _, re_bz, _) in enumerate(terms):
        ratio = _exp(re_bz - re_j + gaps[k][j] * radii) / l_j
        ratios.append(ratio)
        q += np.where(j != k, ratio * up, 0.0)
    return j, l_j, re_j, x_j, ratios, q


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, without calling it below -746, where exp is
    0: numpy takes a slow path for each result that underflows."""
    return np.exp(x, out=np.zeros(np.shape(x)), where=~(x < -746.0))


def _log_sum_exp(xs: Sequence[float]) -> float:
    top = max(xs)
    return top + math.log(sum(math.exp(x - top) for x in xs))


def _poly_bounds(coeffs: Sequence[complex], hi: np.ndarray, lo: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, U', l) for P = sum_i c_i zeta^i of degree d on lo <= |zeta| <= hi:
    U = sum_i |c_i| hi^i >= |P|, U' = sum_i i |c_i| hi^(i-1) >= |P'| and
    l = |c_d| lo^d - sum_(i<d) |c_i| hi^i <= |P|; floats for a constant P."""
    mags = [abs(c) for c in coeffs]
    if len(mags) == 1:   # a constant: the same bounds at every radius
        return mags[0], 0.0, mags[0]
    rest, d_up = np.zeros(hi.shape), np.zeros(hi.shape)
    for m in reversed(mags[:-1]):   # sum_(i<d) |c_i| hi^i
        rest = rest * hi + m
    for i in range(len(mags) - 1, 0, -1):
        d_up = d_up * hi + i * mags[i]
    top, deg = mags[-1], len(mags) - 1
    return rest + top * hi ** deg, d_up, top * lo ** deg - rest


def _log_modulus(mu: np.ndarray, s: np.ndarray, abs_s: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(log_abs, valid) of f = e^mu S: +inf and valid where S is not finite,
    -inf and invalid below ZERO_HIT_LOG."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = mu + np.log(abs_s)
    blown = ~np.isfinite(s)
    valid = blown | (log_abs >= ZERO_HIT_LOG)
    return np.where(blown, np.inf, np.where(valid, log_abs, -np.inf)), valid


def _log_ratio(s: np.ndarray, ds: np.ndarray, abs_s: np.ndarray,
               scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, ok) with L = S'/S; ok is False, and L 0, where |S| is not above
    the near-zero guard, 1e-6 of the largest |term of S|."""
    ok = abs_s > _NEAR_ZERO_REL * scale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(ok, ds / np.where(ok, s, 1.0), 0.0)
    return ratio, ok


@dataclass(frozen=True)
class PowerZeroRule:
    """Zero modulus rule |a_k| = k**exponent on the ray of ``angle``."""

    exponent: float
    angle: float = 0.0

    def __post_init__(self) -> None:
        require_positive("zero-rule exponent", self.exponent)

    def modulus(self, k: float | np.ndarray) -> float | np.ndarray:
        return k ** self.exponent


class CanonicalProduct:
    """Truncated Weierstrass product over a rule-generated zero sequence.

    The cutoff K is fixed at construction so that the certified tail estimate

        sum_{k>K} (2/(p+1)) |z/a_k|**(p+1)  <=  tail_tol

    holds for every |z| <= r_max, and |z/a_{K+1}| <= 1/2 so the per-factor
    series bound applies. The resulting bound is stored in ``tail_bound``
    and never recomputed per call. K is sized from its logarithm, and a
    (tail_tol, r_max) pair is refused up front where K would exceed
    ``MAX_CUTOFF`` factors or 2|a_{K+1}|**max(p+1, 2) the float range, so no
    power of the evaluation overflows; the certified log radius is log r_max.
    Evaluation walks the zeros in tiles of 2^12, and each step builds real
    arrays of at most 2^15 point-by-zero entries.

    ``order`` is rho = 1/e, the convergence exponent of the zeros
    |a_k| = k**e. It is the order of f only at the canonical genus
    floor(rho): a larger genus multiplies the canonical product by
    exp(z sum_k 1/a_k), so pow(1.5) with genus 1 has rho = 2/3 here but f,
    the canonical product times e^{cz}, has order 1.
    """

    _TILE = 1 << 12     # zeros per tile
    _STEP = 1 << 15     # point-by-zero entries per step
    MAX_CUTOFF = 200_000_000

    def __init__(self, rule: PowerZeroRule, genus: int, tail_tol: float,
                 r_max: float):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        s = rule.exponent * (genus + 1)
        if s <= 1.0:
            raise ValueError(
                "genus+1 must exceed the convergence exponent of the zero rule")
        require_positive("tail_tol", tail_tol)
        require_positive("r_max", r_max)
        self.rule = rule
        self.genus = int(genus)
        self.tail_tol = float(tail_tol)
        self.r_max = float(r_max)
        # K* = max(k_half, k_tol) in logs: K >= k_half = (2 r_max)^(1/e) keeps
        # |z/a_{K+1}| <= 1/2, and at k_tol the tail estimate is tail_tol. K is
        # refused past MAX_CUTOFF or where 2|a_{K+1}|^q, q = max(p+1, 2), leaves
        # the float range, which keeps |z|^q and so |z|^p and |1 - z/a_k|^2 finite
        log_k = max(math.log(2.0 * r_max) / rule.exponent,
                    (self._log_tail(r_max, 1) - math.log(tail_tol)) / (s - 1.0))
        if log_k > math.log(self.MAX_CUTOFF):
            limit = f"about 10^{log_k / math.log(10):.1f} factors, past {self.MAX_CUTOFF:.0e}"
        else:
            self.cutoff = max(1, math.ceil(math.exp(log_k)))
            q = max(genus + 1, 2)
            power = rule.exponent * q
            limit = (f"{self.cutoff} factors, whose 2|a_(K+1)|^{q} = 2 * {self.cutoff + 1}^{power:g}"
                     " passes the float range"
                     if power * math.log(self.cutoff + 1) + math.log(2.0) > _LOG_FLOAT_MAX else "")
        if limit:
            raise ValueError(f"tail tolerance {tail_tol:g} at r_max {r_max:g} needs "
                             f"{limit}; relax the tolerance or reduce r_max")
        self.tail_bound = math.exp(self._log_tail(r_max, self.cutoff))
        self.order = 1.0 / rule.exponent
        self.certified_log_radius = math.log(self.r_max)

    def exact_indicator(self) -> ExactIndicator:
        """h(theta) = pi cos(rho (theta - theta0 - pi)) / sin(pi rho) on the
        one arc [theta0, theta0 + 2 pi), for zeros |a_k| = k**e on the ray of
        angle theta0, whose counting function is n(r) ~ r**rho (B. Ya. Levin,
        *Distribution of Zeros of Entire Functions*, ch. I-II). ValueError
        where the ray indicator does not apply: rho within 1e-9 of an integer,
        or a genus other than floor(rho)."""
        rho = self.order
        if abs(rho - round(rho)) <= 1e-9:
            raise ValueError(f"order rho = {rho:g} is an integer")
        if self.genus != math.floor(rho):
            raise ValueError(f"genus {self.genus} is not the canonical genus "
                             f"{math.floor(rho)} of order rho = {rho:g}")
        rule = self.rule
        arc = SinusoidArc(rule.angle, rule.angle + math.tau,
                          math.pi / math.sin(math.pi * rho),
                          -rho * (rule.angle + math.pi))
        return ExactIndicator(arcs=(arc,), rho=rho)

    def _log_tail(self, r: float, k: int) -> float:
        """log of the tail estimate (2/(p+1)) r^(p+1) k^(1-s) / (s-1) past k
        factors at |z| = r > 0, with s = e (p+1)."""
        p1 = self.genus + 1
        s = self.rule.exponent * p1
        return (math.log(2.0 / p1) - math.log(s - 1.0) + p1 * math.log(r)
                - (s - 1.0) * math.log(k))

    def derivative_tail_bound(self, r: float) -> float:
        """Certified truncation bound for f'/f at |z| = r, 0 < r <= r_max:
        (p+1)/r times the tail estimate of log f there."""
        return (self.genus + 1) / r * math.exp(self._log_tail(r, self.cutoff))

    def counting_function(self, r: float) -> int:
        """n(r, 0): exact number of generated zeros with |a_k| <= r."""
        require_positive("r", r)
        k = int(r ** (1.0 / self.rule.exponent))
        while self.rule.modulus(k + 1) <= r:
            k += 1
        while k > 0 and self.rule.modulus(k) > r:
            k -= 1
        return k

    def _factor_sums(self, zs: np.ndarray, log: bool, phase: bool, deriv: bool
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(log_abs, valid, L, ok, arg) from one pass over the tiles of zeros,
        with only the parts asked for (``phase`` needs ``log``); arg is the
        unwrapped sum of arg E(z/a_k, p). On w = z e^(-i theta0), z/a_k is
        w t_k with t_k = 1/|a_k|, so with x = 1 - Re(w) t_k, y = Im(w) t_k
        and T_j = sum_k t_k^j every (point, zero) array is real:

            log|f| = 1/2 sum_k log(x^2 + y^2) + Re sum_(j<=p) w^j T_j / j,
            arg f  = sum_k atan2(-y, x) + Im sum_(j<=p) w^j T_j / j,
            f'/f   = -e^(-i theta0) w^p sum_k t_k^(p+1) (x + iy) / (x^2 + y^2).

        A row's sums read only its own point and the fixed tiles, so no bit
        depends on which other points share the call."""
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        r = float(np.max(np.abs(flat))) if flat.size else 0.0
        if r > self.r_max * (1 + 1e-12):
            raise ValueError(f"|z| = {r:g} exceeds the certified radius r_max = {self.r_max:g}")
        rot = cmath.exp(-1j * self.rule.angle)
        w = flat * rot
        log_sum, arg_sum, s_re, s_im = (np.zeros(flat.shape) for _ in range(4))
        near = np.full(flat.shape, np.inf)   # the least |1 - z/a_k|^2 of each row
        p, tile = self.genus, min(self._TILE, self.cutoff)
        power_sums = np.zeros(p)
        block = max(1, self._STEP // tile)
        bufs = np.empty((4, block * tile))
        # a row that hits a zero forms log 0, 0 * inf and 1/0; its sums are discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(1, self.cutoff + 1, tile):
                t = 1.0 / self.rule.modulus(np.arange(lo, min(lo + tile, self.cutoff + 1),
                                                      dtype=np.float64))
                power_sums += [np.sum(t ** j) for j in range(1, p + 1)]
                t_p1 = t ** (p + 1)
                for start in range(0, flat.size, block):
                    rows = slice(start, start + block)
                    x, y, den, tmp = (b[:t.size * w[rows].size].reshape(-1, t.size) for b in bufs)
                    np.subtract(1.0, np.multiply.outer(w.real[rows], t, out=x), out=x)
                    np.multiply.outer(w.imag[rows], t, out=y)
                    np.add(np.square(x, out=den), np.square(y, out=tmp), out=den)
                    np.minimum(near[rows], den.min(axis=1), out=near[rows])
                    if log:
                        log_sum[rows] += np.log(den, out=tmp).sum(axis=1)
                        if phase:   # atan2(-y, x) = -atan2(y, x)
                            arg_sum[rows] -= np.arctan2(y, x, out=tmp).sum(axis=1)
                    if deriv:
                        q = np.divide(t_p1, den, out=den)
                        s_re[rows] += np.multiply(x, q, out=tmp).sum(axis=1)
                        s_im[rows] += np.multiply(y, q, out=tmp).sum(axis=1)
            poly = sum((w ** j * (t_sum / j) for j, t_sum in enumerate(power_sums, 1)),
                       np.zeros_like(w))
            log_abs = 0.5 * log_sum + poly.real
            total = -rot * w ** p * (s_re + 1j * s_im)
        valid = (near > _HIT_DEN) & (log_abs >= ZERO_HIT_LOG)
        ok = near > 1e-18   # |z - a_k| > 1e-9 |a_k| at every k
        return tuple(a.reshape(zs.shape) for a in (
            np.where(valid, log_abs, -np.inf), valid, np.where(ok, total, 0.0), ok,
            arg_sum + poly.imag))

    def log_eval_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Truncated sum of log E(z/a_k, p); accurate to within tail_bound."""
        log_abs, valid, _, _, phase = self._factor_sums(zs, log=True, phase=True, deriv=False)
        phase = np.remainder(phase + math.pi, math.tau) - math.pi
        phase = np.where(phase == -math.pi, math.pi, phase)
        return log_abs, np.where(valid, phase, 0.0), valid

    def log_derivative_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_k z**p / (a_k**p (z - a_k)) over the stored cutoff."""
        return self._factor_sums(zs, log=False, phase=False, deriv=True)[2:4]

    def log_abs_and_derivative_many(self, zs: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(log_abs, valid, L, ok) from one pass over the factor chunks, without
        the phase; bit-identical to ``log_eval_many`` and ``log_derivative_many``."""
        return self._factor_sums(zs, log=True, phase=False, deriv=True)[:4]

    def log_abs_lower_bound(self, zs: np.ndarray) -> np.ndarray:
        """-inf at every point: no closed-form lower bound of log|f| for a
        product yet, so each one is evaluated."""
        return np.full(np.shape(zs), -np.inf)

    def log_abs_reach(self, floor: float) -> float:
        """+inf: with no lower bound of log|f| to take, no point is worth
        bounding."""
        return math.inf

    def disk_re_zl_lower_bound(self, centers: np.ndarray,
                               radii: np.ndarray) -> np.ndarray:
        """-inf on every disk: no closed-form bound of Re(zeta L) on a disk
        of a product yet, so each one is decided by sampling."""
        return np.full(np.shape(centers), -np.inf)

    def plain_values(self, zs: np.ndarray) -> np.ndarray:
        log_abs, phase, valid = self.log_eval_many(zs)
        with np.errstate(over="ignore"):
            mag = np.exp(log_abs)
        vals = mag * (np.cos(phase) + 1j * np.sin(phase))
        return np.where(valid, vals, 0.0)

    def __repr__(self) -> str:
        return (f"CanonicalProduct(rule={self.rule}, genus={self.genus}, "
                f"cutoff={self.cutoff}, tail_bound={self.tail_bound:.3e})")


FunctionModel = Union[ExponentialSum, CanonicalProduct]


def log_derivative(model: FunctionModel, z: complex) -> complex:
    """L(z) = f'(z)/f(z); raises NearZero within the guard distance of a zero
    and OverflowUnrepresentable where L leaves the float range."""
    val, ok = model.log_derivative_many(np.array([z], dtype=np.complex128))
    if not bool(ok[0]):
        raise NearZero(f"logarithmic derivative undefined near a zero at z={z}")
    if not cmath.isfinite(val[0]):
        raise OverflowUnrepresentable(f"f'/f leaves the float range at z={z}")
    return complex(val[0])


def count_zeros_argument_principle(model: FunctionModel,
                                   rectangle: tuple[float, float, float, float],
                                   nodes_per_side: int = 128) -> int:
    """Zero count (with multiplicity) inside a rectangle via (1/2pi i) @ L dz.

    Gauss-Legendre quadrature per side; the result must land within 0.1 of
    an integer, else NonIntegerResidue. A zero within the near-zero guard of
    the contour raises ContourTooClose.
    """
    x0, x1, y0, y1 = rectangle
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must be nondegenerate")
    xi, wi = np.polynomial.legendre.leggauss(nodes_per_side)
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        mid = (a + b) / 2.0
        half = (b - a) / 2.0
        zs = mid + half * xi
        lvals, ok = model.log_derivative_many(zs)
        if not ok.all():
            raise ContourTooClose("zero of f within guard distance of contour")
        total += half * np.sum(wi * lvals)
    winding = total / (2.0j * math.pi)
    nearest = round(winding.real)
    if abs(winding - nearest) > 0.1:
        raise NonIntegerResidue(
            f"contour integral {winding} is not close to an integer")
    return int(nearest)
