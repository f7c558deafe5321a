"""Concrete entire-function models with overflow-safe log-space evaluation.

Two families are supported:

* exponential sums  f(z) = sum_k P_k(z) * exp(b_k z)  with polynomial
  coefficients P_k and pairwise distinct exponents b_k;
* canonical products f(z) = prod_k E(z / a_k, p) over a rule-generated zero
  sequence a_k = k**e * exp(i*theta0), truncated at a certified cutoff.

Each model carries its own ``order`` rho, ``exact_indicator()`` and
``certified_log_radius``, so no caller asks which family it holds.

The primary representation of a value is its logarithm: ``log_eval_many``
returns log|f(z)| and the argument of f(z) in (-pi, pi], so quantities such
as |f(z)| versus beta(|z|) stay comparable long after exp() would overflow. An
exponential sum is e^mu S with mu = max_k Re(b_k z), so log|f| = mu + log|S|
and f'/f = S'/S come from the same scaled sums; a product sums log E(z/a_k, p)
and its derivative over the same chunks of zeros. Either way
``log_abs_and_derivative_many`` returns both from one pass.
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

# Relative cancellation below which the logarithmic derivative is refused.
_NEAR_ZERO_REL = 1e-6

_TWO_PI = 2.0 * math.pi


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


class ExponentialSum:
    """f(z) = sum_k P_k(z) exp(b_k z), coefficients ascending by degree.

    Terms whose polynomial is identically zero are dropped at construction;
    the exponents of the remaining terms must be pairwise distinct.
    """

    order = 1.0
    certified_log_radius = math.inf   # log-space evaluation holds at every radius

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
        starts = [math.atan2(-edges[0].real, edges[0].imag) % _TWO_PI]
        for d_in, d_out in zip(edges, edges[1:]):
            # the arc of a vertex is its exterior angle, in [0, pi]; adding
            # these keeps the arcs in hull order even where rounding would
            # swap two nearly equal normal angles
            c = d_in.conjugate() * d_out
            starts.append(min(starts[-1] + math.atan2(abs(c.imag), c.real),
                              starts[0] + _TWO_PI))
        # the arcs past 2 pi, a suffix, wrap round to the front
        k = sum(t < _TWO_PI for t in starts)
        arc_order = [*range(k, len(verts)), *range(k)]
        lo = [starts[j] - _TWO_PI if j >= k else starts[j] for j in arc_order]
        hi = lo[1:] + [lo[0] + _TWO_PI]
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
        exps = self.exponents()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                         under="ignore"):
            # per term k: (U_k, U'_k, l_k), Re(b_k z) and the row |b_k - b_.|
            terms = [(*_poly_bounds(coeffs, hi, lo), (b * centers).real,
                      np.array([abs(b - c) for c in exps])) for coeffs, b in self.terms]
            # the dominant term: the first of the largest Re(b_k z) + log l_k
            j = np.zeros(hi.shape, dtype=np.intp)
            best = l_j = d_up_j = re_j = np.full(hi.shape, -np.inf)
            for k, (_, d_up, low, re_bz, _) in enumerate(terms):
                score = re_bz + np.log(np.where(low > 0.0, low, 0.0))
                wins = score > best
                best, j, l_j, d_up_j, re_j = (
                    np.where(wins, new, old) for new, old in
                    ((score, best), (k, j), (low, l_j), (d_up, d_up_j), (re_bz, re_j)))
            rel_j = d_up_j / l_j
            q, dq = np.zeros(hi.shape), np.zeros(hi.shape)
            for k, (up, d_up, _, re_bz, gaps) in enumerate(terms):
                gap = gaps[j]   # |b_k - b_j|
                ratio = np.exp(re_bz - re_j + gap * radii) / l_j
                other = j != k
                q += np.where(other, ratio * up, 0.0)
                dq += np.where(other, ratio * (d_up + up * (gap + rel_j)), 0.0)
            abs_b_j = np.array([abs(c) for c in exps])[j]
            delta = rel_j + dq / (1.0 - q)
            bound = (re_j - abs_b_j * radii - hi * delta
                     - 1e-9 * hi * (abs_b_j + delta))   # the rounding slack
        ok = (l_j > 0.0) & (q <= 0.5) & np.isfinite(bound)
        return np.where(ok, bound, -np.inf)


def _poly_bounds(coeffs: Sequence[complex], hi: np.ndarray, lo: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, U', l) for P = sum_i c_i zeta^i of degree d on lo <= |zeta| <= hi:
    U = sum_i |c_i| hi^i >= |P|, U' = sum_i i |c_i| hi^(i-1) >= |P'| and
    l = |c_d| lo^d - sum_(i<d) |c_i| hi^i <= |P|."""
    mags = [abs(c) for c in coeffs]
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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, ds / np.where(ok, s, 1.0), 0.0)
    return ratio, ok


@dataclass(frozen=True)
class PowerZeroRule:
    """Zero modulus rule |a_k| = k**exponent on the ray of ``angle``."""

    exponent: float
    angle: float = 0.0

    def __post_init__(self) -> None:
        require_positive("zero-rule exponent", self.exponent)

    def modulus(self, k: float) -> float:
        return k ** self.exponent

    def zeros(self, k_lo: int, k_hi: int) -> np.ndarray:
        ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
        return ks ** self.exponent * cmath.exp(1j * self.angle)


class CanonicalProduct:
    """Truncated Weierstrass product over a rule-generated zero sequence.

    The cutoff K is fixed at construction so that the certified tail estimate

        sum_{k>K} (2/(p+1)) |z/a_k|**(p+1)  <=  tail_tol

    holds for every |z| <= r_max, and |z/a_{K+1}| <= 1/2 so the per-factor
    series bound applies. The resulting bound is stored in ``tail_bound``
    and never recomputed per call. A (tail_tol, r_max) pair whose cutoff
    would exceed ``MAX_CUTOFF`` factors is refused up front; the certified
    log radius is log r_max. Evaluation walks the zeros in chunks of 2^19,
    and each step builds arrays of at most 2^20 point-by-zero entries.

    ``order`` is rho = 1/e, the convergence exponent of the zeros
    |a_k| = k**e. It is the order of f only at the canonical genus
    floor(rho): a larger genus multiplies the canonical product by
    exp(z sum_k 1/a_k), so pow(1.5) with genus 1 has rho = 2/3 here but f,
    the canonical product times e^{cz}, has order 1.
    """

    _CHUNK = 1 << 19
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
        # the log of the cutoff is checked first, so that a cutoff past the
        # float range is refused before a power can overflow; its factor 2 of
        # slack lets the exact check below decide every cutoff near the limit
        log_k_tol = (math.log(2.0 / (genus + 1)) - math.log(s - 1.0)
                     + (genus + 1) * math.log(r_max)
                     - math.log(tail_tol)) / (s - 1.0)
        log_cutoff = max(math.log(2.0 * r_max) / rule.exponent,
                         log_k_tol)
        cutoff = math.inf
        if log_cutoff <= math.log(2 * self.MAX_CUTOFF):
            k_half = math.ceil((2.0 * r_max) ** (1.0 / rule.exponent))
            c = (2.0 / (genus + 1)) * r_max ** (genus + 1) / (s - 1.0)
            root = tail_tol ** (1.0 / (s - 1.0))
            # a root below the normal floats has lost its digits, or is 0
            k_tol = math.ceil(c ** (1.0 / (s - 1.0)) / root if root >= sys.float_info.min
                              else math.exp(log_k_tol))
            cutoff = max(k_half, k_tol, 1)
        if cutoff > self.MAX_CUTOFF:
            raise ValueError(
                f"tail tolerance {tail_tol:g} at r_max {r_max:g} needs about "
                f"10^{log_cutoff / math.log(10):.1f} factors (> "
                f"{self.MAX_CUTOFF:.0e}); relax the tolerance or reduce r_max")
        self.cutoff = cutoff
        self.tail_bound = self._tail_estimate(r_max, self.cutoff)
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
        arc = SinusoidArc(rule.angle, rule.angle + _TWO_PI,
                          math.pi / math.sin(math.pi * rho),
                          -rho * (rule.angle + math.pi))
        return ExactIndicator(arcs=(arc,), rho=rho)

    def _tail_estimate(self, r: float, k: int) -> float:
        s = self.rule.exponent * (self.genus + 1)
        p1 = self.genus + 1
        return (2.0 / p1) * r ** p1 * k ** (1.0 - s) / (s - 1.0)

    def derivative_tail_bound(self, r: float) -> float:
        """Certified truncation bound for f'/f at |z| = r <= r_max."""
        s = self.rule.exponent * (self.genus + 1)
        p = self.genus
        return 2.0 * r ** p * self.cutoff ** (1.0 - s) / (s - 1.0)

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
        """(log_abs, valid, L, ok, arg) from one pass over the chunks of zeros,
        with only the parts asked for: log|f|, f'/f and the unwrapped sum of
        arg E(z/a_k, p) (``phase`` needs ``log``). Each chunk meets the points
        in blocks of at most 2^20 entries; no bit depends on the block size."""
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        r = float(np.max(np.abs(flat))) if flat.size else 0.0
        if r > self.r_max * (1 + 1e-12):
            raise ValueError(f"|z| = {r:g} exceeds the certified radius r_max = {self.r_max:g}")
        log_abs, arg, total = (np.zeros(flat.shape, dtype=t) for t in (float, float, complex))
        ok = np.ones(flat.shape, dtype=bool)
        block = max(1, (1 << 20) // min(self._CHUNK, self.cutoff))
        p = self.genus
        for lo in range(1, self.cutoff + 1, self._CHUNK):
            a = self.rule.zeros(lo, min(lo + self._CHUNK - 1, self.cutoff))
            if deriv:   # the guard 1e-9 |a| and a**p, made once per chunk
                guard, a_p = 1e-9 * np.abs(a), a ** p if p else None
            for start in range(0, flat.size, block):
                rows = slice(start, start + block)
                if log:
                    _add_log_factors(flat[rows], a, p, log_abs[rows], arg[rows] if phase else None)
                if deriv:
                    _add_log_derivative_factors(flat[rows], a, p, guard, a_p,
                                                total[rows], ok[rows])
        valid = log_abs >= ZERO_HIT_LOG   # a zero factor makes its row -inf or NaN
        return tuple(x.reshape(zs.shape) for x in (
            np.where(valid, log_abs, -np.inf), valid, np.where(ok, total, 0.0), ok, arg))

    def log_eval_many(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Truncated sum of log E(z/a_k, p); accurate to within tail_bound."""
        log_abs, valid, _, _, phase = self._factor_sums(zs, log=True, phase=True, deriv=False)
        phase = np.remainder(phase + math.pi, _TWO_PI) - math.pi
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


def _add_log_factors(zb: np.ndarray, a: np.ndarray, p: int, log_abs: np.ndarray,
                     arg: np.ndarray | None) -> None:
    """Add to each row's log_abs the sum over one chunk of zeros a of
    log|E(z/a, p)|, and to its arg, unless None, the sum of arg E(z/a, p)."""
    u = zb[:, None] / a[None, :]
    one_m = np.subtract(1.0, u, out=None if p else u)   # u is read again only if p > 0
    term_arg = None if arg is None else np.angle(one_m)
    term_log = np.abs(one_m)
    with np.errstate(divide="ignore"):
        np.log(term_log, out=term_log)
    for j in range(1, p + 1):
        upow = u if j == 1 else upow * u
        term_log += upow.real / j
        if arg is not None:
            term_arg += upow.imag / j
    log_abs += term_log.sum(axis=1)
    if arg is not None:
        arg += term_arg.sum(axis=1)


def _add_log_derivative_factors(zb: np.ndarray, a: np.ndarray, p: int,
                                guard: np.ndarray, a_p: np.ndarray | None,
                                total: np.ndarray, ok: np.ndarray) -> None:
    """Add to each row's total the sum over one chunk of zeros a of the finite
    z**p / (a_p (z - a)), with a_p = a**p for p > 0; clear ok unless
    |z - a| > guard = 1e-9 |a| at every a."""
    diff = zb[:, None] - a[None, :]
    ok &= (np.abs(diff) > guard[None, :]).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):   # diff turns into the terms
        if p:
            np.multiply(a_p[None, :], diff, out=diff)
        np.divide(zb[:, None] ** p if p else 1.0, diff, out=diff)
    diff[~np.isfinite(diff)] = 0.0
    total += diff.sum(axis=1)


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
