"""Constructive covering lemmas with audited certificates.

Three constructions are provided:

* Besicovitch cover: greedy selection by descending radius, admitting a disk
  only if its center is not already covered. Coverage holds by construction;
  bounded multiplicity (<= 256 in the plane) is audited at probe points.

* Fuchs-Macintyre disks: greedy mass concentration with the square-root
  radius schedule rho(lam) = H*sqrt(lam/n) and final inflation by 2. This
  gives sum t_k^2 <= 4 H^2 exactly and, outside the disks, the j-th nearest
  input point at distance >= H*sqrt(j/n), hence
  sum_k 1/|z - z_k| <= 2n/H.

* Cartan/Levin minimum-modulus disks: the same greedy with the linear
  schedule rho(lam) = lam*H/n (H = 2*eta*R) and inflation by 2, giving
  sum s_k <= 4*eta*R and the classical product lower bound, audited against
  log|g(z)| > -(2 + log(3e/2 eta)) log M(2eR, g) on a probe grid.

Because constant conventions differ across the literature, the audits are
part of each operation's postcondition: a failed audit raises
CertificateFailure (a construction bug, not an input error). Probe sets are
deterministic: all three audits use low-discrepancy (Halton) points, so
certificates reproduce bit-for-bit. Budget inequalities are verified in
exact rational arithmetic. Non-finite points are refused with ValueError.

The greedy's densest-disk search is exact in floats: its candidates are the
points and the centres of the radius-rho circles through close pairs, and it
returns the first candidate of maximal float count |p - c| <= rho + tol.
Close pairs come from one sort by real part. An angular sweep of arcs about
each pair's first point (Chazelle & Lee, 1986), widened by
tau = 2 tol + 32 eps (max|p| + rho), bounds every pair candidate's count
from above, and the float test runs only on candidates in descending-bound
order until a bound falls below the best count. Candidates left untested
cannot match the winner, so counts, centres, disk files and certificates
are those of testing every candidate. Cost: O(P log P) for the P pairs in
the x-bands, plus n per tested candidate, in blocks of bounded memory.
Disk membership (multiplicity, mask_outside, the audits, the Besicovitch
greedy) sorts the tested points by real part once and applies the float
test |z - c| <= r to each disk's x-band only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateFailure, require_positive
from .growth import angle_grid


BESICOVITCH_MAX_MULTIPLICITY = 256   # 4**(2n) with n = 2
_EPS = float(np.finfo(float).eps)
_ARC_SLACK = 1e-12      # radians: covers atan2, arccos and mod rounding
_BAND_BLOCK = 1 << 17   # densest-disk band entries processed at once


@dataclass(frozen=True)
class DiskSet:
    """Finite collection of closed disks (center, radius)."""

    disks: tuple[tuple[complex, float], ...]

    def __post_init__(self) -> None:
        rs = self.radii()
        if not (np.isfinite(rs) & (rs > 0)).all():
            raise ValueError("disk radii must be positive and finite")
        if not np.isfinite(self.centers()).all():
            raise ValueError("disk centres must be finite")

    def __len__(self) -> int:
        return len(self.disks)

    def centers(self) -> np.ndarray:
        return np.array([c for c, _ in self.disks], dtype=np.complex128)

    def radii(self) -> np.ndarray:
        return np.array([r for _, r in self.disks], dtype=float)

    def mask_outside(self, zs: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying outside every (closed) disk."""
        return self.multiplicity(zs) == 0

    def multiplicity(self, zs: np.ndarray) -> np.ndarray:
        """Number of (closed) disks containing each point."""
        zs = np.asarray(zs, dtype=np.complex128)
        order = np.argsort(zs.real, axis=None)
        z = zs.ravel()[order]
        lo, hi = _x_band(z.real, self.centers().real, self.radii())
        # each disk tests only its x-band of the points sorted by real part;
        # bool masks add into int32 slices faster than into int64 ones
        count = np.zeros(z.size, dtype=np.int32)
        for (c, r), a, b in zip(self.disks, lo, hi):
            count[a:b] += np.abs(z[a:b] - c) <= r
        out = np.empty(z.size, dtype=np.int64)
        out[order] = count
        return out.reshape(zs.shape)

    def to_text(self) -> str:
        """One disk per line: re im radius, 17 significant digits, LF."""
        lines = [f"{c.real:.17g} {c.imag:.17g} {r:.17g}" for c, r in self.disks]
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def from_text(text: str) -> "DiskSet":
        return DiskSet(tuple((complex(re, im), r)
                             for re, im, r in read_columns(text, 3)))


def read_columns(text: str, n_cols: int) -> list[tuple[float, ...]]:
    """One record of ``n_cols`` finite floats per non-blank line; ValueError
    names the first line holding another count or a NaN or infinity."""
    lines = text.splitlines()
    for i, line in enumerate(lines, 1):
        count = len(line.split())
        if count not in (0, n_cols):
            raise ValueError(f"line {i}: expected {n_cols} numbers, got {count}")
    values = [float(p) for p in text.split()]
    if not all(map(math.isfinite, values)):
        i = next(i for i, line in enumerate(lines, 1)
                 if not all(map(math.isfinite, map(float, line.split()))))
        raise ValueError(f"line {i}: numbers must be finite, got {lines[i - 1].strip()!r}")
    return list(zip(*[iter(values)] * n_cols))   # n_cols values a record


def _x_band(xs: np.ndarray, cx, r) -> tuple[np.ndarray, np.ndarray]:
    """Index range [lo, hi) of the sorted real parts xs in [cx - r, cx + r],
    widened so that every point the float test |z - c| <= r passes is in it."""
    pad = r + 8.0 * _EPS * (np.abs(cx) + r)
    return np.searchsorted(xs, cx - pad, "left"), np.searchsorted(xs, cx + pad, "right")


def _require_finite(zs: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(zs))
    if bad.size:
        raise ValueError(f"{what} {bad[0]} is not finite: {complex(zs[bad[0]])}")


# ---------------------------------------------------------------------------
# Halton probes

def _halton(n: int, base: int) -> np.ndarray:
    """Radical inverses of 1..n in ``base``, one array pass per digit."""
    out = np.zeros(n)
    k = np.arange(1, n + 1)
    f = 1.0
    while k.any():
        f /= base
        out += f * (k % base)
        k //= base
    return out


def halton_points(n: int, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
    """Deterministic low-discrepancy complex points in a rectangle."""
    return (x0 + (x1 - x0) * _halton(n, 2)) + 1j * (y0 + (y1 - y0) * _halton(n, 3))


# ---------------------------------------------------------------------------
# Besicovitch cover

def besicovitch_cover(points: Sequence[complex],
                      radii: Sequence[float]) -> DiskSet:
    """Greedy sub-collection covering every input point; ``radii[i]`` is
    the radius of the disk centred at ``points[i]``.

    Disks are visited by descending radius, ties by index; one is selected
    iff its center is not contained in any previously selected disk. Every
    unselected center is then covered by a selected disk, so the input set
    is covered; a repeated point is covered by the disk of its largest
    radius.
    """
    zs = np.asarray(points, dtype=np.complex128)
    rs = np.asarray(radii, dtype=float)
    if zs.size == 0:
        raise ValueError("need at least one point")
    _require_finite(zs, "point")
    if rs.shape != zs.shape:
        raise ValueError(f"{rs.size} radii for {zs.size} points")
    if not (np.isfinite(rs) & (rs > 0)).all():
        raise ValueError("radii must be positive and finite")
    order = np.argsort(zs.real)
    z = zs[order]
    rank = np.empty(zs.size, dtype=np.intp)
    rank[order] = np.arange(zs.size)
    visit = np.argsort(-rs, kind="stable")
    lo, hi = _x_band(z.real, zs.real[visit], rs[visit])
    covered = np.zeros(zs.size, dtype=bool)   # in real-part order
    selected: list[int] = []
    for i, k, a, b in zip(visit.tolist(), rank[visit].tolist(), lo.tolist(), hi.tolist()):
        if not covered[k]:
            selected.append(i)
            covered[a:b] |= np.abs(z[a:b] - zs[i]) <= rs[i]
    return DiskSet(tuple((complex(zs[i]), float(rs[i])) for i in selected))


@dataclass(frozen=True)
class BesicovitchCertificate:
    covers_all: bool
    max_multiplicity: int
    multiplicity_limit: int   # the audited bound, BESICOVITCH_MAX_MULTIPLICITY
    n_probes: int
    n_selected: int


def besicovitch_audit(points: Sequence[complex], disks: DiskSet,
                      n_probes: int = 10_000) -> BesicovitchCertificate:
    """Audit full cover at the inputs and multiplicity <= 256 at Halton
    probes in the disks' bounding box."""
    pts = np.asarray([complex(p) for p in points], dtype=np.complex128)
    cs, rs = disks.centers(), disks.radii()
    lo_x, hi_x = (cs.real - rs).min(), (cs.real + rs).max()
    lo_y, hi_y = (cs.imag - rs).min(), (cs.imag + rs).max()
    probes = np.concatenate([halton_points(n_probes, lo_x, hi_x, lo_y, hi_y), pts])
    counts = disks.multiplicity(probes)
    covers = bool((counts[n_probes:] > 0).all())
    mult = int(counts.max())
    cert = BesicovitchCertificate(covers, mult, BESICOVITCH_MAX_MULTIPLICITY,
                                  int(probes.size), len(disks))
    if not covers or mult > BESICOVITCH_MAX_MULTIPLICITY:
        raise CertificateFailure(f"besicovitch audit failed: {cert}")
    return cert


# ---------------------------------------------------------------------------
# greedy mass concentration shared by Fuchs-Macintyre and Cartan

def _pair_centres(pi: np.ndarray, pj: np.ndarray, rho: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plus, minus, |pj - pi|): the centres of the radius-rho circles through
    pi and pj, in the float operations that fix each candidate's bits."""
    mid = (pi + pj) / 2.0
    d = np.abs(pj - pi)
    h = np.sqrt(np.maximum(rho * rho - (d / 2.0) ** 2, 0.0))
    perp = np.where(d > 0, 1j * (pj - pi) / np.where(d > 0, d, 1.0), 0.0)
    return mid + h * perp, mid - h * perp, d


def _densest_disk(pts: np.ndarray, rho: float) -> tuple[int, complex]:
    """(max count, center) over disks of radius rho covering input points.

    An optimal disk may be assumed to pass through two points, or to be
    centered at a point. The candidates are, in this order, the points, the
    plus centres and then the minus centres of the pairs with
    |p_i - p_j| <= 2 rho + tol, pairs in row-major (i, j), i < j order; a
    candidate c counts the points with |p - c| <= rho + tol in floats, and
    the first maximal candidate wins.

    The pairs come from one sort by real part: a point's partners lie in an
    x-band of width 2 rho + tau about it (tau is defined below). The
    point candidates' counts are exact from the pair distances. A pair
    candidate c lies, up to rounding, on the radius-rho circle about its
    pivot, the pair's first point in x order; a point q at distance D from
    the pivot is within rho + tau of that circle's point at angle phi iff
    cos(phi - arg(q - p)) >= (D^2 - 2 rho tau - tau^2) / (2 D rho), an arc
    of angles. With tau = 2 tol + 32 eps (max|p| + rho), which covers the
    float test's tol, the clamped h of nearly antipodal pairs (tol / 2) and
    the rounding of c, one angular sweep over these arcs about each pivot
    (Chazelle & Lee, "On a circle placement problem", Computing 36, 1986)
    bounds every pair candidate's float count from above. Only candidates
    whose bound beats the best point count are kept; they are tested with
    the same float test, in descending-bound order, until a bound falls
    below the best count found. Every candidate left untested counts less
    than the winner, or as many but later in the order, so the winner and
    its bits are those of testing every candidate. Pivots go in blocks of at
    most _BAND_BLOCK band entries, so no temporary grows with n^2. Cost:
    O(P log P) for P band pairs, plus n per tested candidate.
    """
    n = len(pts)
    tol = 1e-9 * max(rho, 1.0)
    tau = 2.0 * tol + 32.0 * _EPS * (float(np.abs(pts).max()) + rho)
    reach = 2.0 * rho + tau
    order = np.argsort(pts.real)
    z = pts[order]
    lo, hi = _x_band(z.real, z.real, reach)
    counts = np.empty(n, dtype=np.int64)   # exact point-candidate counts
    keys, bounds = [], []
    floor = 0   # best point count so far: only pair bounds above it matter
    ends = np.cumsum(hi - lo)
    a0 = 0
    while a0 < n:
        start = ends[a0 - 1] if a0 else 0
        a1 = max(a0 + 1, int(np.searchsorted(ends, start + _BAND_BLOCK, "right")))
        piv, nb = _band_pairs(lo[a0:a1], hi[a0:a1], a0)
        dz = z[nb] - z[piv]
        d = np.abs(dz)
        own = 1 + np.bincount(piv[d <= rho + tol] - a0, minlength=a1 - a0)
        counts[order[a0:a1]] = own
        floor = max(floor, int(own.max()))
        near = d <= reach
        # a pivot's candidates count at most its near points and itself
        deg = np.bincount(piv[near] - a0, minlength=a1 - a0)
        near &= (deg >= floor)[piv - a0]
        piv, nb, dz, d = piv[near], nb[near], dz[near], d[near]
        # each pair once, at its first point in x order; the close test and
        # the centres take p_i - p_j and p_j - p_i as the candidate order did
        fwd = nb > piv
        i = np.minimum(order[piv[fwd]], order[nb[fwd]])
        j = np.maximum(order[piv[fwd]], order[nb[fwd]])
        close = np.abs(pts[i] - pts[j]) <= 2.0 * rho + tol
        i, j, qpiv = i[close], j[close], piv[fwd][close]
        plus, minus, dij = _pair_centres(pts[i], pts[j], rho)
        # a repeat's centres are its point, which comes first with the same count
        moved = dij > 0
        i, j, qpiv = i[moved], j[moved], np.tile(qpiv[moved], 2)
        cands = np.concatenate([plus[moved], minus[moved]])
        bound = _sweep_bound(piv - a0, d, np.angle(dz), qpiv - a0,
                             np.angle(cands - z[qpiv]), a1 - a0, rho, tau)
        key = np.concatenate([n * n + i * n + j, 2 * n * n + i * n + j])
        up = bound > floor
        keys.append(key[up])
        bounds.append(bound[up])
        a0 = a1

    best_key = int(np.argmax(counts))
    best = int(counts[best_key])
    key, bound = np.concatenate(keys), np.concatenate(bounds)
    up = bound > best
    key, bound = key[up], bound[up]
    by_bound = np.lexsort((key, -bound))
    key, bound = key[by_bound], bound[by_bound]
    rows = max(1, (1 << 16) // n)   # at most 2^16 distances a chunk
    pos = 0
    while pos < key.size and bound[pos] >= best:
        blk = key[pos:pos + rows]
        c = _candidates(pts, blk, rho)
        found = (np.abs(pts[None, :] - c[:, None]) <= rho + tol).sum(axis=1)
        top = int(found.max())
        if top >= best:
            first = int(blk[found == top].min())
            best_key = first if top > best else min(best_key, first)
            best = top
        pos += rows
    if best_key < n:
        return best, complex(pts[best_key])
    return best, complex(_candidates(pts, np.array([best_key]), rho)[0])


def _candidates(pts: np.ndarray, keys: np.ndarray, rho: float) -> np.ndarray:
    """Pair candidate centres by order key kind * n^2 + i n + j: the plus
    (kind 1) or minus (kind 2) centre of the pair (i, j)."""
    n = len(pts)
    kind, pair = np.divmod(keys, n * n)
    i, j = np.divmod(pair, n)
    plus, minus, _ = _pair_centres(pts[i], pts[j], rho)
    return np.where(kind == 1, plus, minus)


def _band_pairs(lo: np.ndarray, hi: np.ndarray, a0: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(pivot, partner) positions: pivot a0 + k with every partner in
    [lo[k], hi[k]) but itself."""
    width = hi - lo
    piv = np.repeat(np.arange(a0, a0 + lo.size), width)
    nb = np.arange(int(width.sum())) + np.repeat(lo - (np.cumsum(width) - width), width)
    keep = nb != piv
    return piv[keep], nb[keep]


def _sweep_bound(piv: np.ndarray, d: np.ndarray, theta: np.ndarray,
                 qpiv: np.ndarray, phi: np.ndarray, m: int,
                 rho: float, tau: float) -> np.ndarray:
    """Upper bound on each query's float count: 1 for its pivot plus the
    points (at distance d and angle theta from pivot piv) whose widened arc
    holds the query angle phi about pivot qpiv; pivots are 0..m-1."""
    d_lo = d * (1.0 - 2.0 * _EPS)   # at most the exact distance
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = d_lo / (2.0 * rho)
        t2 = (2.0 * rho * tau + tau * tau) / (2.0 * rho * d_lo)
        x = t1 - t2 - 8.0 * _EPS * (t1 + t2)   # at most the exact cosine
    # rho = 0 or a repeat of the pivot: every angle
    x = np.where(rho * d_lo > 0, np.nan_to_num(x, nan=-1.0), -1.0)
    alpha = np.arccos(np.clip(x, -1.0, 1.0)) + _ARC_SLACK
    full = alpha >= math.pi
    n_full = np.bincount(piv[full], minlength=m)
    piv, theta, alpha = piv[~full], theta[~full], alpha[~full]
    s = theta - alpha
    s = np.where(s < 0.0, s + 2.0 * math.pi, s)
    e = s + 2.0 * alpha
    wrap = e > 2.0 * math.pi
    # the arc [s, e], s in [0, 2pi], holds phi in [0, 2pi) iff s <= phi <= e,
    # or it wraps and phi <= e - 2pi: count = #(s <= phi) - #(e < phi) + wraps
    # - #(wraps with e - 2pi < phi), one sweep of +1 and -1 events per pivot.
    # Each pivot's events sit in [32 g, 32 g + 19); a start or end moved out by
    # 4 ulps of the largest key keeps its side of a query through rounding.
    pad = 4.0 * _EPS * 32.0 * (m + 1)
    g_arc = 32.0 * piv + 2.0 * math.pi
    phi = np.where(phi < 0.0, phi + 2.0 * math.pi, phi)
    key = np.concatenate([g_arc + s - pad, g_arc + e + pad,
                          (g_arc[wrap] + (e[wrap] - 2.0 * math.pi)) + pad,
                          (32.0 * qpiv + 2.0 * math.pi) + phi])
    n_ev = key.size - qpiv.size
    w = np.concatenate([np.ones(piv.size, dtype=np.int64),
                        np.full(n_ev - piv.size, -1, dtype=np.int64),
                        np.zeros(qpiv.size, dtype=np.int64)])
    sweep = np.argsort(key)
    before = np.cumsum(w[sweep])
    at = np.flatnonzero(sweep >= n_ev)   # the queries, in sweep order
    q = sweep[at] - n_ev
    # the cumsum runs across pivots; each earlier pivot's events sum to -wraps
    n_wrap = np.bincount(piv[wrap], minlength=m)
    base = n_wrap - np.cumsum(n_wrap)
    out = np.empty(qpiv.size, dtype=np.int64)
    g = qpiv[q]
    out[q] = 1 + n_full[g] + n_wrap[g] + before[at] - base[g]
    return out


def _greedy_concentration(points: np.ndarray,
                          schedule: Callable[[int], float]
                          ) -> list[tuple[complex, int]]:
    """Capture points by maximal-level disks; returns (center, captured) pairs.

    At each step the largest lam is found such that a disk of radius
    schedule(lam) contains >= lam surviving points; that disk's points are
    removed. Probing jumps lam down to the observed count, which skips only
    levels already known infeasible, so selected levels are exactly maximal.
    The captured count n_i >= lam_i, and radii derived from n_i keep every
    budget of the form sum g(n_i/n) <= g-total because sum n_i = n.
    """
    remaining = points.copy()
    lam_cap = len(points)
    captured: list[tuple[complex, int]] = []
    while len(remaining):
        lam = min(lam_cap, len(remaining))
        while True:
            count, center = _densest_disk(remaining, schedule(lam))
            if count >= lam:
                break
            lam = min(count, lam - 1)
            if lam < 1:
                raise CertificateFailure("level-1 disk must always exist")
        lam_cap = lam
        if lam == 1:
            # no schedule(2)-disk holds two points, so singletons are maximal
            captured.extend((complex(p), 1) for p in remaining)
            break
        rho = schedule(lam)
        keep = np.abs(remaining - center) > rho + 1e-9 * max(rho, 1.0)
        inside = int((~keep).sum())
        if inside < lam:
            raise CertificateFailure("selected disk lost its points")
        captured.append((center, inside))
        remaining = remaining[keep]
    return captured


def _exceptional_disks(points: np.ndarray, schedule: Callable[[int], float],
                       exact_sum: Callable[[list[float]], Fraction],
                       budget: Fraction) -> tuple[DiskSet, Fraction]:
    """Greedy concentration, each captured disk inflated to 2*schedule(n_i),
    radii nudged down by 1 ulp-scale steps until the exact sum is within
    the budget; returns the disks and that exact sum."""
    captured = _greedy_concentration(points, schedule)
    rs = [2.0 * schedule(n_i) for _, n_i in captured]
    for _ in range(5):
        total = exact_sum(rs)
        if total <= budget:
            return DiskSet(tuple((c, r) for (c, _), r in zip(captured, rs))), total
        rs = [r * (1.0 - 4e-16) for r in rs]
    raise CertificateFailure("budget cannot be satisfied by rounding nudges")


@dataclass(frozen=True)
class FuchsCertificate:
    n_points: int
    n_disks: int
    H: float
    sum_sq_radii: float
    budget: float               # 4 H^2
    harmonic_bound: float       # 2 n / H
    max_harmonic_sum: float     # worst probe value of sum 1/|z - z_k|
    n_probes: int


def fuchs_macintyre_disks(points: Sequence[complex], H: float,
                          n_probes: int = 10_000
                          ) -> tuple[DiskSet, FuchsCertificate]:
    """Exceptional disks with sum t_k^2 <= 4H^2 and the harmonic-sum bound.

    Construction: greedy concentration with radius schedule H*sqrt(lam/n),
    each selected disk inflated by the factor 2. The certificate checks the
    square budget exactly (rational arithmetic) and the bound
    sum_k 1/|z - z_k| <= 2n/H at Halton probes outside the disks, the sum
    running over all n input points.
    """
    pts = np.asarray([complex(p) for p in points], dtype=np.complex128)
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point")
    _require_finite(pts, "point")
    require_positive("H", H)
    budget = 4 * Fraction(H) ** 2
    disks, sum_sq = _exceptional_disks(
        pts, lambda lam: H * math.sqrt(lam / n),
        lambda rs: sum(Fraction(r) ** 2 for r in rs), budget)

    bound = 2.0 * n / H
    cs, rs_arr = disks.centers(), disks.radii()
    pad = 2.0 * H + float(rs_arr.max())
    lo_x = min(pts.real.min(), (cs.real - rs_arr).min()) - pad
    hi_x = max(pts.real.max(), (cs.real + rs_arr).max()) + pad
    lo_y = min(pts.imag.min(), (cs.imag - rs_arr).min()) - pad
    hi_y = max(pts.imag.max(), (cs.imag + rs_arr).max()) + pad
    probes = halton_points(4 * n_probes, lo_x, hi_x, lo_y, hi_y)
    probes = probes[disks.mask_outside(probes)][:n_probes]
    hsum = np.zeros(probes.shape)
    for p in pts:
        hsum += 1.0 / np.abs(probes - p)
    worst = float(hsum.max()) if probes.size else 0.0
    # float() rounds the exact sum to nearest, so it cannot exceed the
    # rounded budget either
    cert = FuchsCertificate(n, len(disks), H, float(sum_sq),
                            float(budget), bound, worst, int(probes.size))
    if not worst <= bound * (1.0 + 1e-12):   # a NaN probe sum fails too
        raise CertificateFailure(f"fuchs-macintyre harmonic audit failed: {cert}")
    return disks, cert


@dataclass(frozen=True)
class CartanCertificate:
    n_zeros: int
    n_disks: int              # reported disk count, not constrained
    eta: float
    R: float
    sum_radii: float
    budget: float             # 4 eta R
    log_max_modulus_2eR: float
    bound_rhs: float          # -(2 + log(3e/2eta)) * log M(2eR, g)
    min_log_g: float          # worst probe value of log|g|
    n_probes: int


def _poly_log_abs(zeros: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """log|prod (1 - z/z_k)| evaluated stably as a sum of logs."""
    out = np.zeros(zs.shape)
    with np.errstate(divide="ignore"):
        for zk in zeros:
            out += np.log(np.abs(1.0 - zs / zk))
    return out


def cartan_levin_disks(zeros: Sequence[complex], R: float, eta: float,
                       n_probes: int = 10_000
                       ) -> tuple[DiskSet, CartanCertificate]:
    """Minimum-modulus exceptional disks for g(z) = prod (1 - z/z_k).

    Boutroux-Cartan greedy on the zero multiset with the linear schedule
    lam*H/n (H = 2*eta*R) and inflation by 2, so sum s_k <= 4*eta*R exactly.
    The certificate audits log|g(z)| > -(2 + log(3e/2eta)) * log M(2eR, g) on
    a Halton probe set in D(0, R) outside the disks, with M(2eR, g) computed
    from the factorization. An empty zero list yields an empty disk set.
    """
    zks = np.asarray([complex(z) for z in zeros], dtype=np.complex128)
    _require_finite(zks, "zero")
    if (zks == 0).any():
        raise ValueError("zeros must be nonzero so that g(0) = 1")
    require_positive("R", R)
    if not (0.0 < eta < 1.5 * math.e):
        raise ValueError("eta must lie in (0, 3e/2)")
    n = len(zks)
    two_e_r = 2.0 * math.e * R
    ring = two_e_r * np.exp(1j * angle_grid(2048))
    log_m = float(_poly_log_abs(zks, ring).max()) if n else 0.0
    rhs = -(2.0 + math.log(1.5 * math.e / eta)) * log_m

    if n == 0:
        cert = CartanCertificate(0, 0, eta, R, 0.0, 4.0 * eta * R, log_m,
                                 rhs, 0.0, 0)
        return DiskSet(()), cert

    H = 2.0 * eta * R
    budget = 4 * Fraction(eta) * Fraction(R)
    disks, sum_r = _exceptional_disks(
        zks, lambda lam: lam * H / n,
        lambda rs: sum(Fraction(r) for r in rs), budget)

    probes = halton_points(4 * n_probes, -R, R, -R, R)
    probes = probes[np.abs(probes) <= R]
    probes = probes[disks.mask_outside(probes)][:n_probes]
    vals = _poly_log_abs(zks, probes)
    worst = float(vals.min()) if probes.size else math.inf
    cert = CartanCertificate(n, len(disks), eta, R, float(sum_r),
                             float(budget), log_m, rhs, worst, int(probes.size))
    if probes.size and not worst > rhs:   # NaN fails too
        raise CertificateFailure(f"cartan-levin minimum-modulus audit failed: {cert}")
    return disks, cert
