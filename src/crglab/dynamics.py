"""Orbit iteration and escape classification with a survival-track certificate.

A start point is classified Escaped(k) only when its orbit crosses the
bailout threshold at step k while the whole observed track satisfied
log|z_j| > log beta^j(r0) for every j <= k. That track condition is the
finite-horizon version of the nested survival sets T_n; the verdict is a
certificate about the observed horizon, never a proof of escape.

Iteration runs in plain complex arithmetic while representable; the final
comparison after a floating overflow is redone in log space from the last
representable iterate, so escape steps are decided on true log-moduli.
Before f(z_k) is evaluated, the model's closed-form ``log_abs_lower_bound``
is asked for a lower bound of log|f(z_k)|; where it reaches the bailout, the
point is decided at step k + 1 without the evaluation that would overflow,
with the verdict the comparison at k + 1 would give, since the log|z_(k+1)|
that comparison reads is at least the bound.
Indeterminate is a first-class verdict: it marks orbits whose comparison
could not be completed (overflow to NaN, beta-track beyond float range, or a
bailout crossing with a broken track that cannot be iterated further).

Both entry points classify batches and sample through ``criteria``:
``measure_estimate`` counts Escaped verdicts through the sampler and report
of the A and B densities, ``criteria.annulus_density``, and ``escape_map``
classifies the cells of a window grid plan through ``criteria.sweep``. One
start point is a one-pixel ``escape_map`` of a window centred on it.

``measure_estimate`` stops following an orbit at the first step with
log|z_k| <= log beta^k(r0), since it can no longer be Escaped; ``escape_map``
iterates it on, because its raster tells Survived (0) from a crossing on a
broken track (255). The Escaped verdicts, and so every artifact byte, are the
same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criteria import (AnnulusSpec, DensityReport, GridPlan, Region, SamplePlan,
                       Window, annulus_density, sweep)
from .growth import GrowthMinorant, beta_log_track
from .models import FunctionModel

# verdict codes used by the batch classifier and the raster
SURVIVED = 0
ESCAPED = 1
ZERO_HIT = 2
INDETERMINATE = 3
BELOW_TRACK = 4     # measure only: left at the first track failure

DEFAULT_BAILOUT_LOG = 500.0


def _orbit_track(model: FunctionModel, beta: GrowthMinorant, r0: float,
                 max_iter: int, bailout_log: float) -> np.ndarray:
    """log beta^j(r0), j = 0..max_iter. Orbits take 1..max_iter steps up to
    |z| = exp(bailout_log), which must stay representable and within the
    model's certified log radius."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not bailout_log <= 700.0:   # NaN fails too
        raise ValueError("bailout_log must stay exp-representable (<= 700)")
    if bailout_log > model.certified_log_radius:
        raise ValueError(
            f"bailout_log = {bailout_log:g} exceeds the model's certified "
            f"radius (log r = {model.certified_log_radius:.3g}); lower the bailout")
    return np.array(beta_log_track(beta, r0, max_iter))


def _crossing_floor(model: FunctionModel, bailout_log: float) -> tuple[float, float]:
    """(floor, reach) of the closed-form crossings: a point is decided without
    evaluating f where its certified log|f| reaches floor = max(bailout_log, 0),
    above which no evaluation of f underflows to a zero hit, and the bound is
    taken only at points with log|z| >= reach, the model's ``log_abs_reach``
    of the floor."""
    floor = max(bailout_log, 0.0)
    return floor, model.log_abs_reach(floor)


@dataclass(frozen=True)
class EscapeMap:
    """Raster of verdict codes: 0 survived, 1..254 escape step (clamped),
    255 indeterminate or zero-hit. Row-major, top row = max imaginary part."""

    window: Window
    width: int
    height: int
    codes: np.ndarray        # uint8, shape (height, width)

    def escaped_fraction(self) -> float:
        esc = (self.codes >= 1) & (self.codes <= 254)
        return float(esc.sum()) / self.codes.size

    def to_pgm(self) -> bytes:
        header = f"P5\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.codes.astype(np.uint8).tobytes()


def _classify_batch(model: FunctionModel, z0s: np.ndarray, track: np.ndarray,
                    bailout_log: float, floor: float, reach: float,
                    stop_below_track: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised classifier; returns (verdict codes, step of decision).

    ``track`` holds log beta^j(r0) for j = 0..max_iter (+inf sentinel
    allowed), which fixes the horizon max_iter; ``floor`` and ``reach`` are
    ``_crossing_floor`` of the model and ``bailout_log``.
    The loop holds only the undecided points and drops the decided ones with
    one boolean compress per step. With ``stop_below_track`` a point leaves at
    the first step with log|z_k| <= log beta^k(r0) as BELOW_TRACK, since it
    can never be Escaped; without it the point is iterated on, so a later
    bailout crossing reads Indeterminate and no crossing Survived.
    A point whose certified log|f(z_k)| reaches ``floor`` is decided at
    step k + 1 without evaluating f: Escaped where the track held so far and
    the bound exceeds log beta^(k+1)(r0), Indeterminate where the track
    already failed; any other point is evaluated. The bound is taken only at
    points with log|z_k| >= ``reach``.
    When plain evaluation of the next iterate overflows, the step is redone
    through log-space evaluation: either the iterate is reconstructed as
    exp(log f), or its log-modulus is known to exceed 709 > bailout_log and
    the point is decided on the next comparison.
    """
    z = np.array(z0s, dtype=np.complex128).ravel()
    n = z.size
    codes = np.full(n, SURVIVED, dtype=np.uint8)
    steps = np.full(n, -1, dtype=np.int32)
    idx = np.arange(n)
    track_ok = np.ones(n, dtype=bool)
    zero_hit = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore"):
        lm = np.log(np.abs(z))
    max_iter = track.size - 1

    for k in range(max_iter + 1):
        # survival-track comparison; lm > +inf sentinel is False, so a point
        # whose track left the float range can never be escape-certified
        track_ok &= lm > track[k]
        # a bailout crossing, or NaN, whose track comparison fails too
        out = ~(lm < bailout_log)
        decided = out | zero_hit
        if stop_below_track:
            decided |= ~track_ok
        if decided.any():
            # a zero hit over a crossing or NaN over the track
            verdict = np.where(out[decided],
                               np.where(track_ok[decided], ESCAPED, INDETERMINATE),
                               BELOW_TRACK)
            verdict[zero_hit[decided]] = ZERO_HIT
            codes[idx[decided]], steps[idx[decided]] = verdict, k
            keep = ~decided
            idx, z, lm, track_ok = idx[keep], z[keep], lm[keep], track_ok[keep]

        if k == max_iter or idx.size == 0:
            break

        esc, ind = _crossings(model, z, lm >= reach, track_ok, floor, track[k + 1])
        if esc.size or ind.size:
            codes[idx[esc]], codes[idx[ind]] = ESCAPED, INDETERMINATE
            steps[idx[esc]] = steps[idx[ind]] = k + 1
            keep = np.ones(idx.size, dtype=bool)
            keep[esc] = keep[ind] = False
            idx, z, track_ok = idx[keep], z[keep], track_ok[keep]

        znext = model.plain_values(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            mod = np.abs(znext)
            lm = np.log(mod)
        bad = ~np.isfinite(mod)
        zero_hit = np.zeros(idx.size, dtype=bool)
        if bad.any():
            la, ph, ok = model.log_eval_many(z[bad])
            rebuilt = np.where(ok & (la < 709.0),
                               np.exp(np.minimum(la, 709.0)) * np.exp(1j * ph),
                               np.inf + 0.0j)
            rebuilt = np.where(ok, rebuilt, 0.0 + 0.0j)
            znext[bad] = rebuilt
            lm[bad] = np.where(ok, la, -np.inf)
            zero_hit[bad] = ~ok
        z = znext

    return codes, steps


def _crossings(model: FunctionModel, z: np.ndarray, near: np.ndarray,
               track_ok: np.ndarray, floor: float, next_track: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the points, among the ``near`` ones, whose certified
    log|f(z)| reaches ``floor``, split into (Escaped, Indeterminate) at the
    next step. The float log|f(z)| the next comparison would read is at
    least the bound, so that comparison would give the same verdicts."""
    near = np.flatnonzero(near)
    if near.size == 0:
        return near, near
    lb = model.log_abs_lower_bound(z[near])
    sure, ok = lb >= floor, track_ok[near]
    return near[sure & ok & (lb > next_track)], near[sure & ~ok]


def escape_map(model: FunctionModel, window: Window, width: int, height: int,
               r0: float, beta: GrowthMinorant, max_iter: int = 50,
               bailout_log: float = DEFAULT_BAILOUT_LOG) -> EscapeMap:
    """Classify every pixel center of the window, the cells of
    ``GridPlan(width, height)`` in raster order; deterministic raster."""
    track = _orbit_track(model, beta, r0, max_iter, bailout_log)
    crossing = _crossing_floor(model, bailout_log)

    def pixels(zs: np.ndarray) -> np.ndarray:
        codes, steps = _classify_batch(model, zs, track, bailout_log, *crossing)
        pix = np.where(codes == ESCAPED, np.clip(steps, 1, 254), 0).astype(np.uint8)
        pix[(codes == INDETERMINATE) | (codes == ZERO_HIT)] = 255
        return pix

    pix = sweep(pixels, window, GridPlan(width, height))
    return EscapeMap(window, width, height, pix.reshape(height, width))


def measure_estimate(model: FunctionModel, region: Region, plan: SamplePlan,
                     beta: GrowthMinorant, r0: float | None = None,
                     max_iter: int = 50,
                     bailout_log: float = DEFAULT_BAILOUT_LOG) -> DensityReport:
    """Density of Escaped verdicts over the region: the finite-horizon
    escaped fraction, not an estimate of dens(I(f), region): on e^z,
    ``mc:100000:1`` over ann(3000) with r0 = 2 reads 0.479, yet I(e^z) has
    zero area.

    For an annulus, r0 defaults to its inner radius r/2 so the |z| > r0
    gate is implied by the region itself. An orbit is no longer followed
    once it is at or below the survival track (BELOW_TRACK), where
    ``escape_map`` iterates it on; the Escaped verdicts, and so the report,
    are the same.
    """
    if r0 is None:
        if isinstance(region, AnnulusSpec):
            r0 = region.inner
        else:
            raise ValueError("r0 is required for window regions")
    track = _orbit_track(model, beta, r0, max_iter, bailout_log)
    crossing = _crossing_floor(model, bailout_log)

    def escaped(chunk: np.ndarray) -> np.ndarray:
        codes, _ = _classify_batch(model, chunk, track, bailout_log, *crossing,
                                   stop_below_track=True)
        return codes == ESCAPED

    report = annulus_density(escaped, region, plan)
    return replace(report, fast_escaping_beta=beta.fast_escaping_form)
