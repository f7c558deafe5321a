"""Orbit iteration and escape classification with a survival-track certificate.

A start point is classified Escaped(k) only when its orbit crosses the
bailout threshold at step k while the whole observed track satisfied
log|z_j| > log beta^j(r0) for every j <= k. That track condition is the
finite-horizon version of the nested survival sets T_n; the verdict is a
certificate about the observed horizon, never a proof of escape.

Iteration runs in plain complex arithmetic while representable; the final
comparison after a floating overflow is redone in log space from the last
representable iterate, so escape steps are decided on true log-moduli.
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
            f"radius (log r_max = {model.certified_log_radius:.3g}); rebuild "
            "the product with a larger r_max or lower the bailout")
    return np.array(beta_log_track(beta, r0, max_iter))


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
                    max_iter: int, bailout_log: float,
                    stop_below_track: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised classifier; returns (verdict codes, step of decision).

    ``track`` holds log beta^j(r0) for j = 0..max_iter (+inf sentinel allowed).
    The loop holds only the undecided points and drops the decided ones with
    one boolean compress per step. With ``stop_below_track`` a point leaves at
    the first step with log|z_k| <= log beta^k(r0) as BELOW_TRACK, since it
    can never be Escaped; without it the point is iterated on, so a later
    bailout crossing reads Indeterminate and no crossing Survived.
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

    for k in range(max_iter + 1):
        # survival-track comparison; lm > +inf sentinel is False, so a point
        # whose track left the float range can never be escape-certified
        track_ok &= lm > track[k]
        # later writes win: zero hit over NaN over a crossing over the track
        verdict = np.full(idx.size, SURVIVED, dtype=np.uint8)
        if stop_below_track:
            verdict[~track_ok] = BELOW_TRACK
        crossed = lm >= bailout_log
        verdict[crossed] = np.where(track_ok[crossed], ESCAPED, INDETERMINATE)
        verdict[np.isnan(lm)] = INDETERMINATE
        verdict[zero_hit] = ZERO_HIT
        decided = verdict != SURVIVED
        if decided.any():
            codes[idx[decided]], steps[idx[decided]] = verdict[decided], k
            keep = ~decided
            idx, z, lm, track_ok = idx[keep], z[keep], lm[keep], track_ok[keep]

        if k == max_iter or idx.size == 0:
            break

        znext = model.plain_values(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            lm = np.log(np.abs(znext))
        bad = ~np.isfinite(np.abs(znext))
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


def escape_map(model: FunctionModel, window: Window, width: int, height: int,
               r0: float, beta: GrowthMinorant, max_iter: int = 50,
               bailout_log: float = DEFAULT_BAILOUT_LOG) -> EscapeMap:
    """Classify every pixel center of the window, the cells of
    ``GridPlan(width, height)`` in raster order; deterministic raster."""
    track = _orbit_track(model, beta, r0, max_iter, bailout_log)

    def pixels(zs: np.ndarray) -> np.ndarray:
        codes, steps = _classify_batch(model, zs, track, max_iter, bailout_log)
        pix = np.where(codes == ESCAPED, np.clip(steps, 1, 254), 0).astype(np.uint8)
        pix[(codes == INDETERMINATE) | (codes == ZERO_HIT)] = 255
        return pix

    pix = sweep(pixels, window, GridPlan(width, height))
    return EscapeMap(window, width, height, pix.reshape(height, width))


def measure_estimate(model: FunctionModel, region: Region, plan: SamplePlan,
                     beta: GrowthMinorant, r0: float | None = None,
                     max_iter: int = 50,
                     bailout_log: float = DEFAULT_BAILOUT_LOG) -> DensityReport:
    """Density of Escaped verdicts over the region: a lower-bound estimator
    for dens(I(f), region) up to classification error.

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

    def escaped(chunk: np.ndarray) -> np.ndarray:
        codes, _ = _classify_batch(model, chunk, track, max_iter, bailout_log,
                                   stop_below_track=True)
        return codes == ESCAPED

    report = annulus_density(escaped, region, plan)
    return replace(report, fast_escaping_beta=beta.fast_escaping_form)
