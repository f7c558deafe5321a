"""Outside-in tracing of crglab's layers for the traced benchmark run.

The tracer wraps public functions and methods of each crglab module from
here; no file of the library changes. Module-level functions are replaced in
the namespace the caller looks them up in (``criteria`` and ``dynamics`` each
import ``map_chunked`` by name, ``cli`` imports ``parse_function_spec``), and
methods are replaced on their class. A name that a later version of the
library no longer has is skipped, so its metrics read 0.

Spans are kept in memory as lists
``[id, name, start, end, parent, op, thread, n, bad]`` where ``n`` is the
number of points (or disks, or factors) the call handled and ``bad`` the
number of points a guard rejected. Each span is mutated only by the thread
that opened it and appended once when it closes, so worker threads of
``map_chunked`` need no lock.
"""

from __future__ import annotations

import functools
import itertools
import threading
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ID, NAME, START, END, PARENT, OP, THREAD, N, BAD = range(9)

# calls whose peak traced allocation is reported, keyed by metric name
_MEMORY_KEYS = {
    "criteria.sample_points": "criteria.sample_points.peak_mb",
    "models.product.log_eval_many": "models.product.peak_mb",
    "models.product.log_derivative_many": "models.product.peak_mb",
    "covering.fuchs_macintyre_disks": "covering.peak_mb",
    "covering.cartan_levin_disks": "covering.peak_mb",
    "covering.besicovitch_cover": "covering.peak_mb",
    "covering.besicovitch_audit": "covering.peak_mb",
}

LAYERS = ("growth", "models.expsum", "models.product", "criteria", "parallel",
          "dynamics", "covering", "parser", "cli")


def layer_of(name: str) -> str:
    if name.startswith("models."):
        return ".".join(name.split(".")[:2])
    return name.split(".")[0]


class Tracer:
    """Span recorder; records only while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.measure_memory = False
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, n: int = 0):
        stack = self._stack()
        rec = [next(self._ids), name, perf_counter(), 0.0,
               stack[-1] if stack else parent, self.op,
               threading.get_ident(), n, 0]
        stack.append(rec[ID])
        mem_key = _MEMORY_KEYS.get(name) if self.measure_memory else None
        if mem_key:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            stack.pop()
            if mem_key:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks_mb[mem_key] = max(self.peaks_mb[mem_key], peak)
            self.spans.append(rec)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    # -- patching ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, make) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(fn)
        setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        self._restore.append((owner, attr, raw))

    def _timed(self, name: str, note=None):
        """Wrapper factory: one span per call; ``note(rec, args, result)``
        fills the span's point and guard counts."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                    if note is not None:
                        note(rec, args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        from crglab import cli, covering, criteria, dynamics, growth, models, parallel, parser

        def pts(i):          # size of positional argument i
            def note(rec, args, result):
                rec[N] = int(np.size(args[i])) if len(args) > i else 0
            return note

        def eval_note(rec, args, result):        # (log_abs, phase, valid)
            rec[N] = int(np.size(result[2]))
            rec[BAD] = int(np.size(result[2]) - np.count_nonzero(result[2]))

        def deriv_note(rec, args, result):       # (L, ok)
            rec[N] = int(np.size(result[1]))
            rec[BAD] = int(np.size(result[1]) - np.count_nonzero(result[1]))

        def plain_note(rec, args, result):
            rec[N] = int(np.size(result))
            rec[BAD] = int(np.size(result) - np.count_nonzero(np.isfinite(result)))

        def size_note(rec, args, result):
            rec[N] = int(np.size(result))

        def disks_note(rec, args, result):
            disks = result[0] if isinstance(result, tuple) else result
            rec[N] = len(disks)

        def cutoff_note(rec, args, result):
            rec[N] = int(getattr(args[0], "cutoff", 0))

        for cls, tag in ((models.ExponentialSum, "models.expsum"),
                         (models.CanonicalProduct, "models.product")):
            self._patch(cls, "log_eval_many", self._timed(f"{tag}.log_eval_many", eval_note))
            self._patch(cls, "log_derivative_many",
                        self._timed(f"{tag}.log_derivative_many", deriv_note))
            self._patch(cls, "plain_values", self._timed(f"{tag}.plain_values", plain_note))
        self._patch(models.CanonicalProduct, "__init__",
                    self._timed("models.product.build", cutoff_note))

        self._patch(growth.GrowthMinorant, "log_beta_many",
                    self._timed("growth.log_beta_many", pts(1)))
        for ctor in ("exp_power", "growth_scale", "from_table"):
            self._patch(growth.GrowthMinorant, ctor, self._timed("growth.minorant_build"))
        for mod in (growth, dynamics):
            self._patch(mod, "beta_log_track", self._timed("growth.beta_log_track"))
        self._patch(growth, "series_condition_check",
                    self._timed("growth.series_condition_check"))

        for mod in (criteria, dynamics):
            self._patch(mod, "sample_points", self._timed("criteria.sample_points", size_note))
        for fname in ("annulus_density", "density_with_exclusions", "hypothesis_check_14b"):
            self._patch(criteria, fname, self._timed(f"criteria.{fname}"))
        for fname in ("predicate_A", "predicate_B"):
            self._patch(criteria, fname, self._traced_predicate)

        for mod in (criteria, dynamics, parallel):
            self._patch(mod, "map_chunked", self._traced_map_chunked)

        for fname in ("measure_estimate", "escape_map", "classify_orbit"):
            self._patch(dynamics, fname, self._timed(f"dynamics.{fname}"))

        for fname in ("fuchs_macintyre_disks", "cartan_levin_disks", "besicovitch_cover"):
            self._patch(covering, fname, self._timed(f"covering.{fname}", disks_note))
        self._patch(covering, "besicovitch_audit", self._timed("covering.besicovitch_audit"))
        self._patch(covering, "halton_points", self._timed("covering.halton_points", size_note))
        for meth in ("mask_outside", "multiplicity"):
            self._patch(covering.DiskSet, meth, self._timed(f"covering.{meth}", pts(1)))

        for mod in (cli, parser):
            self._patch(mod, "parse_function_spec", self._timed("parser.parse_function_spec"))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _traced_predicate(self, factory):
        """predicate_A/B return a closure; trace the closure's calls."""
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            pred = factory(*args, **kwargs)

            def traced(zs):
                if self.op is None:
                    return pred(zs)
                with self.span("criteria.predicate", n=int(np.size(zs))):
                    return pred(zs)
            return traced
        return wrapper

    def _traced_map_chunked(self, orig):
        """One span per call and one per chunk; chunks run on pool threads,
        so their parent is passed explicitly."""
        @functools.wraps(orig)
        def wrapper(fn, values, *rest, **kwargs):
            if self.op is None:
                return orig(fn, values, *rest, **kwargs)
            with self.span("parallel.map_chunked", n=int(np.size(values))) as rec:
                parent = rec[ID]

                def chunk(part):
                    with self.span("parallel.chunk", parent=parent, n=int(np.size(part))):
                        return fn(part)
                return orig(chunk, values, *rest, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans

def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        covered, edge = 0.0, rec[START]
        for lo, hi in sorted(children.get(rec[ID], ())):
            lo, hi = max(lo, edge), min(hi, rec[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[rec[ID]] = (rec[END] - rec[START]) - covered
    return out


def layer_metrics(spans: list[list], n_ops: int, samples: int,
                  workers: int) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, self seconds per op of every span name).

    Times and counts are means per traced op; shares are fractions of the
    summed self time of all spans.
    """
    self_s = self_times(spans)
    by_id = {rec[ID]: rec for rec in spans}
    tot_s: dict[str, float] = defaultdict(float)
    tot_n: dict[str, int] = defaultdict(int)
    tot_bad: dict[str, int] = defaultdict(int)
    max_n: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    dyn_n: dict[str, int] = defaultdict(int)    # points evaluated under dynamics
    for rec in spans:
        name = rec[NAME]
        owner = name
        if name == "parallel.chunk":
            # a chunk runs the caller's function: its untraced work is the
            # caller's (e.g. the orbit loop of dynamics), not the pool's
            pool = by_id.get(rec[PARENT])
            caller = by_id.get(pool[PARENT]) if pool is not None else None
            owner = caller[NAME] if caller is not None else name
        tot_s[owner] += self_s[rec[ID]]
        tot_n[name] += rec[N]
        tot_bad[name] += rec[BAD]
        max_n[name] = max(max_n[name], rec[N])
        calls[name] += 1
        if name.startswith("models."):
            parent = by_id.get(rec[PARENT])
            while parent is not None and not parent[NAME].startswith("dynamics."):
                parent = by_id.get(parent[PARENT])
            if parent is not None:
                dyn_n[name] += rec[N]

    ops = max(n_ops, 1)
    m: dict[str, float] = {}

    def per_op(key: str, value: float) -> None:
        m[key] = value / ops

    for name in ("growth.log_beta_many", "models.expsum.log_eval_many",
                 "models.expsum.log_derivative_many", "models.expsum.plain_values",
                 "models.product.log_eval_many", "models.product.log_derivative_many",
                 "covering.mask_outside", "covering.multiplicity",
                 "covering.halton_points"):
        per_op(f"{name}.s", tot_s[name])
        per_op(f"{name}.points", tot_n[name])
    for name in ("growth.minorant_build", "growth.beta_log_track",
                 "growth.series_condition_check", "criteria.sample_points",
                 "criteria.predicate", "parallel.map_chunked",
                 "dynamics.measure_estimate", "dynamics.escape_map",
                 "covering.fuchs_macintyre_disks", "covering.cartan_levin_disks",
                 "covering.besicovitch_cover", "covering.besicovitch_audit",
                 "parser.parse_function_spec"):
        per_op(f"{name}.s", tot_s[name])
    per_op("models.expsum.invalid", tot_bad["models.expsum.log_eval_many"])
    per_op("models.expsum.rejected", tot_bad["models.expsum.log_derivative_many"])
    per_op("models.expsum.nonfinite", tot_bad["models.expsum.plain_values"])
    evals = sum(tot_n[f"models.{fam}.{meth}"] for fam in ("expsum", "product")
                for meth in ("log_eval_many", "log_derivative_many"))
    evals += tot_n["models.expsum.plain_values"]
    m["models.evals_per_sample"] = evals / max(samples, 1)
    per_op("models.product.build_s", tot_s["models.product.build"])
    m["models.product.factors"] = float(max_n["models.product.build"])
    per_op("criteria.sample_points.n", tot_n["criteria.sample_points"])
    per_op("criteria.predicate.calls", calls["criteria.predicate"])
    per_op("parallel.chunks", calls["parallel.chunk"])
    pool_wall = sum(rec[END] - rec[START] for rec in spans
                    if rec[NAME] == "parallel.map_chunked")
    chunk_busy = sum(rec[END] - rec[START] for rec in spans
                     if rec[NAME] == "parallel.chunk")
    m["parallel.busy_ratio"] = chunk_busy / (pool_wall * workers) if pool_wall else 0.0
    per_op("dynamics.orbit_steps", dyn_n["models.expsum.plain_values"]
           + dyn_n["models.product.plain_values"])
    per_op("dynamics.logspace_redo", dyn_n["models.expsum.log_eval_many"]
           + dyn_n["models.product.log_eval_many"])
    constructions = ("covering.fuchs_macintyre_disks", "covering.cartan_levin_disks",
                     "covering.besicovitch_cover")
    n_constr = sum(calls[c] for c in constructions)
    m["covering.n_disks"] = (sum(tot_n[c] for c in constructions) / n_constr
                             if n_constr else 0.0)
    per_op("cli.self_s", tot_s["cli.run"])

    layer_s: dict[str, float] = defaultdict(float)
    for name, secs in tot_s.items():
        layer_s[layer_of(name)] += secs
    total = sum(layer_s.values()) or 1.0
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_s[layer] / total
    return m, {name: secs / ops for name, secs in tot_s.items()}
