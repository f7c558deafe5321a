"""crglab benchmark: five CLI workloads run in-process through crglab.cli.run.

Usage (from the repository root):

    python3 perfbench/run.py --workload density-A --seed 1 --seconds 15 --trace 0

One process runs a closed loop with one operation in flight, with
CRG_THREADS pinned to the number of CPUs this process may run on. Inputs come
from ``--seed``; every output is checked after the clock stops. The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A result file with a
provenance block is written to ``.perfbench_out/``, and the traced run also
writes its spans there. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
UNTRACED_SHARE = 0.3     # of --seconds, in the traced run, for the untraced baseline pass


def import_crglab():
    """Import crglab from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "crglab" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"perfbench: no crglab sources at {pkg.parent}")
    sys.path.insert(0, str(pkg.parent.parent))
    import crglab
    if Path(crglab.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"perfbench: imported crglab from {crglab.__file__}, not {pkg}")
    return crglab


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks summed over all CPUs, from /proc/stat.

    On a virtual machine the hypervisor can run other guests on our CPUs;
    the time it takes away is counted as steal. Where the file or the field
    is missing, nothing is stolen.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    fields += [0] * (8 - len(fields))
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq + steal, steal


def unstolen(wall: float, before: tuple[int, int], after: tuple[int, int]) -> float:
    """Wall time less the share the hypervisor stole from the busy CPUs."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return wall * (1.0 - steal / busy) if busy > 0 else wall


@dataclass
class Result:
    op: object
    seconds: float          # wall time less stolen time; the metrics use this
    wall: float
    outs: dict[str, bytes]
    error: str | None = None
    facts: dict = field(default_factory=dict)


class Runner:
    """Executes operations; each gets a fresh directory under ``work``."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.tracer = None            # set for the traced passes
        self._ids = itertools.count()

    def _argv(self, argv: list[str], d: Path) -> list[str]:
        return [str(d / a[1:]) if a.startswith("@") else a for a in argv]

    def execute(self, op, op_id: int | None = None) -> Result:
        d = self.work / f"op{next(self._ids)}"
        d.mkdir()
        for name, text in op.inputs.items():
            (d / name).write_text(text, encoding="ascii")
        argv = self._argv(op.argv, d)
        error = None
        ticks = cpu_ticks()
        t0 = perf_counter()
        try:
            if op_id is None:
                rc = self.cli.run(argv)
            else:
                self.tracer.op = op_id
                try:
                    with self.tracer.span("cli.run"):
                        rc = self.cli.run(argv)
                finally:
                    self.tracer.op = None
        except Exception as exc:      # a crash is a failed op, not a failed run
            rc, error = None, f"raised {exc!r}"
        wall = perf_counter() - t0
        seconds = unstolen(wall, ticks, cpu_ticks())
        outs = {}
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            try:
                outs = {name: (d / name).read_bytes() for name in op.outputs}
            except OSError as exc:
                error = f"missing output: {exc}"
        shutil.rmtree(d)
        return Result(op, seconds, wall, outs, error)

    def run_cli(self, argv: list[str]) -> bytes:
        """Reference run for a check; returns the bytes of ``@out.json``."""
        d = self.work / f"check{next(self._ids)}"
        d.mkdir()
        try:
            rc = self.cli.run(self._argv(argv, d))
            if rc != 0:
                raise CheckFailed(f"reference run exited {rc}: {' '.join(argv)}")
            return (d / "out.json").read_bytes()
        finally:
            shutil.rmtree(d)


def check_all(results: list[Result], run_cli) -> None:
    for res in results:
        if res.error is not None:
            continue
        try:
            res.facts = res.op.check(res.outs, run_cli) or {}
        except CheckFailed as exc:
            res.error = f"check failed: {exc}"
        except Exception as exc:      # malformed output surfaces here
            res.error = f"check raised {exc!r}"


def compare_bytes(reference: list[Result], results: list[Result]) -> None:
    for ref, res in zip(reference, results):
        if res.error is None and ref.error is None and res.outs != ref.outs:
            res.error = "artifact bytes differ from the untraced CRG_THREADS=nproc run"


def tail(durations: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 ops beyond it (nearest rank);
    the median when there are too few ops."""
    xs = sorted(durations)
    n = len(xs)
    for q in range(99, 49, -1):
        k = math.ceil(q / 100 * n)
        if n - k >= 10:
            return q, xs[k - 1]
    return 50, statistics.median(xs)


def setup_seconds(workload: str) -> list[float]:
    """Set-up times of fresh interpreters, less the time stolen meanwhile."""
    out = []
    for _ in range(SETUP_REPEATS):
        ticks = cpu_ticks()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        wall = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        out.append(unstolen(wall, ticks, cpu_ticks()))
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(crglab, args, threads: str) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(), "crg_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "crglab_version": crglab.__version__,
        "git_commit": git_commit(), "platform": platform.platform(),
    }


def run_rounds(runner: Runner, workload, seed: int, first: int, seconds: float
               ) -> list[list[Result]]:
    """Whole rounds from ``first`` on, until ``seconds`` have passed."""
    rounds = []
    t0, rnd = perf_counter(), first
    while True:
        rounds.append([runner.execute(op) for op in workload.make_round(seed, rnd)])
        rnd += 1
        if perf_counter() - t0 >= seconds:
            return rounds


def end_to_end(rounds: list[list[Result]], setup: list[float]) -> tuple[dict, dict]:
    """Throughput is the median over rounds, so that a burst of load from
    outside the process moves it less than a mean would."""
    results = [r for rnd in rounds for r in rnd]
    durations = [r.seconds for r in results]
    q, tail_s = tail(durations)
    metrics = {
        "samples_per_s": statistics.median(
            sum(r.op.samples for r in rnd if r.error is None) / sum(r.seconds for r in rnd)
            for rnd in rounds),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.seconds)
    detail = {"op_s_tail_percentile": q, "timed_ops": len(durations),
              "rounds": len(rounds), "setup_s_runs": setup,
              "op_wall_s_p50": statistics.median(r.wall for r in results),
              "stolen_frac": 1.0 - sum(durations) / sum(r.wall for r in results),
              "op_s_p50_by_kind": {k: statistics.median(v) for k, v in by_kind.items()}}
    return metrics, detail


def traced_run(runner: Runner, workload, args, nproc: int
               ) -> tuple[list[Result], dict, dict]:
    """Untraced baseline, then traced replays of the same ops at CRG_THREADS
    = nproc and = 1, then one round under tracemalloc for peak memory.

    Layer times and shares come from the 1-thread replay: with more threads,
    a span's time also holds waits for the interpreter lock held by another
    chunk. The pool's own metrics come from the nproc replay.
    """
    rounds = run_rounds(runner, workload, args.seed, 1, args.seconds * UNTRACED_SHARE)
    base = [r for rnd in rounds for r in rnd]
    ops = [r.op for r in base]
    first_round = len(rounds[0])
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = [runner.execute(op, i) for i, op in enumerate(ops)]
        spans = tracer.take()
        os.environ["CRG_THREADS"] = "1"
        try:
            single = [runner.execute(op, i) for i, op in enumerate(ops)]
        finally:
            os.environ["CRG_THREADS"] = str(nproc)
        spans_single = tracer.take()
        tracemalloc.start()
        tracer.measure_memory = True
        try:
            memory = [runner.execute(op, i) for i, op in enumerate(ops[:first_round])]
        finally:
            tracemalloc.stop()
        tracer.take()
    finally:
        tracer.uninstall()

    check_all(base, runner.run_cli)
    for replay in (traced, single, memory):
        compare_bytes(base, replay)

    wall = {name: sum(r.seconds for r in rs)
            for name, rs in (("base", base), ("traced", traced), ("single", single))}
    samples = sum(op.samples for op in ops)
    metrics, self_per_op = layer_metrics(spans_single, len(ops), samples, 1)
    pool, _ = layer_metrics(spans, len(ops), samples, nproc)
    for key in ("parallel.map_chunked.s", "parallel.chunks", "parallel.busy_ratio"):
        metrics[key] = pool[key]
    metrics["parallel.speedup"] = wall["single"] / wall["traced"]
    metrics["trace.overhead_frac"] = (wall["traced"] - wall["base"]) / wall["base"]
    for key in ("criteria.sample_points.peak_mb", "models.product.peak_mb",
                "covering.peak_mb"):
        metrics[key] = tracer.peaks_mb.get(key, 0.0)
    facts = [r.facts for r in base]
    orbits = sum(f.get("orbits", 0) for f in facts)
    pixels = sum(f.get("pixels", 0) for f in facts)
    metrics["dynamics.escaped_frac"] = (sum(f.get("escaped", 0) for f in facts) / orbits
                                        if orbits else 0.0)
    metrics["dynamics.undecided_frac"] = (sum(f.get("undecided", 0) for f in facts) / pixels
                                          if pixels else 0.0)

    print(f"per-layer self time at CRG_THREADS=1, mean per op over {len(ops)} ops:")
    for name, secs in sorted(self_per_op.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {secs * 1e3:10.3f} ms")
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    keys = ("id", "name", "start", "end", "parent", "op", "thread", "n", "bad")
    with open(spans_path, "w", encoding="ascii") as fh:
        for threads, recs in ((nproc, spans), (1, spans_single)):
            for rec in recs:
                fh.write(json.dumps({**dict(zip(keys, rec)), "crg_threads": threads}) + "\n")
    detail = {"traced_ops": len(ops), "walls_s": wall, "spans_file": spans_path.name,
              "self_s_per_op": self_per_op}
    return base + traced + single + memory, metrics, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ap = argparse.ArgumentParser(description="crglab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    crglab = import_crglab()
    from crglab import cli

    nproc = len(os.sched_getaffinity(0))
    os.environ["CRG_THREADS"] = str(nproc)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        runner = Runner(cli, work)
        warm = [runner.execute(op) for op in workload.make_round(args.seed, 0)]
        check_all(warm, runner.run_cli)
        if args.trace:
            results, metrics, detail = traced_run(runner, workload, args, nproc)
            wanted = spec["per_layer"]
        else:
            setup = setup_seconds(args.workload)
            rounds = run_rounds(runner, workload, args.seed, 1, args.seconds)
            metrics, detail = end_to_end(rounds, setup)
            results = [r for rnd in rounds for r in rnd]
            check_all(results, runner.run_cli)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = warm + results
    failures = [f"{r.op.kind}: {r.error}" for r in results if r.error is not None]
    attempted, failed = len(results), len(failures)
    prov = provenance(crglab, args, str(nproc))
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"provenance": prov, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "failures": failures[:50],
              "metrics": out, "detail": detail}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("provenance " + json.dumps(prov))
    for line in failures[:10]:
        print("FAILED " + line)
    print(f"fail_frac {failed / attempted:.6g} 1 ({failed} of {attempted} ops)")
    for name, m in out.items():
        note = ""
        if name == "op_s_tail":
            note = f" (p{detail['op_s_tail_percentile']} of {detail['timed_ops']} ops)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
