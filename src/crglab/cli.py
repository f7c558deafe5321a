"""Command-line surface wiring the modules together.

Every artifact written here is byte-deterministic: floats are printed with
17 significant digits, line endings are LF, JSON key order is fixed, and all
sampling is seeded. CRG_THREADS caps worker parallelism without changing any
output byte.

Every rule a command applies (defaults, domain checks, geometry) lives in
the module that owns it; this module only parses, calls and writes. Each
kind of input has one way in: list and pair values (``--radii`` ladders,
``--r-list``, ``--size``, ``--samples``, ``--plan``, ``--window``) are
argparse ``type=`` functions that report the reason a value is refused, and
every numeric text file (points, zeros, radii, disks) is read by
``covering.read_columns`` with an exact column count. Each parameter has one
way in: ``--beta`` carries the whole minorant spec, the cascade depth N of
``growth-scale:N`` included, and is parsed before any model is built;
``--N`` sets the cascade of alpha and eps on exactly the three commands that
read it (``check-14``, ``verify-crg``, ``check-8l``); and each covering
construction is a subcommand of ``covering`` with exactly the options it
reads, so an option a command does not read is refused. Commands raise,
and ``run`` is the only place that reports an error or picks an exit code.
The argument parser is built on the first ``run`` call and reused after,
and ``analytic``, ``covering`` and ``dynamics`` are imported by the
commands that run them, so ``import crglab.cli`` does not load them.

Exit codes follow the error hierarchy: 0 success, 1 usage or parse failure
(any ValueError, including ParseError and BelowThreshold, OSError, or a
MemoryError from an input too large to hold),
3 certificate or audit failure (CertificateFailure), 2 any other CrgLabError
(overflow, zero hit, contour too close).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Callable, Sequence

from . import criteria, growth, models
from .errors import (CertificateFailure, CrgLabError, OverflowUnrepresentable,
                     require_increasing, require_positive)
from .parser import ExpSumNode, FunctionSpecAST, ProductNode, parse_function_spec


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_bytes(path: str, payload: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(payload)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_json(path: str, obj: dict) -> None:
    write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("ascii"))


def build_model(ast: FunctionSpecAST, r_max: float) -> models.FunctionModel:
    """Materialise an AST for radii up to r_max: products fix their cutoff
    for it, and a sum whose certified log radius it passes is refused."""
    if isinstance(ast, ExpSumNode):
        model = models.ExponentialSum([(t.coeffs, t.exponent) for t in ast.terms])
        # a radius that is not positive and finite is refused where it is read
        if 0.0 < r_max < math.inf and math.log(r_max) > model.certified_log_radius:
            raise OverflowUnrepresentable(
                f"|z| reaches {r_max:g}, past the radius "
                f"{math.exp(model.certified_log_radius):.6g} beyond which some b_k z "
                "of the sum leaves the float range")
        return model
    rule = models.PowerZeroRule(exponent=ast.power, angle=ast.angle)
    return models.CanonicalProduct(rule, ast.genus, ast.cut, r_max)


def default_order(ast: FunctionSpecAST) -> float:
    """The order rho of the model the AST describes."""
    return build_model(ast, 1.0).order


def _arg_type(parse):
    """``parse`` as an argparse ``type=`` that reports the message of its
    ValueError or OverflowError; argparse would name only the function."""
    @functools.wraps(parse)
    def typed(text: str):
        try:
            return parse(text)
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return typed


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


@_arg_type
def _parse_plan(text: str) -> criteria.SamplePlan:
    parts = text.split(":")
    if parts[0] == "mc" and len(parts) == 3:
        n = float(parts[1])
        if not n.is_integer():
            raise ValueError(f"sample count must be an integer, got {parts[1]!r}")
        return criteria.MonteCarloPlan(int(n), _int("seed", parts[2]))
    if parts[0] == "grid" and len(parts) == 3:
        return criteria.GridPlan(_int("grid dimension n1", parts[1]),
                                 _int("grid dimension n2", parts[2]))
    raise ValueError(
        f"plan must be 'mc:<n>:<seed>' or 'grid:<n1>:<n2>', got {text!r}")


@_arg_type
def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


@_arg_type
def _parse_window(text: str) -> criteria.Window:
    bounds = _parse_floats(text)
    if len(bounds) != 4:
        raise ValueError(f"window must be four numbers x0,x1,y0,y1, got {text!r}")
    return criteria.Window(*bounds)


@_arg_type
def _parse_size(text: str) -> tuple[int, int]:
    dims = text.split("x")
    if len(dims) != 2:
        raise ValueError(f"size must be WxH, two integers joined by x, got {text!r}")
    return _int("width", dims[0]), _int("height", dims[1])


@_arg_type
def _parse_samples(text: str) -> list[tuple[float, float]]:
    out = []
    for piece in text.split(";"):
        pair = tuple(float(p) for p in piece.split(":"))
        if len(pair) != 2 or not all(map(math.isfinite, pair)):
            raise ValueError(f"sample {piece!r} is not a finite r:theta pair")
        require_positive("sample radius r", pair[0])
        out.append(pair)
    return out


@_arg_type
def _parse_beta(text: str) -> Callable[[float], growth.GrowthMinorant]:
    """The minorant of a ``--beta`` spec as a function of the model's order
    rho, which only ``growth-scale`` reads; c and mu, or N, are checked here."""
    kind, _, rest = text.partition(":")
    if kind == "exp-power":
        params = _parse_floats(rest)
        if len(params) != 2:
            raise ValueError(f"exp-power takes two numbers <c>,<mu>, got {rest!r}")
        beta = growth.GrowthMinorant.exp_power(*params)
        return lambda rho: beta
    if kind == "growth-scale":
        try:
            cascade = growth.EpsilonCascade(int(rest or 1))
        except ValueError as exc:
            raise ValueError(f"growth-scale depth N must be a positive integer, "
                             f"got {rest!r}") from exc
        return lambda rho: growth.GrowthMinorant.growth_scale(rho, cascade)
    raise ValueError(
        f"beta must be 'exp-power:<c>,<mu>' or 'growth-scale[:<N>]', got {text!r}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_indicator(args: argparse.Namespace) -> int:
    model = build_model(parse_function_spec(args.fn), max(args.radii))
    exact = model.exact_indicator()
    thetas = growth.angle_grid(args.thetas)
    emp = growth.indicator_empirical(model, thetas, args.radii)
    rows = [(float(t), float(he), float(hm))
            for t, he, hm in zip(thetas, exact.h(thetas), emp)]
    write_csv(args.out, ["theta", "h_exact", "h_empirical"], rows)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    ann = criteria.AnnulusSpec(args.r)
    model = build_model(parse_function_spec(args.fn), ann.reach)
    beta = args.beta(model.order)
    if args.set == "A":
        pred = criteria.predicate_A(model, beta)
    else:
        pred = criteria.predicate_B(model, beta)
    disks = None
    if args.exclude_disks:
        from . import covering
        disks = covering.DiskSet.from_text(Path(args.exclude_disks).read_text("ascii"))
    out = criteria.annulus_density(pred, ann, args.plan, disks).to_json_dict()
    out["set"] = args.set
    write_json(args.out, out)
    return 0


def _cmd_check14(args: argparse.Namespace) -> int:
    r_list = require_increasing("r_list", args.r_list)
    model = build_model(parse_function_spec(args.fn),
                        criteria.AnnulusSpec(r_list[-1]).reach)
    cascade = growth.EpsilonCascade(args.N)
    beta = growth.GrowthMinorant.growth_scale(model.order, cascade)
    alpha = growth.sector_budget(args.m_arcs, cascade)
    series = growth.series_condition_check(alpha, beta, args.r0, args.tail_tol)
    pred = criteria.predicate_B(model, beta)
    margins = []
    for r in r_list:
        density = criteria.annulus_density(pred, criteria.AnnulusSpec(r), args.plan).density
        a_r = float(alpha(math.log(r)))
        margin = density - (1.0 - a_r)
        margins.append({"r": r, "density": density, "alpha": a_r, "margin": margin,
                        "flagged": margin < 0.0})
    write_json(args.out, {
        "format_version": 1,
        "series": {
            "converges": series.converges,
            "partial_sum": series.partial_sum,
            "terms_used": series.terms_used,
            "r0": args.r0,
        },
        "margins": margins,
    })
    return 0


def _build_dynamics_model(ast: FunctionSpecAST,
                          bailout_log: float) -> models.FunctionModel:
    """Orbits are followed out to |z| = exp(bailout_log); a product must be
    certified that far, which is only tractable for modest bailouts, and a
    sum must stay in its float range there (``dynamics`` refuses a bailout
    past 700)."""
    if isinstance(ast, ProductNode):
        if bailout_log > 34.0:
            raise ValueError(
                "product orbits need --bailout-log <= 34 so the truncation "
                "stays certifiable out to exp(bailout_log)")
        return build_model(ast, math.exp(bailout_log) * 1.01)
    return build_model(ast, math.exp(min(bailout_log, 700.0)))


def _cmd_escape_map(args: argparse.Namespace) -> int:
    from . import dynamics
    w = args.window
    model = _build_dynamics_model(parse_function_spec(args.fn), args.bailout_log)
    beta = args.beta(model.order)
    width, height = args.size
    emap = dynamics.escape_map(model, w, width, height, args.r0, beta,
                               args.max_iter, args.bailout_log)
    write_bytes(args.out, emap.to_pgm())
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from . import dynamics
    region = (criteria.AnnulusSpec(args.annulus) if args.annulus is not None
              else args.window)
    model = _build_dynamics_model(parse_function_spec(args.fn), args.bailout_log)
    beta = args.beta(model.order)
    rep = dynamics.measure_estimate(model, region, args.plan, beta, args.r0,
                                    args.max_iter, args.bailout_log)
    write_json(args.out, rep.to_json_dict())
    return 0


def _cmd_verify_crg(args: argparse.Namespace) -> int:
    from . import analytic
    model = build_model(parse_function_spec(args.fn),
                        max(r for r, _ in args.samples) * 1.01)
    cascade = growth.EpsilonCascade(args.N)
    rows = analytic.verify_crg_ray_product(model, cascade, args.samples,
                                           args.hypothesis_constant)
    write_csv(args.out, [f.name for f in fields(analytic.CRGComparison)],
              [astuple(c) for c in rows])
    return 0


def _read_points(path: str) -> list[complex]:
    from . import covering
    text = Path(path).read_text("ascii")
    return [complex(*row) for row in covering.read_columns(text, 2)]


def _cmd_covering(args: argparse.Namespace) -> int:
    from . import covering
    if args.construction == "besicovitch":
        pts = _read_points(args.points)
        text = Path(args.radii).read_text("ascii")
        radii = [r for (r,) in covering.read_columns(text, 1)]
        disks = covering.besicovitch_cover(pts, radii)
        cert = covering.besicovitch_audit(pts, disks, args.probes)
        name = "besicovitch"
    elif args.construction == "fuchs":
        disks, cert = covering.fuchs_macintyre_disks(_read_points(args.points),
                                                     args.H, args.probes)
        name = "fuchs-macintyre"
    else:
        disks, cert = covering.cartan_levin_disks(_read_points(args.zeros), args.R,
                                                  args.eta, args.probes)
        name = "cartan-levin"
    write_bytes(args.out_disks, disks.to_text().encode("ascii"))
    write_json(args.out_cert,
               {"format_version": 1, "construction": name, **asdict(cert)})
    return 0


def _cmd_schwarz_check(args: argparse.Namespace) -> int:
    from . import analytic
    model = build_model(parse_function_spec(args.fn),
                        max(r for r, _ in args.samples) * 1.2 + args.t_r)
    rows = []
    for r, theta in args.samples:   # disk centers
        z = r * complex(math.cos(theta), math.sin(theta))
        rec = analytic.schwarz_log_derivative(model, z, args.t_r, args.nodes)
        direct = models.log_derivative(model, z)
        denom = max(abs(direct), 1e-300)
        rows.append((z.real, z.imag, args.t_r, rec.real, rec.imag,
                     direct.real, direct.imag, abs(rec - direct) / denom))
    write_csv(args.out,
              ["z_re", "z_im", "t_r", "schwarz_re", "schwarz_im",
               "direct_re", "direct_im", "rel_diff"], rows)
    return 0


def _cmd_check_8l(args: argparse.Namespace) -> int:
    from . import analytic
    model = build_model(parse_function_spec(args.fn),
                        max(r for r, _ in args.samples) * 1.01)
    cascade = growth.EpsilonCascade(args.N)
    rows = analytic.check_8l(model, cascade, args.samples)
    write_csv(args.out, [f.name for f in fields(analytic.DirectionalSample)],
              [astuple(s) for s in rows])
    return 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="crglab",
        description="Escape-set laboratory for entire functions of "
                    "completely regular growth")
    sub = top.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str, func, cascade: bool = False
                    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--fn", required=True, help="function spec mini-language")
        p.add_argument("--out", required=True)
        if cascade:
            p.add_argument("--N", type=int, default=1,
                           help="iterated-log depth of the cascade of alpha and eps")
        p.set_defaults(func=func)
        return p

    p = add_command("indicator", "CSV of theta, exact and empirical h", _cmd_indicator)
    p.add_argument("--thetas", type=int, default=360)
    p.add_argument("--radii", type=_parse_floats, required=True, help="r1,r2,r3,...")

    p = add_command("density", "density of A or B over an annulus", _cmd_density)
    p.add_argument("--set", choices=["A", "B"], default="A")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--beta", type=_parse_beta, default="exp-power:0.5,1")
    p.add_argument("--plan", type=_parse_plan, required=True)
    p.add_argument("--exclude-disks",
                   help="disk-set text file (re im radius per line) to remove")

    p = add_command("check-14", "series condition plus density margins", _cmd_check14,
                    cascade=True)
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--r-list", type=_parse_floats, required=True)
    p.add_argument("--m-arcs", type=int, default=2)
    p.add_argument("--tail-tol", type=float, default=1e-10)
    p.add_argument("--plan", type=_parse_plan, required=True)

    p = add_command("escape-map", "PGM raster of escape verdicts", _cmd_escape_map)
    p.add_argument("--window", type=_parse_window, required=True, help="x0,x1,y0,y1")
    p.add_argument("--size", type=_parse_size, default="256x256", help="WxH pixels")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--beta", type=_parse_beta, default="growth-scale")
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--bailout-log", type=float, default=500.0)

    p = add_command("measure", "escape density over a region", _cmd_measure)
    region = p.add_mutually_exclusive_group(required=True)
    region.add_argument("--window", type=_parse_window, help="x0,x1,y0,y1")
    region.add_argument("--annulus", type=float)
    p.add_argument("--r0", type=float)
    p.add_argument("--beta", type=_parse_beta, default="growth-scale")
    p.add_argument("--plan", type=_parse_plan, required=True)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--bailout-log", type=float, default=500.0)

    p = add_command("verify-crg", "CSV of measured vs predicted log|f|", _cmd_verify_crg,
                    cascade=True)
    p.add_argument("--samples", type=_parse_samples, required=True, help="r:theta;...")
    p.add_argument("--hypothesis-constant", type=float, default=1.0)

    constructions = sub.add_parser(
        "covering", help="constructive covering certificates").add_subparsers(
            dest="construction", required=True)

    def add_construction(name: str, help: str) -> argparse.ArgumentParser:
        p = constructions.add_parser(name, help=help)
        p.add_argument("--probes", type=int, default=10000)
        p.add_argument("--out-disks", required=True)
        p.add_argument("--out-cert", required=True)
        p.set_defaults(func=_cmd_covering)
        return p

    p = add_construction("besicovitch", "Besicovitch subcover")
    p.add_argument("--points", required=True, help="file of 're im' lines")
    p.add_argument("--radii", required=True, help="file of radii, one per point")

    p = add_construction("fuchs", "Fuchs-Macintyre exceptional disks")
    p.add_argument("--points", required=True, help="file of 're im' lines")
    p.add_argument("--H", type=float, required=True, help="Fuchs-Macintyre scale")

    p = add_construction("cartan", "Cartan-Levin exceptional disks")
    p.add_argument("--zeros", required=True, help="file of 're im' zeros")
    p.add_argument("--R", type=float, required=True, help="Cartan disk radius")
    p.add_argument("--eta", type=float, required=True, help="Cartan budget parameter")

    p = add_command("schwarz-check", "Schwarz reconstruction vs direct L",
                    _cmd_schwarz_check)
    p.add_argument("--samples", type=_parse_samples, required=True,
                   help="disk centers r:theta;...")
    p.add_argument("--t-r", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=512)

    p = add_command("check-8l", "CSV of Re(zL) residuals in eps2 units", _cmd_check_8l,
                    cascade=True)
    p.add_argument("--samples", type=_parse_samples, required=True, help="r:theta;...")

    return top


def run(argv: Sequence[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        from .parallel import worker_count
        worker_count()   # validate CRG_THREADS before any computation
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"invalid input: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except CrgLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
