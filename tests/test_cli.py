import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import crglab
from crglab import criteria, parallel
from crglab.cli import run

# a numeric warning on the way to a verdict or a refusal is a second stderr
# line the user did not ask for
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SIN = "expsum:[(0,-0.5)]exp((0,1));[(0,0.5)]exp((0,-1))"
EXP = "expsum:[1]exp(1)"
# integer order rho = 1, and genus 1 above the canonical genus 0 of rho = 2/3
POW1_G1 = "product:zeros=pow(1),genus=1,cut=0.1"
POW15_G1 = "product:zeros=pow(1.5,angle=0.1),genus=1,cut=1e-4"
# products whose cutoff K would put 2|a_(K+1)|^max(p+1, 2) past the float range
PAST_FLOAT_RANGE = {
    "indicator-product-power-past-float-range":
        ["indicator", "--fn", "product:zeros=pow(40),genus=1,cut=0.1",
         "--radii", "1e2,1e3,1e200", "--out", "i.csv"],
    "density-product-power-past-float-range":
        ["density", "--fn", "product:zeros=pow(40),genus=1,cut=0.1", "--r", "1e160",
         "--plan", "mc:20:1", "--out", "d.json"],
    # genus 0: |1 - z/a_k|^2 reaches |z|^2, past the float range at |z| = 3.1e160
    "density-product-genus0-square-past-float-range":
        ["density", "--fn", "product:zeros=pow(40),genus=0,cut=0.1", "--r", "1e160",
         "--plan", "mc:20:1", "--out", "d.json"],
    "verify-crg-product-power-past-float-range":
        ["verify-crg", "--fn", "product:zeros=pow(40,angle=1e-9),genus=0,cut=1e-300",
         "--samples", "100:1.5", "--out", "v.csv"],
    # its last zero would read inf, and every point a zero hit
    "indicator-product-last-zero-past-float-range":
        ["indicator", "--fn", "product:zeros=pow(100),genus=0,cut=1e-320",
         "--radii", "50,100,150", "--out", "i.csv"],
}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestIndicatorCommand:
    def test_exp_cos_column(self, tmp_path):
        out = tmp_path / "ind.csv"
        code = run(["indicator", "--fn", EXP, "--thetas", "16",
                    "--radii", "1e2,1e3,1e4", "--out", str(out)])
        assert code == 0
        lines = read_bytes(out).decode().splitlines()
        assert lines[0] == "theta,h_exact,h_empirical"
        for row in lines[1:]:
            theta, h_exact, h_emp = (float(c) for c in row.split(","))
            assert h_exact == pytest.approx(math.cos(theta), abs=1e-12)
            assert h_emp == pytest.approx(math.cos(theta), abs=1e-6)

    def test_product_uses_ray_formula(self, tmp_path):
        out = tmp_path / "ind.csv"
        code = run(["indicator", "--fn", "product:zeros=pow(2),genus=0,cut=0.05",
                    "--thetas", "4", "--radii", "1e2,1e3,1e4", "--out", str(out)])
        assert code == 0
        rows = read_bytes(out).decode().splitlines()[1:]
        theta, h_exact, h_emp = (float(c) for c in rows[2].split(","))
        assert theta == pytest.approx(math.pi)
        assert h_exact == pytest.approx(math.pi, rel=1e-12)
        assert h_emp == pytest.approx(math.pi, abs=0.1)

    def test_product_follows_the_zero_ray(self, tmp_path):
        out = tmp_path / "ind.csv"
        code = run(["indicator", "--fn",
                    "product:zeros=pow(2,angle=1.0),genus=0,cut=0.05",
                    "--thetas", "36", "--radii", "1000,2000,4000",
                    "--out", str(out)])
        assert code == 0
        rows = read_bytes(out).decode().splitlines()[1:]
        assert len(rows) == 36
        for row in rows:
            _, h_exact, h_emp = (float(c) for c in row.split(","))
            assert abs(h_exact - h_emp) <= 0.15


class TestDensityCommand:
    def test_a_set_json(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["density", "--fn", EXP, "--set", "A", "--r", "200",
                    "--beta", "exp-power:0.5,1", "--plan", "mc:20000:42",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(read_bytes(out))
        assert doc["format_version"] == 1
        assert doc["density"] == pytest.approx(1 / 3, abs=0.02)
        assert doc["plan"]["seed"] == 42

    def test_noncanonical_product_accepted(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["density", "--fn", POW15_G1, "--set", "A",
                    "--r", "20", "--plan", "mc:50:1", "--out", str(out)])
        assert code == 0
        assert json.loads(read_bytes(out))["total"] == 50

    def test_sample_count_in_float_notation(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["density", "--fn", EXP, "--r", "200", "--plan", "mc:1e3:1",
                    "--out", str(out)]) == 0
        assert json.loads(read_bytes(out))["plan"]["n"] == 1000


class TestCheck14Command:
    def test_sin_default_pairing(self, tmp_path):
        out = tmp_path / "c14.json"
        code = run(["check-14", "--fn", SIN, "--r0", "100", "--r-list", "1000",
                    "--m-arcs", "2", "--plan", "mc:2000:11", "--out", str(out)])
        assert code == 0
        doc = json.loads(read_bytes(out))
        assert doc["series"]["converges"] is True
        assert doc["series"]["terms_used"] <= 10
        assert doc["margins"][0]["flagged"] is False


class TestEscapeMapCommand:
    def test_pgm_format(self, tmp_path):
        out = tmp_path / "m.pgm"
        code = run(["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3",
                    "--size", "32x16", "--r0", "2", "--out", str(out)])
        assert code == 0
        payload = read_bytes(out)
        assert payload.startswith(b"P5\n32 16\n255\n")
        assert len(payload) == len(b"P5\n32 16\n255\n") + 32 * 16

    def test_escaped_pixels_are_the_measure_grid_hits(self, tmp_path):
        # escape-map and measure sample the same cells of an asymmetric window
        window = "--window=-1.7,4.1,-0.3,2.9"
        pgm, rep = tmp_path / "m.pgm", tmp_path / "m.json"
        assert run(["escape-map", "--fn", SIN, window, "--size", "100x77",
                    "--r0", "2", "--out", str(pgm)]) == 0
        assert run(["measure", "--fn", SIN, window, "--plan", "grid:100:77",
                    "--r0", "2", "--out", str(rep)]) == 0
        header = b"P5\n100 77\n255\n"
        payload = read_bytes(pgm)
        assert payload.startswith(header)
        pix = np.frombuffer(payload[len(header):], dtype=np.uint8)
        escaped = int(((pix >= 1) & (pix <= 254)).sum())
        assert escaped > 0 and escaped == json.loads(read_bytes(rep))["hits"]


class TestMeasureCommand:
    def test_sin_positive_density(self, tmp_path):
        out = tmp_path / "m.json"
        code = run(["measure", "--fn", SIN, "--window", "0,6.2832,-3,3",
                    "--plan", "mc:20000:42", "--r0", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(read_bytes(out))
        assert doc["density"] > 0
        assert doc["fast_escaping_beta"] is True

    def test_annulus_r0_defaults_to_half_the_radius(self, tmp_path):
        outs = []
        for extra in ([], ["--r0", "15"]):
            out = tmp_path / f"m{len(extra)}.json"
            assert run(["measure", "--fn", SIN, "--annulus", "30",
                        "--plan", "mc:2000:42", *extra, "--out", str(out)]) == 0
            outs.append(read_bytes(out))
        assert outs[0] == outs[1]


class TestVerifyCrgCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "crg.csv"
        code = run(["verify-crg", "--fn", "product:zeros=pow(2),genus=0,cut=0.05",
                    "--c", "1", "--samples", "1000:3.141592653589793",
                    "--out", str(out)])
        assert code == 0
        lines = read_bytes(out).decode().splitlines()
        assert lines[0].split(",")[0] == "r"
        vals = [float(c) for c in lines[1].split(",")]
        assert vals[3] == pytest.approx(math.pi * math.sqrt(1000), rel=1e-12)


class TestCoveringCommand:
    def test_besicovitch_outputs(self, tmp_path):
        pts = tmp_path / "pts.txt"
        rad = tmp_path / "rad.txt"
        pts.write_text("0 0\n1 0\n0.5 0.5\n")
        rad.write_text("1.0\n1.0\n0.8\n")
        disks = tmp_path / "d.txt"
        cert = tmp_path / "c.json"
        code = run(["covering", "besicovitch", "--points", str(pts),
                    "--radii", str(rad), "--out-disks", str(disks),
                    "--out-cert", str(cert)])
        assert code == 0
        doc = json.loads(read_bytes(cert))
        assert doc["covers_all"] is True
        assert doc["max_multiplicity"] <= 256
        for line in read_bytes(disks).decode().splitlines():
            assert len(line.split()) == 3

    def test_besicovitch_repeated_point_keeps_largest_radius(self, tmp_path):
        pts = tmp_path / "pts.txt"
        rad = tmp_path / "rad.txt"
        pts.write_text("0 0\n0 0\n0.3 0\n")
        rad.write_text("0.5\n0.01\n0.05\n")
        disks = tmp_path / "d.txt"
        code = run(["covering", "besicovitch", "--points", str(pts),
                    "--radii", str(rad), "--out-disks", str(disks),
                    "--out-cert", str(tmp_path / "c.json")])
        assert code == 0
        assert read_bytes(disks) == b"0 0 0.5\n"

    def test_fuchs_and_cartan(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0.2 0.1\n-0.4 0.3\n0.1 -0.5\n")
        code = run(["covering", "fuchs", "--points", str(pts), "--H", "0.5",
                    "--out-disks", str(tmp_path / "df.txt"),
                    "--out-cert", str(tmp_path / "cf.json")])
        assert code == 0
        doc = json.loads(read_bytes(tmp_path / "cf.json"))
        assert doc["sum_sq_radii"] <= doc["budget"]
        code = run(["covering", "cartan", "--zeros", str(pts), "--R", "1",
                    "--eta", "0.2",
                    "--out-disks", str(tmp_path / "dc.txt"),
                    "--out-cert", str(tmp_path / "cc.json")])
        assert code == 0
        doc = json.loads(read_bytes(tmp_path / "cc.json"))
        assert doc["min_log_g"] > doc["bound_rhs"]


class TestSchwarzAnd8l:
    def test_schwarz_check(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["schwarz-check", "--fn", SIN,
                    "--samples", "20:1.5707963267948966;30:1.5707963267948966",
                    "--t-r", "1.0", "--nodes", "512", "--out", str(out)])
        assert code == 0
        for row in read_bytes(out).decode().splitlines()[1:]:
            assert float(row.split(",")[-1]) < 1e-6

    def test_check_8l(self, tmp_path):
        out = tmp_path / "8l.csv"
        code = run(["check-8l", "--fn", SIN,
                    "--samples", "100:1.5707963267948966", "--out", str(out)])
        assert code == 0
        row = read_bytes(out).decode().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(0.0, abs=1e-10)

    def test_check_8l_ray_product(self, tmp_path):
        # f = sin(pi sqrt z)/(pi sqrt z): Re(zL) is rho h(theta) V(r) - 1/2
        out = tmp_path / "8l.csv"
        code = run(["check-8l", "--fn", "product:zeros=pow(2),genus=0,cut=0.05",
                    "--samples", "100:1.5707963267948966;1000:1.5707963267948966",
                    "--out", str(out)])
        assert code == 0
        for line in read_bytes(out).decode().splitlines()[1:]:
            row = line.split(",")
            assert float(row[2]) - float(row[3]) == pytest.approx(-0.5, abs=1e-6)


class TestExitCodes:
    def test_parse_error_is_one(self, tmp_path):
        assert run(["indicator", "--fn", "bogus:", "--radii", "1,2,3",
                    "--out", str(tmp_path / "x.csv")]) == 1

    def test_usage_error_is_one(self, tmp_path):
        assert run(["indicator", "--fn", EXP, "--radii", "3,2,1",
                    "--out", str(tmp_path / "x.csv")]) == 1

    def test_numeric_failure_is_two(self, tmp_path):
        # Schwarz disk centered on the zero of sin at pi
        assert run(["schwarz-check", "--fn", SIN,
                    "--samples", "3.141592653589793:0", "--t-r", "1.0",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_overflow_is_two(self, tmp_path):
        # the term 1e308 z leaves the float range, although log|f(10)| is
        # about 721.5; an h_empirical of inf would be a wrong number
        out = tmp_path / "x.csv"
        assert run(["indicator", "--fn", "expsum:[1,1e308]exp(1)", "--thetas", "4",
                    "--radii", "10,20,30", "--out", str(out)]) == 2
        assert not out.exists()

    def test_schwarz_overflow_is_not_a_zero(self, tmp_path, capsys):
        # 1e308 z overflows S on the circle around 10; f has no zero there
        out = tmp_path / "x.csv"
        assert run(["schwarz-check", "--fn", "expsum:[1,1e308]exp(1)",
                    "--samples", "10:0", "--t-r", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "f leaves the float range on the quadrature circle" in err
        assert "zero" not in err
        assert not out.exists()

    def test_schwarz_infinite_log_derivative_is_two(self, tmp_path, capsys):
        # f'/f is +-inf on the circle although f is finite and zero-free
        # there; the row used to be written with NaN Schwarz values
        out = tmp_path / "x.csv"
        assert run(["schwarz-check", "--samples", "1e8:0.5", "--fn",
                    "expsum:[(2.9,-1e+300)]exp(0.0447);[(1.35,0),1.88]exp(1e+300)",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "f'/f leaves the float range" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("message,reason", [
        ("Unable to allocate 14.6 TiB for an array with shape (2, 1000000000000)",
         "Unable to allocate 14.6 TiB for an array with shape (2, 1000000000000)"),
        ("", "allocation failed")], ids=["numpy", "bare"])
    def test_memory_error_is_one(self, message, reason, tmp_path, monkeypatch, capsys):
        # the draws of mc:1e12:1 would take 14.6 TiB; raised here, not allocated
        def draws(plan):
            raise MemoryError(message)

        monkeypatch.setattr(criteria, "_draws", draws)
        out = tmp_path / "d.json"
        assert run(["density", "--fn", EXP, "--r", "200", "--plan", "mc:1e12:1",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"invalid input: out of memory: {reason}\n"
        assert not out.exists()

    def test_unknown_command_is_one(self):
        assert run(["no-such-command"]) == 1

    _DENSITY = ["density", "--fn", EXP, "--r", "200"]

    @pytest.mark.parametrize("argv", [
        _DENSITY + ["--plan", "mc:inf:1", "--out", "d.json"],
        _DENSITY + ["--plan", "mc:1e400:1", "--out", "d.json"],
        _DENSITY + ["--plan", "mc:200:1", "--exclude-disks", "missing.txt",
                    "--out", "d.json"],
        _DENSITY + ["--plan", "mc:200:1", "--out", "missing/d.json"],
        ["covering", "fuchs", "--points", "missing.txt", "--H", "0.1",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "besicovitch", "--points", "pts.txt",
         "--radii", "missing.txt", "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "fuchs", "--points", "pts.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "besicovitch", "--points", "pts.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "fuchs", "--points", "pts.txt", "--H", "0.5", "--radii", "radii.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "cartan", "--zeros", "pts.txt", "--R", "1", "--eta", "0.2",
         "--points", "pts.txt", "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "--points", "pts.txt", "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3", "--r0", "2",
         "--plan", "mc:200:1", "--bailout-log", "800", "--out", "m.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3", "--r0", "2",
         "--plan", "mc:200:1", "--max-iter", "0", "--out", "m.json"],
        ["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", "4x4",
         "--r0", "2", "--bailout-log", "800", "--out", "m.pgm"],
        ["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", "0x4",
         "--r0", "2", "--out", "m.pgm"],
        *[["indicator", "--fn", spec, "--radii", "10.5,20.5,40.5", "--out", "i.csv"]
          for spec in (POW1_G1, POW15_G1)],
        *[["verify-crg", "--fn", spec, "--samples", "100.5:0.7853981633974483",
           "--out", "v.csv"] for spec in (POW1_G1, POW15_G1)],
        ["density", "--fn", EXP, "--r", "nan", "--plan", "mc:200:1", "--out", "d.json"],
        ["density", "--fn", EXP, "--r", "inf", "--plan", "mc:200:1", "--out", "d.json"],
        ["measure", "--fn", SIN, "--window", "0,inf,-3,3", "--r0", "2",
         "--plan", "mc:200:1", "--out", "m.json"],
        ["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", "4x4",
         "--r0", "nan", "--out", "m.pgm"],
        ["check-14", "--fn", SIN, "--r0", "nan", "--r-list", "1000",
         "--plan", "mc:200:1", "--out", "c.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3",
         "--plan", "mc:200:1", "--out", "m.json"],
        ["covering", "besicovitch", "--points", "pts.txt", "--radii", "radii.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        _DENSITY + ["--plan", "mc:200:1", "--beta", "exp-power:nan,1", "--out", "d.json"],
        _DENSITY + ["--plan", "mc:200:1", "--beta", "exp-power:inf,1", "--out", "d.json"],
        _DENSITY + ["--plan", "mc:200:1", "--exclude-disks", "nan-disks.txt",
                    "--out", "d.json"],
        *[["indicator", "--fn", spec, "--radii", "1e2,1e3,inf", "--out", "i.csv"]
          for spec in (EXP, "product:zeros=pow(2),genus=0,cut=0.05")],
        *[["verify-crg", "--fn", "product:zeros=pow(2),genus=0,cut=0.05", *opt,
           "--samples", "1000:3.141592653589793", "--out", "v.csv"]
          for opt in (["--c", "nan"], ["--hypothesis-constant", "-1"])],
        *[["check-14", "--fn", SIN, "--r0", "100", "--r-list", "1000", *opt,
           "--plan", "mc:200:1", "--out", "c.json"]
          for opt in (["--tail-tol", "nan"], ["--m-arcs", "-1"])],
        ["schwarz-check", "--fn", SIN, "--samples", "20:1.5707963267948966",
         "--t-r", "nan", "--out", "s.csv"],
        ["check-8l", "--fn", SIN, "--samples", "100:nan", "--out", "8l.csv"],
        ["covering", "fuchs", "--points", "pts.txt", "--H", "inf",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "cartan", "--zeros", "pts.txt", "--R", "inf", "--eta", "0.2",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3", "--annulus", "30",
         "--r0", "2", "--plan", "mc:200:1", "--out", "m.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3", "--r0", "2",
         "--plan", "mc:200:1", "--bailout-log", "nan", "--out", "m.json"],
        ["verify-crg", "--fn", SIN, "--samples", "1000:3.141592653589793",
         "--out", "v.csv"],
        *[["check-8l", "--fn", spec, "--samples", "100:1.5707963267948966",
           "--out", "8l.csv"] for spec in (POW1_G1, POW15_G1)],
        *[["indicator", "--fn", EXP, "--thetas", n, "--radii", "1e2,1e3,1e4",
           "--out", "i.csv"] for n in ("0", "-3")],
        ["indicator", "--fn", "product:zeros=pow(0.6),genus=1,cut=0.1",
         "--radii", "1e2,1e3,1e200", "--out", "i.csv"],
        ["indicator", "--fn", EXP, "--N", "7", "--radii", "1e2,1e3,1e4",
         "--out", "i.csv"],
        ["schwarz-check", "--fn", SIN, "--N", "2", "--samples", "20:1.5707963267948966",
         "--out", "s.csv"],
        ["covering", "fuchs", "--points", "pts3.txt", "--H", "0.5",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "besicovitch", "--points", "pts.txt", "--radii", "radii2.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["measure", "--fn", SIN, "--window", "0,6.2832,-3,3", "--r0", "2e6",
         "--beta", "exp-power:1e-3,0.5", "--plan", "mc:200:1", "--out", "m.json"],
        ["covering", "fuchs", "--points", "pts-nan.txt", "--H", "0.5",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "besicovitch", "--points", "pts-nan.txt", "--radii", "radii.txt",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        ["covering", "cartan", "--zeros", "zeros-inf.txt", "--R", "1", "--eta", "0.2",
         "--out-disks", "d.txt", "--out-cert", "c.json"],
        _DENSITY + ["--plan", "mc:200:1", "--exclude-disks", "nan-centre-disks.txt",
                    "--out", "d.json"],
        *PAST_FLOAT_RANGE.values(),
    ], ids=["plan-inf", "plan-1e400", "missing-exclude-disks", "out-in-missing-dir",
            "missing-points", "missing-radii-file",
            "fuchs-without-H", "besicovitch-without-radii", "fuchs-with-radii",
            "cartan-with-points", "covering-without-construction", "measure-bailout-800",
            "measure-max-iter-0", "escape-map-bailout-800", "escape-map-size-0",
            "indicator-integer-order", "indicator-noncanonical-genus",
            "verify-crg-integer-order", "verify-crg-noncanonical-genus",
            "density-r-nan", "density-r-inf", "measure-window-inf",
            "escape-map-r0-nan", "check-14-r0-nan", "measure-window-without-r0",
            "besicovitch-radii-length", "density-beta-nan", "density-beta-inf",
            "exclude-disk-radius-nan", "indicator-radius-inf",
            "indicator-product-radius-inf", "verify-crg-c-nan",
            "verify-crg-hypothesis-constant-negative", "check-14-tail-tol-nan",
            "check-14-m-arcs-negative", "schwarz-t-r-nan", "check-8l-theta-nan",
            "fuchs-H-inf", "cartan-R-inf", "measure-window-and-annulus",
            "measure-bailout-nan", "verify-crg-expsum", "check-8l-integer-order",
            "check-8l-noncanonical-genus",
            "indicator-thetas-0", "indicator-thetas-negative",
            "indicator-product-radius-1e200", "indicator-N", "schwarz-check-N",
            "points-line-of-three", "radii-line-of-two", "measure-r0-below-crossing",
            "fuchs-point-nan", "besicovitch-point-nan", "cartan-zero-inf",
            "exclude-disk-centre-nan", *PAST_FLOAT_RANGE])
    def test_bad_input_is_one_not_an_exception(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pts.txt").write_text("0.2 0.1\n-0.4 0.3\n")
        (tmp_path / "radii.txt").write_text("0.1\n")
        (tmp_path / "nan-disks.txt").write_text("0 0 nan\n")
        (tmp_path / "pts3.txt").write_text("0.2 0.1 9\n-0.4 0.3\n")
        (tmp_path / "radii2.txt").write_text("0.1 0.2\n")
        (tmp_path / "pts-nan.txt").write_text("nan 0\n")
        (tmp_path / "zeros-inf.txt").write_text("0.2 0.1\ninf 0\n")
        (tmp_path / "nan-centre-disks.txt").write_text("nan 0 1\n")
        assert run(argv) == 1

    @pytest.mark.parametrize("argv", [
        ["indicator", "--fn", "product:zeros=pow(1.01),genus=0,cut=1e-4",
         "--thetas", "8", "--radii", "1e-300,2e-300,3e-300", "--out", "i.csv"],
        ["density", "--fn", "product:zeros=pow(1.01),genus=0,cut=1e-4",
         "--r", "1e-300", "--plan", "mc:50:1", "--out", "d.json"],
    ], ids=["indicator", "density"])
    def test_product_at_tiny_radius_runs(self, argv, tmp_path, monkeypatch):
        # the cutoff's tolerance power underflows to 0 at these radii
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["schwarz-check", "--fn", "product:zeros=pow(0.6),genus=1,cut=1e300",
         "--samples", "40:1.5", "--out", "s.csv"],
        ["density", "--fn", "product:zeros=pow(40),genus=1,cut=0.1", "--r", "1e100",
         "--plan", "mc:20:1", "--out", "d.json"],
    ], ids=["schwarz-check-cut-1e300", "density-pow40-r-1e100"])
    def test_product_sized_in_logs_runs(self, argv, tmp_path, monkeypatch, capsys):
        # tail_tol^(1/(s-1)) of the first overflows a float; the second keeps
        # 2|a_(K+1)|^(p+1) inside the float range
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        for _ in range(2):
            assert run(["indicator", "--fn", EXP, "--thetas", "4",
                        "--radii", "1e2,1e3,1e4",
                        "--out", str(tmp_path / "x.csv")]) == 0
        # none if an earlier run in this process built it already; the
        # covering constructions add one nested set under "crglab covering"
        assert builds.count("crglab") <= 1


class TestRefusalReasons:
    _MEASURE = ["measure", "--fn", SIN, "--r0", "2", "--plan", "mc:200:1",
                "--out", "m.json"]
    _DENSITY = ["density", "--fn", EXP, "--r", "200", "--plan", "mc:200:1",
                "--out", "d.json"]

    @pytest.mark.parametrize("argv,reason", [
        (_MEASURE + ["--window", "0,inf,-3,3"],
         "window must be finite and nondegenerate"),
        (_MEASURE + ["--window", "0,1,-3"], "window must be four numbers"),
        (["schwarz-check", "--fn", SIN, "--samples=-100:1.5707963267948966",
          "--out", "s.csv"], "sample radius r must be positive"),
        *[(["check-8l", "--fn", SIN, f"--samples={r}:1.5707963267948966",
            "--out", "8l.csv"], "sample radius r must be positive")
          for r in ("-100", "0")],
        *[(["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", size,
            "--r0", "2", "--out", "m.pgm"], "size must be WxH")
          for size in ("3", "4x4x4")],
        # the constructor accepts this product out to e^35; only the cap refuses
        *[([cmd, "--fn", "product:zeros=pow(4),genus=0,cut=0.2", "--window",
            "0,6.2832,-3,3", "--r0", "2", "--beta", "exp-power:0.5,1", *opt,
            "--bailout-log", "35", "--out", "m.out"],
           "product orbits need --bailout-log <= 34")
          for cmd, opt in (("measure", ["--plan", "mc:20:1"]),
                           ("escape-map", ["--size", "4x4"]))],
        (["density", "--fn", EXP, "--r", "200", "--plan", "mc:2.7:1", "--out", "d.json"],
         "sample count must be an integer"),
        # the cascade depth of the minorant comes only from --beta growth-scale:N
        (_DENSITY + ["--N", "2"], "unrecognized arguments: --N 2"),
        (_MEASURE + ["--window", "0,6.2832,-3,3", "--N", "2"],
         "unrecognized arguments: --N 2"),
        (["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", "4x4",
          "--r0", "2", "--N", "2", "--out", "m.pgm"], "unrecognized arguments: --N 2"),
        (_DENSITY + ["--beta", "exp-power:1"], "exp-power takes two numbers <c>,<mu>"),
        (_DENSITY + ["--beta", "exp-power:1,2,3"], "exp-power takes two numbers <c>,<mu>"),
        (_DENSITY + ["--beta", "growth-scale:x"],
         "growth-scale depth N must be a positive integer"),
        (_DENSITY + ["--beta", "growth-scale:0"],
         "growth-scale depth N must be a positive integer"),
        # the B disk pattern is fixed: 16 points on each of 8 circles
        (_DENSITY + ["--set", "B", "--disk-samples", "16"],
         "unrecognized arguments: --disk-samples 16"),
        (["check-14", "--fn", SIN, "--r0", "100", "--r-list", "1000",
          "--plan", "mc:200:1", "--disk-samples", "16", "--out", "c.json"],
         "unrecognized arguments: --disk-samples 16"),
        (["density", "--fn", EXP, "--r", "200", "--plan", "grid:2.5:3", "--out", "d.json"],
         "grid dimension n1 must be an integer, got '2.5'"),
        (["density", "--fn", EXP, "--r", "200", "--plan", "mc:10:x", "--out", "d.json"],
         "seed must be an integer, got 'x'"),
        (["escape-map", "--fn", SIN, "--window", "0,6.2832,-3,3", "--size", "4xa",
          "--r0", "2", "--out", "m.pgm"], "height must be an integer, got 'a'"),
        *[(argv, "passes the float range") for argv in PAST_FLOAT_RANGE.values()],
        *[(["check-14", "--fn", SIN, "--r0", "100", "--r-list", r_list,
            "--plan", "mc:200:1", "--out", "c.json"], reason)
          for r_list, reason in (
              ("2000,1000", "r_list must hold at least 1 strictly increasing values"),
              ("", "argument --r-list: could not convert string to float"))],
        # 2r and 3.1r overflow: the samples read inf, and e^z read 0.034
        *[(argv, "annulus radius 1e+308 puts the reach 3.1 r of its B disks "
                 "past the float range") for argv in (
            ["density", "--fn", EXP, "--r", "1e308", "--plan", "mc:1000:1",
             "--out", "d.json"],
            ["check-14", "--fn", SIN, "--r0", "100", "--r-list", "1000,1e308",
             "--plan", "mc:200:1", "--out", "c.json"],
            _MEASURE + ["--annulus", "1e308"])],
    ], ids=["window-inf", "window-three-numbers", "schwarz-radius-negative",
            "check-8l-radius-negative", "check-8l-radius-0", "size-3", "size-4x4x4",
            "measure-product-bailout-35", "escape-map-product-bailout-35",
            "plan-count-2.7", "density-N", "measure-N", "escape-map-N",
            "beta-exp-power-one-number", "beta-exp-power-three-numbers",
            "beta-growth-scale-x", "beta-growth-scale-0", "density-disk-samples",
            "check-14-disk-samples", "plan-grid-2.5", "plan-seed-x", "size-4xa",
            *PAST_FLOAT_RANGE, "check-14-r-list-decreasing", "check-14-r-list-empty",
            "density-reach-past-float-range", "check-14-reach-past-float-range",
            "measure-reach-past-float-range"])
    def test_argument_refused_with_its_reason(self, argv, reason, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert reason in err and "_parse" not in err
        assert "unpack" not in err and "invalid literal" not in err
        assert not list(tmp_path.iterdir())


class TestOneWayIn:
    """Each parameter of f and beta has one way in, and one default."""

    # a sum whose B disks at ann(300) are left to sampling
    THREE_TERMS = "expsum:[1]exp(1);[1]exp((-0.5,0.866));[1]exp((-0.5,-0.866))"

    def test_check14_margin_density_is_density_b(self, tmp_path):
        check, dens = tmp_path / "c.json", tmp_path / "d.json"
        assert run(["check-14", "--fn", self.THREE_TERMS, "--r0", "100", "--r-list", "300",
                    "--plan", "mc:4000:7", "--out", str(check)]) == 0
        assert run(["density", "--fn", self.THREE_TERMS, "--set", "B", "--r", "300",
                    "--beta", "growth-scale", "--plan", "mc:4000:7",
                    "--out", str(dens)]) == 0
        margin = json.loads(read_bytes(check))["margins"][0]
        assert margin["density"] == json.loads(read_bytes(dens))["density"]

    def test_growth_scale_depth_reaches_the_minorant(self, tmp_path):
        outs = {}
        for beta in ("growth-scale", "growth-scale:1", "growth-scale:2"):
            out = tmp_path / f"{beta}.json"
            assert run(["measure", "--fn", SIN, "--annulus", "30", "--beta", beta,
                        "--plan", "mc:2000:1", "--out", str(out)]) == 0
            outs[beta] = read_bytes(out)
        assert outs["growth-scale"] == outs["growth-scale:1"]
        # exp(r / log log r) exceeds exp(r / log r): fewer orbits escape it
        hits = {b: json.loads(o)["hits"] for b, o in outs.items()}
        assert hits["growth-scale:2"] < hits["growth-scale:1"]


class TestImportCost:
    @staticmethod
    def _loaded_after_cli_import(condition: str) -> str:
        """The sorted names of sys.modules matching ``condition`` (an
        expression in m) after ``import crglab.cli`` in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(crglab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, crglab.cli; print(sorted(m for m in sys.modules if {condition}))"],
            env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        # scipy serves only kernel_integral_I, which no command calls
        assert self._loaded_after_cli_import("m.split('.')[0] == 'scipy'") == "[]"

    def test_cli_import_loads_only_what_every_command_needs(self):
        # the commands that run analytic, covering or dynamics import them,
        # and the thread pool is imported when a sweep first uses one
        unused = ("crglab.analytic", "crglab.covering", "crglab.dynamics",
                  "concurrent.futures")
        assert self._loaded_after_cli_import(f"m in {unused!r}") == "[]"


class TestFloatFormatting:
    def test_17_significant_digits_and_lf(self, tmp_path):
        out = tmp_path / "ind.csv"
        run(["indicator", "--fn", EXP, "--thetas", "7",
             "--radii", "1e2,1e3,1e4", "--out", str(out)])
        payload = read_bytes(out)
        assert b"\r" not in payload and payload.endswith(b"\n")
        third = payload.decode().splitlines()[2].split(",")[0]
        # theta = 2 pi/7 requires the full 17 digits
        assert len(third.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestByteDeterminismAcrossThreads:
    def test_artifacts_identical_for_1_2_8_workers(self, tmp_path, monkeypatch):
        captures = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("CRG_THREADS", threads)
            blob = b""
            for repeat in range(2):
                ind = tmp_path / f"i{threads}{repeat}.csv"
                mea = tmp_path / f"m{threads}{repeat}.json"
                pgm = tmp_path / f"p{threads}{repeat}.pgm"
                den = tmp_path / f"d{threads}{repeat}.json"
                assert run(["indicator", "--fn", SIN, "--thetas", "64",
                            "--radii", "1e2,1e3,1e4", "--out", str(ind)]) == 0
                assert run(["measure", "--fn", SIN, "--window", "0,6.2832,-3,3",
                            "--plan", "mc:20000:42", "--r0", "2",
                            "--out", str(mea)]) == 0
                assert run(["escape-map", "--fn", SIN, "--window",
                            "0,6.2832,-3,3", "--size", "64x64", "--r0", "2",
                            "--out", str(pgm)]) == 0
                assert run(["density", "--fn", EXP, "--set", "A", "--r", "200",
                            "--beta", "exp-power:0.5,1",
                            "--plan", "mc:30000:7", "--out", str(den)]) == 0
                blob += b"".join(read_bytes(p) for p in (ind, mea, pgm, den))
            captures.append(blob)
        assert captures[0] == captures[1] == captures[2]

    def test_excluded_density_identical_for_1_and_2_workers(self, tmp_path,
                                                             monkeypatch):
        # disks are masked inside the chunks, next to the predicate
        disks = tmp_path / "disks.txt"
        disks.write_text("250 0 60\n-300 40 90\n0 320 45\n")
        blobs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CRG_THREADS", threads)
            den = tmp_path / f"d{threads}.json"
            assert run(["density", "--fn", EXP, "--set", "A", "--r", "200",
                        "--beta", "exp-power:0.5,1", "--plan", "mc:30000:7",
                        "--exclude-disks", str(disks), "--out", str(den)]) == 0
            blobs.append(read_bytes(den))
        assert blobs[0] == blobs[1]
        rep = json.loads(blobs[0])
        assert 0.0 < rep["excluded_fraction"] < 1.0 and rep["hits"] > 0

    @pytest.mark.parametrize("cpus,want", [({0}, 1), ({0, 1}, 2), (set(range(12)), 8)])
    def test_default_workers_are_the_cpus_the_process_may_run_on(self, cpus, want,
                                                                  monkeypatch):
        monkeypatch.delenv("CRG_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert parallel.worker_count() == want

    def test_default_workers_without_affinity_are_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CRG_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert parallel.worker_count() == 3

    def test_invalid_thread_env_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRG_THREADS", "zero")
        assert run(["indicator", "--fn", EXP, "--thetas", "4",
                    "--radii", "1e2,1e3,1e4",
                    "--out", str(tmp_path / "x.csv")]) == 1
