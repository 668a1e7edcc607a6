import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import click
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdhahn import cdqhahn, cli, family, limits, recurrence


@pytest.fixture
def qdh(monkeypatch, capsys):
    """``qdh`` in process, through its console entry point ``cli.run``:
    qdh(*argv, **environment) gives (exit code, stdout, stderr)."""
    def run(*argv, **env):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "argv", ["qdh", *argv])
            for name, value in env.items():
                patch.setenv(name, value)
            try:
                cli.run()
            except SystemExit as exited:
                return exited.code, *capsys.readouterr()
        return 0, *capsys.readouterr()
    return run


def run_script(*args):
    """``python -m qdhahn.cli`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "qdhahn.cli", *args],
        capture_output=True,
        text=True,
    )


class TestEval:
    def test_single_polynomial_row(self, qdh):
        code, out, _ = qdh(
            "eval", "--family", "cdqh", "--what", "poly", "--n", "3",
            "--z", "2.0", "--A", ".3", "--B", ".3", "--C", ".3", "--D", ".3",
            "--q", ".5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# family=cdqh")
        assert lines[1] == "n_or_x,re,im"
        assert len(lines) == 3

    def test_weight_grid_rows(self, qdh):
        code, out, _ = qdh(
            "eval", "--family", "cdqh", "--what", "weight",
            "--grid", "-0.99:0.99:199",
            "--A", ".4", "--B", ".4", "--C", ".5", "--D", ".4", "--q", ".5",
        )
        assert code == 0
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 200  # header + 199 points
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize("family_args", [
        ("cdqh", "--A", ".4", "--B", ".4", "--C", ".7", "--D", ".4"),
        ("al-salam-chihara", "--A", ".35", "--B", ".45", "--delta", ".7"),
        ("cont-q-hermite", "--A", ".35", "--delta", ".7"),
        ("cont-big-q-hermite", "--A", ".5", "--a", "1.6"),
    ])
    def test_weight_grid_rows_match_single_points(self, family_args, qdh):
        common = ("eval", "--family", *family_args, "--q", ".5", "--what", "weight")
        code, out, _ = qdh(*common, "--grid", "-0.98:0.98:9")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[2:]]
        assert len(rows) == 9
        for x, re_text, im_text in rows:
            code, single, _ = qdh(*common, "--x", x)
            assert code == 0
            sx, s_re, s_im = single.splitlines()[2].split(",")
            assert float(sx) == float(x)
            assert abs(float(re_text) - float(s_re)) <= 1e-12 * abs(float(s_re))
            assert float(im_text) == float(s_im) == 0.0

    def test_limit_family_solution(self, qdh):
        code, _, _ = qdh(
            "eval", "--family", "wall", "--what", "solution", "--which", "1",
            "--n", "2", "--z", "2.4", "--A", ".3", "--B", ".4", "--q", ".5",
        )
        assert code == 0

    def test_seventeen_significant_digits(self, qdh):
        _, out, _ = qdh(
            "eval", "--family", "fourth-limit", "--what", "poly", "--n", "4",
            "--z", "2.31", "--q", ".5",
        )
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        value = row.split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_deterministic_output(self, qdh):
        args = (
            "eval", "--family", "cdqh", "--what", "cf", "--z", "20.0",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        assert qdh(*args) == qdh(*args)

    def test_byte_identical_across_processes(self):
        args = (
            "table", "--family", "wall", "--n-hi", "4", "--grid", "2:4:5",
            "--A", ".3", "--B", ".4", "--q", ".5",
        )
        first = run_script(*args)
        second = run_script(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_tolerance_env_override(self, qdh):
        args = (
            "eval", "--family", "cdqh", "--what", "cf", "--z", "20.0",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        tight = qdh(*args, QDH_TOL="1e-13")
        loose = qdh(*args, QDH_TOL="1e-3")
        assert tight[0] == 0 and loose[0] == 0
        v_tight = float(tight[1].splitlines()[-1].split(",")[1])
        v_loose = float(loose[1].splitlines()[-1].split(",")[1])
        # the loose tolerance truncates the series visibly earlier
        assert abs(v_tight - v_loose) > 1e-12 * abs(v_tight)


class TestVerify:
    def test_single_check_passes(self, qdh):
        code, out, _ = qdh("verify", "--check", "symmetries", "--fast")
        assert code == 0
        assert "PASS symmetries" in out

    def test_fast_battery_passes(self, qdh):
        # the --fast node count keeps the orthogonality drift inside its gate
        code, out, err = qdh("verify", "--check", "all", "--fast")
        assert code == 0, out + err
        assert "FAIL" not in out

    def test_json_format(self, qdh):
        code, out, _ = qdh("verify", "--check", "limits", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list)
        assert payload[0]["check_id"] == "limit-edges"
        assert payload[0]["pass"] is True

    def test_orthogonality_json(self, qdh):
        code, out, _ = qdh("verify", "--check", "orthogonality", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["check_id"] for r in payload] == [
            "orthogonality/reduced", "orthogonality/associated",
        ]
        assert all(r["pass"] is True for r in payload)
        assert all(isinstance(r["max_rel_error"], float) for r in payload)

    def test_seed_recorded(self, qdh):
        _, out, _ = qdh("verify", "--check", "limits", "--seed", "123")
        assert "seed=123" in out


class TestZeros:
    def test_negative_zeros_csv(self, qdh):
        code, out, _ = qdh("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "zero,bracket_lo,bracket_hi"
        zeros = [float(r.split(",")[0]) for r in rows[1:]]
        assert zeros and all(z < 0 for z in zeros)

    def test_interlace_report(self, qdh):
        code, out, _ = qdh(
            "zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5",
            "--max-zeros", "6", "--interlace",
        )
        assert code == 0
        assert "interlace n=0 vs n=1: pass" in out

    def test_positive_axis_scan_is_empty(self, qdh):
        _, out, _ = qdh(
            "zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5",
            "--scan-lo", "1e-4", "--scan-hi", "1e4",
        )
        rows = out.strip().splitlines()
        assert rows == ["zero,bracket_lo,bracket_hi"]


class TestTable:
    def test_matrix_shape(self, qdh):
        code, out, _ = qdh(
            "table", "--family", "cdqh", "--n-hi", "5", "--grid", "25:29:21",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# family=cdqh q=0.5")
        assert lines[1] == "z,n0,n1,n2,n3,n4,n5"
        assert len(lines) == 2 + 21

    def test_empty_degree_range_header_only(self, qdh):
        _, out, _ = qdh(
            "table", "--family", "fourth-limit", "--n-lo", "3", "--n-hi", "2",
            "--grid", "1:2:3", "--q", ".5",
        )
        lines = out.strip().splitlines()
        assert lines[-1] == "z"

    @pytest.mark.parametrize("fam, args", [
        (cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45),
         ("cdqh", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45")),
        (limits.FourthLimit(0.5), ("fourth-limit",)),
        (limits.QBesselOrder(0.5, -1.0), ("q-bessel-order", "--a", "-1.0")),
    ])
    def test_rows_equal_per_point_reference(self, fam, args, qdh):
        # one grid recurrence must print what one scalar run per point
        # prints, byte for byte, across the renormalization at n = 50
        code, out, _ = qdh("table", "--family", *args, "--q", ".5", "--n-lo", "2",
                           "--n-hi", "60", "--grid", "-3:3:25")
        assert code == 0
        expected = []
        for i in range(25):
            z = -3.0 + i * 0.25
            seq = recurrence.forward_eval(fam, z, 0.0, 1.0, 60)
            values = [seq.value(n) for n in range(2, 61)]
            assert all(v.imag == 0 for v in values)
            expected.append(",".join(f"{v:.17g}" for v in [z] + [v.real for v in values]))
        assert out.splitlines()[2:] == expected

    def test_single_point_grid(self, qdh):
        _, out, _ = qdh(
            "table", "--family", "fourth-limit", "--n-hi", "2",
            "--grid", "2:2:1", "--q", ".5",
        )
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 2


CDQH_ARGS = ("--q", ".5", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45")
LIMIT_ARGS = {
    "big-q-laguerre": ("--A", ".3", "--B", ".4", "--C", ".35"),
    "wall": ("--A", ".3", "--B", ".4"),
    "limit-wall": ("--A", ".3"),
    "fourth-limit": (),
    "al-salam-chihara": ("--A", ".3", "--B", ".4", "--delta", ".7"),
    "al-salam-carlitz1": ("--A", ".3", "--delta", ".7"),
    "limit-asc1": ("--delta", ".7"),
    "cont-q-hermite": ("--A", ".3", "--delta", ".7"),
    "limit-q-hermite": ("--delta", ".7"),
    "cont-big-q-hermite": ("--A", ".3", "--a", "1.6"),
    "q-bessel-order": ("--a", "-1"),
}
WALL = ("eval", "--family", "wall", "--q", ".5", "--A", ".3", "--B", ".4")
# the families with a spectral cut and their parameters; z = 2.5 lies on
# each cut, at x = 0.24 (cdqh), 0.51, 0.81 and 0.77
CUT_ARGS = {"cdqh": CDQH_ARGS, **{fid: ("--q", ".5", *LIMIT_ARGS[fid]) for fid in
                                  ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")}}

# the families whose P_1200 at z = 2.5, q = 0.5 lies on their cut, and
# stays in the double range
FINITE_P1200 = {"cont-q-hermite": -1.56e226, "cont-big-q-hermite": -3.04e255}

# (argv, environment, exit code, fragments of stderr): a double sum past
# the double range, and a P_n past it, exit 3; malformed input exits 2.
# No row prints nan
CONTRACT_CASES = [
    (("eval", "--family", "cdqh", "--what", "poly-alt", "--n", "200", "--x", "2", *CDQH_ARGS),
     {}, 3),
    (("eval", "--family", "cdqh", "--what", "poly", "--n", "1200", "--x", "2", *CDQH_ARGS),
     {}, 3),
    # the recurrence's P_1200 of fourth-limit is about 10^477
    *[(("eval", "--family", fid, "--what", "poly", "--n", "1200", "--z", "2.5", "--q", ".5",
        *args), {}, *((0,) if fid in FINITE_P1200 else (3, "Overflow")))
      for fid, args in LIMIT_ARGS.items()],
    # a family needs every parameter it takes and q in (0, 1), and a degree is not negative
    (("eval", "--family", "cdqh", "--what", "poly", "--n", "3", "--z", "2.0", "--A", ".3",
      "--B", ".3", "--C", ".3", "--q", ".5"), {}, 2, "missing: D"),
    (("eval", "--family", "fourth-limit", "--what", "poly", "--n", "2", "--z", "2.0",
      "--q", "1.5"), {}, 2, "q"),
    *[(("eval", "--family", "cdqh", "--what", what, "--n", "-3", "--z", "2.5", *CDQH_ARGS),
       {}, 2, "--n must be >= 0") for what in ("poly", "poly-alt")],
    (("table", "--family", "fourth-limit", "--n-lo", "-3", "--n-hi", "2", "--grid", "1:2:3",
      "--q", ".5"), {}, 2, "--n-lo must be >= 0"),
    # an unknown family, solution label or check
    (("eval", "--family", "nope", "--what", "poly", "--z", "2.0", "--q", ".5"), {}, 2),
    ((*WALL, "--what", "solution", "--which", "9", "--z", "2"), {}, 2, "not 9"),
    (("eval", "--family", "cdqh", "--what", "solution", "--which", "nope", "--x", "2",
      *CDQH_ARGS), {}, 2, "not 'nope'"),
    (("verify", "--check", "bogus"), {}, 2),
    # a family without a cut has no boundary side
    *[(("eval", "--family", fid, "--what", "poly", "--n", "3", "--z", "2.5", "--q", ".5", *args,
        "--side", "below"), {}, 2, "has no cut") for fid, args in LIMIT_ARGS.items()
      if fid not in CUT_ARGS],
    ((*WALL, "--what", "poly", "--n", "3", "--grid", "a:b:3"), {}, 2),
    # a number that is not finite is a usage error, whatever it feeds
    (("eval", "--family", "wall", "--what", "poly", "--n", "3", "--z", "2", "--q", ".5",
      "--A", "nan", "--B", ".4"), {}, 2),
    (("eval", "--family", "wall", "--what", "cf", "--z", "2", "--q", ".5", "--A", ".3",
      "--B", "inf"), {}, 2),
    *[((*WALL, "--what", "poly", "--n", "3", "--z", z), {}, 2) for z in ("nan", "inf")],
    ((*WALL, "--what", "poly", "--n", "3", "--grid", "nan:1:3"), {}, 2),
    ((*WALL, "--what", "solution", "--which", "x", "--z", "2"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2", "--tol", "0"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2", "--tol", "-1"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2"), {"QDH_TOL": "abc"}, 2),
    (("eval", "--family", "cdqh", "--what", "cf", "--x", "2", "--cf-form", "bogus", *CDQH_ARGS),
     {}, 2),
    *[(("eval", "--family", fid, "--what", "cf", "--z", "2.5", "--q", ".5", "--cf-form", "bogus",
        *args), {}, 2) for fid, args in LIMIT_ARGS.items()],
    # --which and --cf-form only apply to --what solution and --what cf
    (("eval", "--family", "wall", "--what", "cf", "--which", "9", "--z", "2.5", "--q", ".5",
      "--A", ".3", "--B", ".4"), {}, 2, "--which applies only to --what solution"),
    (("eval", "--family", "cdqh", "--what", "poly", "--cf-form", "bogus", "--x", "2",
      *CDQH_ARGS), {}, 2, "--cf-form applies only to --what cf"),
    (("eval", "--family", "cont-q-hermite", "--what", "weight", "--x", "1.7", "--q", ".5",
      *LIMIT_ARGS["cont-q-hermite"]), {}, 2),
    (("eval", "--family", "cdqh", "--what", "cf", "--z", "50", "--side", "above", *CDQH_ARGS), {}, 2),
    (("zeros", "--f", "limit-asc1:num", "--q", ".5", "--delta", "0", "--scan-lo", ".1",
      "--scan-hi", "1"), {}, 2),
    # P_775 of fourth-limit at z = 2.5 leaves the double range, for the
    # table as for eval (the table printed inf)
    (("table", "--family", "fourth-limit", "--n-lo", "775", "--n-hi", "775", "--grid",
      "2.5:2.5:1", "--q", ".5"), {}, 3),
    (("eval", "--family", "fourth-limit", "--what", "poly", "--n", "775", "--z", "2.5",
      "--q", ".5"), {}, 3),
    # P_n has a value at z = 0, where the double sums divide by zero
    *[(("eval", "--family", fid, "--what", "poly", "--n", "5", "--z", "0", "--q", ".5", *args),
       {}, 0) for fid, args in LIMIT_ARGS.items()],
    # a closed form that divides by zero at z = 0 is a named numerical error
    *[(("eval", "--family", fid, "--what", what, "--z", "0", "--q", ".5", *args), {}, 3)
      for fid, args in LIMIT_ARGS.items() for what in ("cf", "solution")
      if fid not in ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")],
    *[(("eval", "--family", "q-bessel-order", "--what", what, "--grid", "-1:1:5", "--q", ".5",
        *LIMIT_ARGS["q-bessel-order"]), {}, 3) for what in ("cf", "solution")],
    # a power past the double range is a named numerical error
    (("eval", "--family", "cdqh", "--what", "solution", "--which", "inverted", "--n", "4000",
      "--x", "2", *CDQH_ARGS), {}, 3),
    (("eval", "--family", "al-salam-carlitz1", "--what", "solution", "--which", "2", "--n", "4000",
      "--z", "2.5", "--q", ".5", *LIMIT_ARGS["al-salam-carlitz1"]), {}, 3),
    # at z = 24, 1 - BCD lambda_-/q vanishes: a closed form that divides by
    # zero there, and the truncated fraction that vanishes, exit 3
    *[(("eval", "--family", "cdqh", "--z", "24", "--q", "0.5", "--A", "0.0625", "--B", "0.25",
        "--C", "0.5", "--D", "0.5", *what), {}, 3)
      for what in (("--what", "cf"), ("--what", "cf", "--cf-form", "ratio-alt"),
                   ("--what", "solution", "--which", "dominant", "--n", "2"),
                   ("--what", "cf-trunc"))],
    # parameters whose product underflows to zero are a usage error
    (("eval", "--family", "wall", "--q", "0.5", "--A", "1e-200", "--B", "1e-200", "--what",
      "cf-trunc", "--z", "4"), {}, 2),
    # a point on the cut with a side evaluates, as a polynomial does without one
    *[(("eval", "--family", fid, "--x", "0.4", "--side", side, "--what", what, "--n", "3",
        *args), {}, 0) for fid, args in CUT_ARGS.items() for side in ("above", "below")
      for what in ("poly", "solution", "cf")],
    *[(("eval", "--family", fid, "--x", "0.3", "--what", "poly", *args), {}, 0)
      for fid, args in CUT_ARGS.items()],
    # a solution or a 1/CF there needs a side
    *[(("eval", "--family", fid, "--x", "0.4", "--what", what, *args), {}, 3)
      for fid, args in CUT_ARGS.items() for what in ("solution", "cf")],
    *[(("eval", "--family", fid, "--z", "2.5", *args, "--what", "solution"), {}, 3)
      for fid, args in CUT_ARGS.items()],
    # z = 2 lies on the cut at A = B = C = D = 0.3
    (("eval", "--family", "cdqh", "--what", "solution", "--which", "minimal", "--n", "2",
      "--z", "2.0", "--A", ".3", "--B", ".3", "--C", ".3", "--D", ".3", "--q", ".5"),
     {}, 3, "BranchAmbiguous"),
    # except the truncated J-fraction, whose poles lie on the cut
    *[(("eval", "--family", fid, *point, "--what", "cf-trunc", *args), {}, 3)
      for fid, args in CUT_ARGS.items()
      for point in (("--x", "0.4", "--side", "above"), ("--x", "0.4", "--side", "below"),
                    ("--z", "2.5"))],
    # a truncated J-fraction of a cut family whose cut leaves the double
    # range (gamma = inf): the cut check exits 3 before the fraction runs
    (("eval", "--family", "cont-big-q-hermite", "--q", "0.45345304972429223", "--A", "1e-200",
      "--a", "1e200", "--what", "cf-trunc", "--z", "0.5"), {}, 3),
    # a truncated J-fraction that leaves the double range (--n 0, the
    # default and unused here, keeps the row's id apart from wall's above)
    (("eval", "--family", "wall", "--what", "cf-trunc", "--z", "-1e308", "--q", ".5", "--A",
      "1e-308", "--B", "1e308", "--n", "0"), {}, 3,
     "Overflow: truncated J-fraction at depth 400 left the double range"),
    # a cut whose growth product overflows (gamma = inf) or underflows (gamma = 0)
    *[(("eval", "--family", fid, "--what", "cf", *point, "--q", ".5", *args), {}, 3)
      for fid, args in (("cont-big-q-hermite", ("--A", "1e-200", "--a", "1e200")),
                        ("cont-q-hermite", ("--A", "-1e200", "--delta", "1e200")))
      for point in (("--z", "2.5"), ("--x", "0.3", "--side", "above"))],
    # a zero scan finds at least one zero, or there is nothing to interlace
    *[(("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5", "--max-zeros", count,
        "--interlace"), {}, 2) for count in ("0", "-3")],
    # zeros past |x| ~ 8e3 end their bisection
    (("zeros", "--f", "fourth-limit", "--n", "-7", "--q", "0.5", "--interlace"), {}, 0),
    # a log-spaced scan needs endpoints of one sign, and q a base in (0, 1)
    (("zeros", "--f", "fourth-limit", "--q", "0.5", "--scan-lo", "-1", "--scan-hi", "1"), {}, 2),
    (("zeros", "--f", "limit-asc1:num", "--q", ".5", "--delta", ".5", "--scan-lo", "-1",
      "--scan-hi", "1"), {}, 2),
    (("zeros", "--f", "fourth-limit", "--n", "0", "--q", "2"), {}, 2),
    # a window whose endpoint product underflows still scans; one that
    # leaves the double range is a named numerical error
    (("zeros", "--f", "fourth-limit", "--n", "300", "--q", "0.5"), {}, 0),
    *[(("zeros", "--f", "fourth-limit", "--n", n, "--q", "0.5"), {}, 3) for n in ("-600", "600")],
    # parameters near the double range: a closed-form solution that loses
    # its value to nan, and a series parameter that is nan, exit 3
    (("eval", "--family", "wall", "--what", "solution", "--n", "0", "--q", ".5", "--z", "2.5",
      "--A", "1e200", "--B", "-1e200"), {}, 3),
    (("eval", "--family", "big-q-laguerre", "--what", "solution", "--n", "0",
      "--q", "0.7791726911073964", "--z", "0.5", "--A", "1e200", "--B", "-0.7", "--C", "-1e200"),
     {}, 3),
    (("eval", "--family", "cdqh", "--what", "solution", "--n", "0", "--q", "0.4796172764073389",
      "--z", "0.001", "--A", "-1e100", "--B", "1e100", "--C", "-1e200", "--D", "-2"), {}, 3),
    # a closed-form solution below the normal double range (a subnormal) exits 3
    (("eval", "--family", "limit-wall", "--what", "solution", "--which", "1", "--n", "25",
      "--z", "2.426627338843389", "--q", "0.45267364450866543", "--A", "0.5753877893352477"),
     {}, 3),
    # a solution whose series diverges exists only formally; it evaluates
    # where any numerator parameter makes the series terminate (here
    # lambda_+ / a = 2 = 1/q, with A no power of q)
    ((*WALL, "--what", "solution", "--which", "4", "--n", "3", "--z", "2.5"), {}, 3,
     "FormalOnly: wall solution 4 at n = 3"),
    (("eval", "--family", "cont-big-q-hermite", "--what", "solution", "--which", "3", "--n", "3",
      "--z", "-0.5666666666666664", "--q", ".5", "--A", ".3", "--a", "-.7"), {}, 0),
    # a grid needs lo:hi:count with a positive count, and a span in the double range
    *[((*WALL, "--what", "poly", "--n", "3", "--grid", grid), {}, 2)
      for grid in ("1:2", "1:2:0", "-1e308:1e308:3")],
    # a family needs q, a form it declares and a point
    (("eval", "--family", "limit-wall", "--what", "poly", "--n", "2", "--z", "2", "--A", ".3"),
     {}, 2),
    ((*WALL, "--what", "poly-alt", "--n", "3", "--z", "2"), {}, 2),
    ((*WALL, "--what", "poly", "--n", "3"), {}, 2),
    ((*WALL, "--what", "poly-alt", "--n", "5", "--z", "2.5"), {}, 2,
     "wall has no second polynomial form"),
    ((*WALL, "--what", "weight", "--x", "0.3"), {}, 2,
     "wall carries no absolutely continuous weight"),
    # a zero scan needs a known function, and a window where it has no default
    (("zeros", "--f", "al-salam-carlitz1:foo", "--q", ".5", "--delta", ".7"), {}, 2),
    (("zeros", "--f", "limit-asc1:num", "--q", ".5", "--delta", ".7"), {}, 2),
    (("zeros", "--f", "nope", "--q", ".5"), {}, 2),
    # a family without scan series has no cf part to scan
    (("zeros", "--f", "cont-q-hermite:num", "--q", ".5", "--delta", ".5", "--scan-lo", ".1",
      "--scan-hi", "1"), {}, 2, "no scan-ready series pair"),
    # a window where the fourth-limit handle leaves the double range exits 3,
    # where it printed the jumps between +inf and -inf as zeros (--max-zeros
    # 8, the default, keeps the row's id apart from the --q 2 row)
    (("zeros", "--f", "fourth-limit", "--q", "0.99", "--n", "0", "--scan-lo", "-1e-2",
      "--scan-hi", "-1e-6", "--max-zeros", "8"), {}, 3,
     "Overflow: fourth-limit f_0 left the double range"),
]


def _case_id(case):
    argv, env, *_ = case
    named = [f"{k}={v}" for k, v in env.items()]
    for option in ("--family", "--f", "--what", "--n", "--x", "--grid", "--which", "--side",
                   "--tol", "--cf-form", "--delta", "--max-zeros", "--check"):
        if option in argv:
            named.append(f"{option.lstrip('-')}={argv[argv.index(option) + 1]}")
    # a value that is not finite names its option too
    named += [f"{option.lstrip('-')}={value}" for option, value in zip(argv, argv[1:])
              if value in ("nan", "inf")]
    return "-".join([argv[0], *named])


@pytest.mark.parametrize("case", CONTRACT_CASES, ids=map(_case_id, CONTRACT_CASES))
def test_exit_code_contract(case, qdh):
    argv, env, code, *fragments = case
    exit_code, out, err = qdh(*argv, **env)
    assert exit_code == code
    assert err.startswith("error:") if code else err == ""
    assert "Traceback" not in err
    assert all(fragment in err for fragment in fragments)
    assert "nan" not in out


@pytest.mark.parametrize("argv, message", [
    (("eval", "--what", "poly", "--n", "775", "--z", "2.5"), "P_775 at z=2.5 exceeds"),
    (("eval", "--what", "poly", "--n", "775", "--grid", "2.0:2.6:4"),
     "P_775 at z=2.6 (grid point 3) exceeds"),
    (("table", "--n-lo", "770", "--n-hi", "776", "--grid", "2.0:2.5:3"),
     "P_774 at z=2.5 (grid point 2) exceeds"),
])
def test_an_overflowing_polynomial_names_its_family_degree_and_point(argv, message, qdh):
    # at q = 0.5, fourth-limit's P_n at z = 2.5 leaves the double range
    # from n = 774 on; at z <= 2.25 it stays inside up to n = 776, and at
    # z = 2.4 up to n = 775
    code, _, err = qdh(*argv, "--family", "fourth-limit", "--q", ".5")
    assert code == 3
    assert err == f"error: Overflow: fourth-limit {message} the double range\n"


def _lines(ran):
    """(exit code, stdout lines) of a ``qdh`` run."""
    return ran[0], ran[1].splitlines()


def test_zero_scans_up_to_the_subnormal_eighth_zero_find_eight_zeros_or_exit_3(qdh):
    # from n = 504 at q = 0.5 the eighth zero is subnormal, where a scan
    # used to print fewer zeros with exit 0; the interlacing report of n
    # also scans n + 1
    for n in range(480, 527):
        code, rows = _lines(qdh("zeros", "--f", "fourth-limit", "--n", str(n), "--q", "0.5",
                                "--interlace"))
        if n < 503:
            assert code == 0 and len(rows) == 10 and rows[-1].endswith("pass"), n
        else:
            assert code == 3, n


def test_zero_scans_with_a_clamped_window_find_eight_zeros(qdh):
    # the window's inner end is subnormal from n = 501; the eighth zero
    # stays normal up to n = 503
    for n in (501, 502, 503):
        code, rows = _lines(qdh("zeros", "--f", "fourth-limit", "--n", str(n), "--q", "0.5"))
        assert code == 0 and len(rows) == 9, n
        assert abs(float(rows[-1].split(",")[0])) > sys.float_info.min
    code, rows = _lines(qdh("zeros", "--f", "fourth-limit", "--n", "504", "--q", "0.5"))
    assert code == 3 and rows == []


def test_default_window_scans_that_find_too_few_zeros_exit_3(qdh):
    # the default window holds eight zeros; from q ~ 0.92 the scan finds
    # fewer (6 at q = 0.93, 3 at 0.95 for n = 3), which printed with exit 0
    scan = ("zeros", "--f", "fourth-limit", "--n", "3")
    for q in ("0.93", "0.95"):
        code, rows = _lines(qdh(*scan, "--q", q))
        assert code == 3 and rows == [], q
    code, rows = _lines(qdh(*scan, "--q", "0.9"))
    assert code == 0 and len(rows) == 9
    # the interlacing report's scan of n + 1 too: at q = 0.924, n = -1
    # finds its eight zeros and n = 0 does not
    code, rows = _lines(qdh("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.924",
                            "--interlace"))
    assert code == 3 and rows == []
    # a window given by hand is scanned as it is, however many zeros it holds
    lo, hi = limits.fourth_limit_zero_window(0.95, 3, 8)
    code, rows = _lines(qdh(*scan, "--q", "0.95", "--scan-lo", repr(lo), "--scan-hi", repr(hi)))
    assert code == 0 and 1 < len(rows) < 9


# `qdh zeros --f fourth-limit --n -1 --q 0.5 --interlace` as it printed
# when the rows went out before the scan of n + 1
INTERLACE_PRINTED = (
    "zero,bracket_lo,bracket_hi\r\n"
    "-3.2045654446326455,-3.217291110149664,-3.1945462576019925\r\n"
    "-0.61424675187029776,-0.61599322860580974,-0.61163842368598031\r\n"
    "-0.13778929976295529,-0.13786290587690908,-0.13688827493472605\r\n"
    "-0.032770179114943093,-0.03288891288174331,-0.032656402534268512\r\n"
    "-0.0079979911269832983,-0.0080148452579566747,-0.0079581837786738569\r\n"
    "-0.0019760387970629099,-0.0019810850509783501,-0.0019670796390258145\r\n"
    "-0.00049112875397873445,-0.00049316503468130844,-0.00048967857181193592\r\n"
    "-0.00012242521512152086,-0.00012276694093073159,-0.00012189903191236897\r\n"
    "interlace n=-1 vs n=0: pass\n"
)


def test_interlace_errors_print_no_rows(qdh):
    # the usage check and both scans run before any row is printed: an
    # error exit leaves stdout empty
    for argv, code in [
        # the scan of n + 1 resolves 4 of its 8 zeros
        (("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.924", "--interlace"), 3),
        # the report needs the fourth-limit handle
        (("zeros", "--f", "al-salam-carlitz1:num", "--q", ".5", "--delta", ".4", "--a", "-.8",
          "--scan-lo", ".1", "--scan-hi", "5", "--interlace"), 2),
    ]:
        exit_code, out, err = qdh(*argv)
        assert exit_code == code and out == "" and err.startswith("error:"), argv
    assert qdh("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5", "--interlace") == (
        0, INTERLACE_PRINTED, "")


def test_eval_and_table_declare_the_same_family_options():
    # each flag is named after its family parameter; --A and --a stay apart
    names = ["q", "A", "B", "C", "D", "delta", "a"]
    for command in (cli.cmd_eval, cli.cmd_table):
        params = [(param.name, param.opts) for param in command.params]
        start = params.index(("q", ["--q"]))
        assert params[start:start + len(names)] == [(name, [f"--{name}"]) for name in names]


def test_accepted_cf_forms_evaluate(qdh):
    for form in ("default", "series-ratio", "confluent"):
        code, _, _ = qdh(
            "eval", "--family", "limit-wall", "--what", "cf", "--z", "2.5", "--q", ".5",
            "--A", ".3", "--cf-form", form,
        )
        assert code == 0


@pytest.mark.parametrize("what", ["solution", "cf", "poly"])
@pytest.mark.parametrize("family", sorted(["cdqh", *limits.FAMILIES]))
def test_every_family_evaluates_through_one_path(family, what, qdh):
    # a cut family's point is off its cut
    point = ("--x", "2", *CUT_ARGS[family]) if family in CUT_ARGS else (
        "--z", "2.5", "--q", ".5", *LIMIT_ARGS[family])
    code, out, err = qdh("eval", "--family", family, "--what", what, *point)
    assert code == 0, err
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("family", sorted(CUT_ARGS))
def test_flagship_polynomial_on_the_cut_takes_the_side_above(family, qdh):
    # polynomials are single valued across the cut; solutions are not (a
    # contract row: they exit 3 there without a side)
    on_cut = ("eval", "--family", family, "--z", "2.5", *CUT_ARGS[family])
    above = qdh(*on_cut, "--what", "poly", "--n", "3", "--side", "above")
    assert above[0] == 0
    assert qdh(*on_cut, "--what", "poly", "--n", "3") == above


@pytest.mark.parametrize("family, what", [
    (family, what) for family in sorted(CUT_ARGS)
    for what in ("poly", "poly-alt", "solution", "cf") if what != "poly-alt" or family == "cdqh"])
def test_the_side_on_the_cut_picks_the_boundary_value(family, what, qdh):
    # the two sides give complex conjugate values for real parameters
    on_cut = ("eval", "--family", family, "--x", "0.4", "--what", what, "--n", "3",
              *CUT_ARGS[family])
    rows = {}
    for side in ("above", "below"):
        code, out, _ = qdh(*on_cut, "--side", side)
        assert code == 0
        rows[side] = [float(v) for v in out.strip().splitlines()[-1].split(",")]
    (x, re_a, im_a), (_, re_b, im_b) = rows["above"], rows["below"]
    args = CUT_ARGS[family]
    fam = limits.family_from_id(family, **{k.lstrip("-"): float(v) for k, v in
                                           zip(args[::2], args[1::2])})
    assert x == pytest.approx(fam.z_at(0.4).real)
    assert re_b == pytest.approx(re_a, rel=1e-12)
    assert im_b == pytest.approx(-im_a, rel=1e-9, abs=1e-12 * abs(re_a))


POLY_ARGS = {"cdqh": CDQH_ARGS, **{fid: ("--q", ".5", *args) for fid, args in LIMIT_ARGS.items()}}


def _rows(ran):
    """The data rows of a ``qdh`` run that exits 0, split into cells."""
    code, out, err = ran
    assert code == 0, err
    return [line.split(",") for line in out.splitlines()[2:]]


@pytest.mark.parametrize("family", sorted(POLY_ARGS))
def test_eval_poly_prints_the_bits_table_prints(family, qdh):
    # one path for P_n: z = 12 lies off every cut, the grid crosses the
    # cuts, and z = 2.5 lies on each (a side picks no other value)
    cases = [(("--z", "12"), "12:12:1"), (("--grid", "-3:3.5:5"), "-3:3.5:5")]
    if family in CUT_ARGS:
        cases += [(("--z", "2.5", *side), "2.5:2.5:1")
                  for side in ((), ("--side", "above"), ("--side", "below"))]
    for point, grid in cases:
        table = _rows(qdh("table", "--family", family, "--n-lo", "12", "--n-hi", "12",
                          "--grid", grid, *POLY_ARGS[family]))
        evaluated = _rows(qdh("eval", "--family", family, "--what", "poly", "--n", "12",
                              *point, *POLY_ARGS[family]))
        assert [row[:2] for row in evaluated] == table, point
        assert all(float(row[2]) == 0 for row in evaluated)


def test_big_q_laguerre_p40_is_the_recurrence_in_mpmath(qdh):
    # the double sum printed -1.2825e+21 here; P_40 is -3.3921e+12
    params = {"q": 0.48569, "A": 0.27416, "B": 0.20900, "C": 0.52438}
    flags = [text for name, value in params.items() for text in (f"--{name}", repr(value))]
    (row,) = _rows(qdh("eval", "--family", "big-q-laguerre", "--what", "poly", "--n", "40",
                       "--z", "2.31957", *flags))
    fam = limits.family_from_id("big-q-laguerre", **params)
    with mpmath.workdps(50):
        z, prev, cur = mpmath.mpf(2.31957), mpmath.mpf(0), mpmath.mpf(1)
        for n in range(40):
            a_n, b_sq = (mpmath.mpc(c) for c in recurrence.coeffs(fam, n))
            prev, cur = cur, (z - a_n) * cur - b_sq * prev
        assert abs(complex(float(row[1]), float(row[2])) - cur) <= 1e-12 * abs(cur)


@pytest.mark.parametrize("family", sorted(FINITE_P1200))
def test_p1200_on_the_cut_is_finite(family, qdh):
    (row,) = _rows(qdh("eval", "--family", family, "--what", "poly", "--n", "1200",
                       "--z", "2.5", *POLY_ARGS[family]))
    assert float(row[1]) == pytest.approx(FINITE_P1200[family], rel=5e-3)
    assert float(row[2]) == 0


def _scalar_scan(f, grid, safe_f):
    return [safe_f(x) for x in grid]


@pytest.mark.parametrize("argv", [
    ("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5", "--interlace"),
    ("zeros", "--f", "fourth-limit", "--n", "1", "--q", "0.8", "--interlace", "--format", "json"),
    ("zeros", "--f", "al-salam-carlitz1:den", "--q", ".5", "--delta", "-.8",
     "--scan-lo", ".02", "--scan-hi", "1.8"),
    ("zeros", "--f", "q-bessel-order:num", "--q", ".5", "--a", "-.8",
     "--scan-lo", ".02", "--scan-hi", "1.8", "--format", "text"),
])
def test_zero_scans_print_what_the_pointwise_scan_prints(argv, monkeypatch, qdh):
    grid = qdh(*argv)
    assert grid[0] == 0
    monkeypatch.setattr(limits, "_scan_values", _scalar_scan)
    assert qdh(*argv) == grid


def _former_emit_rows(rows, header, fmt, params_comment=None):
    """The emitter as it was with csv.writer, kept to check that the
    output did not change; its callers passed a complex value as its
    str, which it does first."""
    rows = [[str(v) if isinstance(v, complex) else v for v in row] for row in rows]

    def fmt_value(v):
        return f"{v:.17g}"

    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        if params_comment:
            buffer.write(f"# {params_comment}\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) if isinstance(v, float) else v for v in row])
        click.echo(buffer.getvalue(), nl=False)
    elif fmt == "json":
        click.echo(json.dumps(
            {"header": list(header),
             "rows": [[fmt_value(v) if isinstance(v, float) else v for v in row] for row in rows]},
            sort_keys=True))
    else:
        if params_comment:
            click.echo(f"# {params_comment}")
        for row in rows:
            click.echo(" ".join(fmt_value(v) if isinstance(v, float) else str(v) for v in row))


EDGE_ROWS = [
    [float("nan"), float("inf"), -float("inf")],
    [-0.0, 5e-324, 1e300],
    [np.float64(0.1), np.float64(-2.5e-310), 1 / 3],
    [2 + 1j, 0.5, -0.25],
    ["(2-3j)", complex(-1.5, 1e-300), complex(float("nan"), 0)],
]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("comment", [None, "family=wall q=0.5 A=0.29999999999999999 B=-0+1i"])
@pytest.mark.parametrize("rows", [EDGE_ROWS, []], ids=["edge-values", "empty"])
def test_cells_print_as_the_former_csv_writer_printed_them(rows, fmt, comment, capsys):
    header = ("n_or_x", "re", "im")
    cli._emit_rows(rows, header, fmt, comment)
    printed = capsys.readouterr().out
    _former_emit_rows(rows, header, fmt, comment)
    assert printed == capsys.readouterr().out
    if fmt == "csv":
        assert printed.endswith("\r\n") and "\n" not in printed.replace("\r\n", "")


TABLE_CASES = [
    *[("table", "--family", fid, "--n-lo", "1", "--n-hi", "12", "--grid", "-3:3.5:17", *args)
      for fid, args in [("cdqh", CDQH_ARGS),
                        *[(fid, ("--q", ".5", *a)) for fid, a in LIMIT_ARGS.items()]]],
    ("table", "--family", "wall", "--n-lo", "3", "--n-hi", "2", "--grid", "1:2:3", "--q", ".5",
     *LIMIT_ARGS["wall"]),
]
EVAL_CASES = [
    ("eval", "--family", "cdqh", "--what", "weight", "--grid", "-0.99:0.99:9", *CDQH_ARGS),
    ("eval", "--family", "fourth-limit", "--what", "cf", "--cf-form", "power-sums",
     "--grid", "-2.5:3:6", "--q", ".5"),
    ("eval", "--family", "wall", "--what", "poly", "--n", "4", "--z", "2+0.5i",
     "--q", ".5", *LIMIT_ARGS["wall"]),
    ("eval", "--family", "al-salam-chihara", "--what", "cf", "--x", "0.3", "--side", "above",
     "--q", ".5", *LIMIT_ARGS["al-salam-chihara"]),
]
ZERO_CASES = [
    ("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5", "--interlace"),
    ("zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5", "--scan-lo", "1e-4",
     "--scan-hi", "1e4"),
    ("zeros", "--f", "q-bessel-order:num", "--q", ".5", "--a", "-.8", "--scan-lo", ".02",
     "--scan-hi", "1.8"),
]
FORMAT_CASES = TABLE_CASES + EVAL_CASES + ZERO_CASES


def _command_id(argv):
    return _case_id((argv, {}, 0))


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("argv", FORMAT_CASES, ids=map(_command_id, FORMAT_CASES))
def test_commands_print_what_the_former_emitter_printed(argv, fmt, monkeypatch, qdh):
    printed = qdh(*argv, "--format", fmt)
    assert printed[0] == 0
    monkeypatch.setattr(cli, "_emit_rows", _former_emit_rows)
    assert qdh(*argv, "--format", fmt) == printed


@pytest.mark.parametrize("argv", [TABLE_CASES[0], EVAL_CASES[0], ZERO_CASES[0]],
                         ids=["table", "eval", "zeros"])
def test_commands_emit_through_the_module_global(argv, monkeypatch, qdh):
    # a tracer wraps cli._emit_rows by name and reads the row count
    calls = []
    monkeypatch.setattr(cli, "_emit_rows", lambda rows, *rest: calls.append(len(rows)))
    assert qdh(*argv)[0] == 0
    assert len(calls) == 1 and calls[0] > 0


def _former_table_rows(points, table):
    """``qdh table``'s former per-cell row builder, kept to check that its
    one array pass builds the same cells."""
    rows = []
    for z, values in zip(points, table.T):
        rows.append([z] + [v.real if abs(v.imag) < 1e-300 else v for v in values.tolist()])
    return rows


def _crafted_table(n_rows, n_points):
    """P_n values with every kind of cell the row builder tells apart: an
    imaginary part below 1e-300 (0, -0.0, +-1e-301) prints the real part,
    one at 1e-300 or above, nan or inf prints the complex value; real
    parts include nan and inf."""
    imags = [0.0, -0.0, 1e-301, -1e-301, 1e-300, 1e-299, -1e-299, math.nan, math.inf, -math.inf]
    reals = [0.5, -2.5e-310, 1 / 3, -7.25e12, math.nan, math.inf, -math.inf]
    cells = [complex(re, im) for im in imags for re in reals]
    count = n_rows * n_points
    return np.array((cells * (count // len(cells) + 1))[:count]).reshape(n_rows, n_points)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_cells_are_the_former_per_cell_builders(fmt, monkeypatch, qdh):
    table = _crafted_table(9, 11)
    monkeypatch.setattr(family, "poly_rows", lambda fam, z, n_lo, n_hi: table)
    argv = ("table", "--family", "wall", "--n-lo", "2", "--n-hi", "10", "--grid", "1:2:11",
            "--q", ".5", *LIMIT_ARGS["wall"], "--format", fmt)
    printed = qdh(*argv)
    assert printed[0] == 0
    points = cli._parse_grid("1:2:11")

    def former(rows, header, fmt, params_comment=None):
        _former_emit_rows(_former_table_rows(points, table), header, fmt, params_comment)

    monkeypatch.setattr(cli, "_emit_rows", former)
    assert qdh(*argv) == printed
    # the crafted cells print both ways: as a real part and as complex
    assert all(text in printed[1]
               for text in ("-2.5000000000000171e-310", "(0.5+1e-300j)", "(nan+infj)"))


_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.integers(-10**20, 10**20),
    # no separator or quote, which the former csv writer quoted
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"'),
            min_size=1, max_size=6),
)


def _same_length_rows(length):
    return st.lists(st.lists(_CELLS, min_size=length, max_size=length), min_size=1, max_size=6)


def _echoed(emit, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(*args)
    return out.getvalue()


@given(rows=st.integers(1, 5).flatmap(_same_length_rows), more=st.lists(st.lists(_CELLS)))
@example(rows=[[1.5, 2, "a"], [2, 1.5, "a"], ["%s", 1.5, 2 + 1j], [np.float64(0.1), 3, 1e300]],
         more=[])
@settings(max_examples=100, deadline=None)
def test_rows_print_each_cells_text(rows, more):
    # rows of one length and different cell types: a format kept for one
    # type sequence must not print the next row
    rows = rows + [row for row in more if row]
    header = ("a", "b")
    for fmt, sep, end in (("csv", ",", "\r\n"), ("text", " ", "\n")):
        printed = _echoed(cli._emit_rows, rows, header, fmt)
        lines = [sep.join(map(cli._cell, row)) for row in rows]
        if fmt == "csv":
            lines.insert(0, sep.join(header))
        assert printed == end.join(lines) + end
        assert printed == _echoed(_former_emit_rows, rows, header, fmt)
