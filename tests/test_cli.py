import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from qdhahn import cdqhahn, cli, limits, recurrence
from qdhahn.cli import main


def invoke(*args, env=None):
    runner = CliRunner()
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def run_script(*args):
    """Run through the console entry point to exercise exit codes."""
    return subprocess.run(
        [sys.executable, "-m", "qdhahn.cli", *args],
        capture_output=True,
        text=True,
    )


class TestEval:
    def test_single_polynomial_row(self):
        result = invoke(
            "eval", "--family", "cdqh", "--what", "poly", "--n", "3",
            "--z", "2.0", "--A", ".3", "--B", ".3", "--C", ".3", "--D", ".3",
            "--q", ".5",
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("# family=cdqh")
        assert lines[1] == "n_or_x,re,im"
        assert len(lines) == 3

    def test_weight_grid_rows(self):
        result = invoke(
            "eval", "--family", "cdqh", "--what", "weight",
            "--grid", "-0.99:0.99:199",
            "--A", ".4", "--B", ".4", "--C", ".5", "--D", ".4", "--q", ".5",
        )
        assert result.exit_code == 0
        rows = [l for l in result.output.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 200  # header + 199 points
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize("family_args", [
        ("cdqh", "--A", ".4", "--B", ".4", "--C", ".7", "--D", ".4"),
        ("al-salam-chihara", "--A", ".35", "--B", ".45", "--delta", ".7"),
        ("cont-q-hermite", "--A", ".35", "--delta", ".7"),
        ("cont-big-q-hermite", "--A", ".5", "--a", "1.6"),
    ])
    def test_weight_grid_rows_match_single_points(self, family_args):
        common = ("eval", "--family", *family_args, "--q", ".5", "--what", "weight")
        result = invoke(*common, "--grid", "-0.98:0.98:9")
        assert result.exit_code == 0
        rows = [l.split(",") for l in result.output.splitlines()[2:]]
        assert len(rows) == 9
        for x, re_text, im_text in rows:
            single = invoke(*common, "--x", x)
            assert single.exit_code == 0
            sx, s_re, s_im = single.output.splitlines()[2].split(",")
            assert float(sx) == float(x)
            assert abs(float(re_text) - float(s_re)) <= 1e-12 * abs(float(s_re))
            assert float(im_text) == float(s_im) == 0.0

    def test_missing_parameter_exit_2(self):
        proc = run_script(
            "eval", "--family", "cdqh", "--what", "poly", "--n", "3",
            "--z", "2.0", "--A", ".3", "--B", ".3", "--C", ".3", "--q", ".5",
        )
        assert proc.returncode == 2
        assert "missing: D" in proc.stderr

    def test_numeric_error_exit_3(self):
        # on-cut evaluation of a branch-sensitive solution
        proc = run_script(
            "eval", "--family", "cdqh", "--what", "solution", "--which",
            "minimal", "--n", "2", "--z", "2.0", "--A", ".3", "--B", ".3",
            "--C", ".3", "--D", ".3", "--q", ".5",
        )
        assert proc.returncode == 3
        assert "BranchAmbiguous" in proc.stderr

    def test_limit_family_solution(self):
        result = invoke(
            "eval", "--family", "wall", "--what", "solution", "--which", "1",
            "--n", "2", "--z", "2.4", "--A", ".3", "--B", ".4", "--q", ".5",
        )
        assert result.exit_code == 0

    def test_unknown_family_exit_2(self):
        proc = run_script(
            "eval", "--family", "nope", "--what", "poly", "--z", "2.0", "--q", ".5"
        )
        assert proc.returncode == 2

    def test_base_out_of_range_exit_2(self):
        proc = run_script(
            "eval", "--family", "fourth-limit", "--what", "poly", "--n", "2",
            "--z", "2.0", "--q", "1.5",
        )
        assert proc.returncode == 2
        assert "q" in proc.stderr

    @pytest.mark.parametrize("what", ["poly", "poly-alt"])
    def test_negative_degree_exit_2(self, what):
        proc = run_script(
            "eval", "--family", "cdqh", "--what", what, "--n", "-3", "--z", "2.5",
            "--q", ".5", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45",
        )
        assert proc.returncode == 2
        assert "--n must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_polynomial_past_double_range_exit_3(self):
        proc = run_script(
            "eval", "--family", "fourth-limit", "--what", "poly", "--n", "30",
            "--z", "2.5", "--q", ".5",
        )
        assert proc.returncode == 3
        assert "Overflow" in proc.stderr
        assert "nan" not in proc.stdout

    def test_seventeen_significant_digits(self):
        result = invoke(
            "eval", "--family", "fourth-limit", "--what", "poly", "--n", "4",
            "--z", "2.31", "--q", ".5",
        )
        row = [l for l in result.output.splitlines() if not l.startswith("#")][1]
        value = row.split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_deterministic_output(self):
        args = (
            "eval", "--family", "cdqh", "--what", "cf", "--z", "20.0",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        assert invoke(*args).output == invoke(*args).output

    def test_byte_identical_across_processes(self):
        args = (
            "table", "--family", "wall", "--n-hi", "4", "--grid", "2:4:5",
            "--A", ".3", "--B", ".4", "--q", ".5",
        )
        first = run_script(*args)
        second = run_script(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_tolerance_env_override(self, monkeypatch):
        args = (
            "eval", "--family", "cdqh", "--what", "cf", "--z", "20.0",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        tight = invoke(*args, env={"QDH_TOL": "1e-13"})
        loose = invoke(*args, env={"QDH_TOL": "1e-3"})
        assert tight.exit_code == 0 and loose.exit_code == 0
        v_tight = float(tight.output.splitlines()[-1].split(",")[1])
        v_loose = float(loose.output.splitlines()[-1].split(",")[1])
        # the loose tolerance truncates the series visibly earlier
        assert abs(v_tight - v_loose) > 1e-12 * abs(v_tight)


class TestVerify:
    def test_single_check_passes(self):
        result = invoke("verify", "--check", "symmetries", "--fast")
        assert result.exit_code == 0
        assert "PASS symmetries" in result.output

    def test_unknown_check_exit_2(self):
        proc = run_script("verify", "--check", "bogus")
        assert proc.returncode == 2

    def test_json_format(self):
        result = invoke("verify", "--check", "limits", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert isinstance(payload, list)
        assert payload[0]["check_id"] == "limit-edges"
        assert payload[0]["pass"] is True

    def test_orthogonality_json(self):
        result = invoke("verify", "--check", "orthogonality", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [r["check_id"] for r in payload] == [
            "orthogonality/reduced", "orthogonality/associated",
        ]
        assert all(r["pass"] is True for r in payload)
        assert all(isinstance(r["max_rel_error"], float) for r in payload)

    def test_seed_recorded(self):
        result = invoke("verify", "--check", "limits", "--seed", "123")
        assert "seed=123" in result.output


class TestZeros:
    def test_negative_zeros_csv(self):
        result = invoke("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert rows[0] == "zero,bracket_lo,bracket_hi"
        zeros = [float(r.split(",")[0]) for r in rows[1:]]
        assert zeros and all(z < 0 for z in zeros)

    def test_interlace_report(self):
        result = invoke(
            "zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5",
            "--max-zeros", "6", "--interlace",
        )
        assert result.exit_code == 0
        assert "interlace n=0 vs n=1: pass" in result.output

    def test_positive_axis_scan_is_empty(self):
        result = invoke(
            "zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5",
            "--scan-lo", "1e-4", "--scan-hi", "1e4",
        )
        rows = result.output.strip().splitlines()
        assert rows == ["zero,bracket_lo,bracket_hi"]


class TestTable:
    def test_matrix_shape(self):
        result = invoke(
            "table", "--family", "cdqh", "--n-hi", "5", "--grid", "25:29:21",
            "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45", "--q", ".5",
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("# family=cdqh q=0.5")
        assert lines[1] == "z,n0,n1,n2,n3,n4,n5"
        assert len(lines) == 2 + 21

    def test_empty_degree_range_header_only(self):
        result = invoke(
            "table", "--family", "fourth-limit", "--n-lo", "3", "--n-hi", "2",
            "--grid", "1:2:3", "--q", ".5",
        )
        lines = result.output.strip().splitlines()
        assert lines[-1] == "z"

    @pytest.mark.parametrize("fam, args", [
        (cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45),
         ("cdqh", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45")),
        (limits.FourthLimit(0.5), ("fourth-limit",)),
        (limits.QBesselOrder(0.5, -1.0), ("q-bessel-order", "--a", "-1.0")),
    ])
    def test_rows_equal_per_point_reference(self, fam, args):
        # one grid recurrence must print what one scalar run per point
        # prints, byte for byte, across the renormalization at n = 50
        result = invoke("table", "--family", *args, "--q", ".5", "--n-lo", "2",
                        "--n-hi", "60", "--grid", "-3:3:25")
        assert result.exit_code == 0
        expected = []
        for i in range(25):
            z = -3.0 + i * 0.25
            seq = recurrence.forward_eval(fam, z, 0.0, 1.0, 60)
            values = [seq.value(n) for n in range(2, 61)]
            assert all(v.imag == 0 for v in values)
            expected.append(",".join(f"{v:.17g}" for v in [z] + [v.real for v in values]))
        assert result.output.splitlines()[2:] == expected

    def test_negative_degree_exit_2(self):
        proc = run_script(
            "table", "--family", "fourth-limit", "--n-lo", "-3", "--n-hi", "2",
            "--grid", "1:2:3", "--q", ".5",
        )
        assert proc.returncode == 2
        assert "--n-lo must be >= 0" in proc.stderr

    def test_single_point_grid(self):
        result = invoke(
            "table", "--family", "fourth-limit", "--n-hi", "2",
            "--grid", "2:2:1", "--q", ".5",
        )
        rows = [l for l in result.output.strip().splitlines() if not l.startswith("#")]
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

# (argv, environment, exit code): double sums past the double range exit
# 3; malformed input exits 2
CONTRACT_CASES = [
    (("eval", "--family", "cdqh", "--what", "poly-alt", "--n", "200", "--x", "2", *CDQH_ARGS),
     {}, 3),
    (("eval", "--family", "cdqh", "--what", "poly", "--n", "1200", "--x", "2", *CDQH_ARGS),
     {}, 3),
    *[(("eval", "--family", fid, "--what", "poly", "--n", "1200", "--z", "2.5", "--q", ".5",
        *args), {}, 3) for fid, args in LIMIT_ARGS.items()],
    ((*WALL, "--what", "poly", "--n", "3", "--grid", "a:b:3"), {}, 2),
    ((*WALL, "--what", "solution", "--which", "x", "--z", "2"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2", "--tol", "0"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2", "--tol", "-1"), {}, 2),
    ((*WALL, "--what", "cf", "--z", "2"), {"QDH_TOL": "abc"}, 2),
    (("eval", "--family", "cdqh", "--what", "cf", "--x", "2", "--cf-form", "bogus", *CDQH_ARGS),
     {}, 2),
    *[(("eval", "--family", fid, "--what", "cf", "--z", "2.5", "--q", ".5", "--cf-form", "bogus",
        *args), {}, 2) for fid, args in LIMIT_ARGS.items()],
    (("eval", "--family", "cont-q-hermite", "--what", "weight", "--x", "1.7", "--q", ".5",
      *LIMIT_ARGS["cont-q-hermite"]), {}, 2),
    (("eval", "--family", "cdqh", "--what", "cf", "--z", "50", "--side", "above", *CDQH_ARGS), {}, 2),
    (("zeros", "--f", "limit-asc1:num", "--q", ".5", "--delta", "0", "--scan-lo", ".1",
      "--scan-hi", "1"), {}, 2),
    # a closed form that divides by zero at z = 0 is a named numerical error
    *[(("eval", "--family", fid, "--what", what, "--z", "0", "--q", ".5", *args), {}, 3)
      for fid, args in LIMIT_ARGS.items() for what in ("cf", "solution")
      if fid not in ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")],
    *[(("eval", "--family", "q-bessel-order", "--what", what, "--grid", "-1:1:5", "--q", ".5",
        *LIMIT_ARGS["q-bessel-order"]), {}, 3) for what in ("cf", "solution")],
]




def _case_id(case):
    argv, env, _ = case
    named = [f"{k}={v}" for k, v in env.items()]
    for option in ("--family", "--f", "--what", "--n", "--x", "--grid", "--which", "--side",
                   "--tol", "--cf-form", "--delta"):
        if option in argv:
            named.append(f"{option.lstrip('-')}={argv[argv.index(option) + 1]}")
    return "-".join([argv[0], *named])


@pytest.mark.parametrize("argv, env, code", CONTRACT_CASES, ids=map(_case_id, CONTRACT_CASES))
def test_exit_code_contract(argv, env, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qdh", *argv])
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    err = capsys.readouterr().err
    assert exited.value.code == code
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_accepted_cf_forms_evaluate():
    for form in ("default", "series-ratio", "confluent"):
        result = invoke(
            "eval", "--family", "limit-wall", "--what", "cf", "--z", "2.5", "--q", ".5",
            "--A", ".3", "--cf-form", form,
        )
        assert result.exit_code == 0


@pytest.mark.parametrize("what", ["solution", "cf", "poly"])
@pytest.mark.parametrize("family", sorted(cli._FAMILIES))
def test_every_family_evaluates_through_one_path(family, what):
    point = ("--x", "2", *CDQH_ARGS) if family == "cdqh" else (
        "--z", "2.5", "--q", ".5", *LIMIT_ARGS[family])
    result = invoke("eval", "--family", family, "--what", what, *point)
    assert result.exit_code == 0, result.output
    assert len(result.output.strip().splitlines()) == 3


def test_flagship_polynomial_on_the_cut_takes_the_side_above():
    # polynomials are single valued across the cut; solutions are not
    on_cut = ("eval", "--family", "cdqh", "--z", "2.5", *CDQH_ARGS)
    above = invoke(*on_cut, "--what", "poly", "--n", "3", "--side", "above")
    assert above.exit_code == 0
    assert invoke(*on_cut, "--what", "poly", "--n", "3").output == above.output
    assert run_script(*on_cut, "--what", "solution").returncode == 3
