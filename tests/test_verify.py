import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qdhahn import cdqhahn, limits, qseries, verify
from qdhahn.errors import QdhError


class TestCheckReport:
    def test_pass_fail_invariant(self):
        report = verify.CheckReport("demo", 1, 0, 0.0, 1e-9)
        report.record(1e-12, {"k": 1}, 1.0, 1.0)
        assert report.passed
        assert not report.failures
        report.record(1e-3, {"k": 2}, 1.0, 2.0)
        assert not report.passed
        assert len(report.failures) == 1

    def test_json_schema(self):
        report = verify.CheckReport("demo", 7, 0, 0.0, 1e-9)
        report.record(0.5, {"x": 0.1, "w": 1 + 2j}, 1.0, 1.5)
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert set(payload) == {
            "check_id", "seed", "points", "max_rel_error", "pass", "failures",
        }
        assert payload["check_id"] == "demo"
        assert payload["seed"] == 7
        assert payload["pass"] is False
        assert payload["failures"][0]["inputs"]["w"] == [1.0, 2.0]

    def test_text_line(self):
        report = verify.CheckReport("demo", 7, 3, 1e-12, 1e-9)
        line = report.to_text()
        assert line.startswith("PASS demo:")
        assert "seed=7" in line


def _mp_legendre_root(count, theta):
    """The root x of P_count nearest cos(theta) and its Gauss weight, by
    Newton's method in theta on the Legendre recurrence at 50 digits.
    From a start good to double precision, one correction leaves an
    error far below it, and the second pass evaluates there.
    (mpmath.legendre loses digits near the edges at large counts.)"""
    with mpmath.workdps(50):
        t = mpmath.mpf(theta)
        for _ in range(2):
            x = mpmath.cos(t)
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, count):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            slope = count * (x * p - p_prev) / mpmath.sin(t)
            t -= p / slope
        return x, 2 / slope**2


class TestGaussNodes:
    @pytest.mark.parametrize("count", [600, 2000, 4000])
    def test_nodes_and_weights_against_a_50_digit_reference(self, count):
        x, w = verify.gauss_nodes(count)
        assert x.shape == w.shape == (count,)
        assert np.all(np.diff(x) > 0)
        # the four outermost nodes, then two interior ones
        for i, tol in [(0, 1e-9), (1, 1e-9), (2, 1e-9), (3, 1e-9),
                       (count // 3, 1e-13), (count // 2, 1e-13)]:
            ref_x, ref_w = _mp_legendre_root(count, math.acos(x[i]))
            assert abs(x[i] - ref_x) <= 1.2e-16, (i, x[i])
            assert abs(w[i] - ref_w) <= tol * ref_w, (i, w[i])

    def test_odd_count_is_symmetric_about_an_exact_zero(self):
        x, w = verify.gauss_nodes(601)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert x[300] == 0.0 and np.all(np.diff(x) > 0)
        assert abs(w.sum() - 2) <= 1e-14


class TestChecks:
    def test_contiguous_all_pass(self):
        for report in verify.check_contiguous_all(sample_count=30, seed=11):
            assert report.passed, report.to_text()
            assert report.max_rel_error < 1e-9

    def test_contiguous_deterministic_per_seed(self):
        a = verify.check_contiguous_all(sample_count=10, seed=5)[0]
        b = verify.check_contiguous_all(sample_count=10, seed=5)[0]
        assert a.check_id == "contiguous/a-up"
        assert a.max_rel_error == b.max_rel_error

    @pytest.mark.parametrize("seed", range(4))
    def test_contiguous_all_equals_one_unshared_pass_per_relation(self, seed):
        # each relation drawing and summing its own series, as each did
        # before the relations shared draws
        unshared = []
        for rid in verify.CONTIGUOUS_RELATIONS:
            rng = random.Random(seed)
            report = verify.CheckReport(f"contiguous/{rid}", seed, 0, 0.0, 1e-9)
            for _ in range(100):
                q = rng.uniform(0.35, 0.65)
                a, b, c, d, e = verify._balanced_draw(rng, q)
                res = verify._contiguous_residual(rid, a, b, c, d, e, q,
                                                   verify._DrawSeries())
                report.record(res, {"q": q, "a": a, "b": b, "c": c, "d": d, "e": e}, res, 0.0)
            unshared.append(report.to_dict())
        shared = [report.to_dict() for report in verify.check_contiguous_all(seed=seed)]
        assert shared == unshared

    def test_contiguous_draw_sums_each_of_its_seven_series_once(self, monkeypatch):
        summed = []

        def counted(*args):
            summed.append(args)
            return verify.qseries.phi32(*args)

        monkeypatch.setattr(verify, "phi32", counted)
        reports = verify.check_contiguous_all(sample_count=1, seed=5)
        assert [report.points_tested for report in reports] == [1] * 5
        assert 0 < len(summed) == len(set(summed)) <= 7

    def test_contiguous_degenerate_equal_parameters_still_hold(self):
        # a draw with b = d collapses one shift factor; the relation
        # residual must still vanish
        res = verify._contiguous_residual(
            "a-up", 0.4, 0.35, 0.6, 0.35, 0.25, 0.5, verify._DrawSeries()
        )
        assert res < 1e-12

    def test_three_term_transform(self):
        report = verify.check_three_term_transform(sample_count=15, seed=11)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_c_eq_q_reduction(self):
        report = verify.check_c_eq_q_reduction(sample_count=6, seed=11)
        assert report.passed

    def test_symmetries(self):
        report = verify.check_symmetries(sample_count=2, seed=11)
        assert report.passed

    def test_limit_edges(self):
        report = verify.check_limits_all(seed=11)
        assert report.passed
        edges = {f.inputs.get("edge") for f in report.failures}
        assert not edges

    def test_transforms(self):
        reports = verify.check_transforms(sample_count=25, seed=11)
        assert len(reports) == len(verify.qseries.transform_ids())
        for report in reports:
            assert report.passed, report.to_text()

    @pytest.mark.slow
    def test_orthogonality_reduced(self):
        report = verify.check_orthogonality("reduced", nodes=800, seed=11)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_run_checks_unknown_id(self):
        with pytest.raises(KeyError):
            verify.run_checks("bogus")

    def test_run_checks_all_report_order(self):
        ids = [report.check_id for report in verify.run_checks("all", seed=3, fast=True)]
        assert ids == [
            "contiguous/a-up", "contiguous/up-mixed", "contiguous/a-bilateral",
            "contiguous/a-updown", "contiguous/all-updown",
            "three-term-transform", "c-eq-q-reduction",
            "orthogonality/reduced", "orthogonality/associated",
            "symmetries", "limit-edges",
            "transform/cont-a", "transform/cont-b", "transform/heine",
            "transform/p21-p22", "transform/p21-p12", "transform/p21-p11",
            "transform/p11-swap", "transform/p11-zero-swap", "transform/p01-p11",
            "transform/q-binomial",
        ]

    def test_run_checks_looks_each_check_up_when_called(self, monkeypatch):
        # the benchmark's tracer rebinds the check_* names; a table that
        # captured the function objects would bypass the rebound name
        calls = []
        original = verify.check_limits_all

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_limits_all", wrapper)
        reports = verify.run_checks("limits", seed=5)
        assert calls == [(5,)]
        assert [report.check_id for report in reports] == ["limit-edges"]

    def test_readme_table_matches_the_battery(self):
        # the README's verify table: check id, report ids, counts, threshold
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Verification battery", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines()
                if line.startswith("| `")]
        assert [row[0].strip().strip("`") for row in rows] == list(verify.CHECK_IDS)
        for check_id, report_ids, _, threshold in rows:
            reports = verify.run_checks(check_id.strip().strip("`"), seed=3, fast=True)
            listed = [rid.strip().strip("`") for rid in report_ids.split(",")]
            assert [report.check_id for report in reports] == listed
            assert {report.threshold for report in reports} == {float(threshold)}

    def test_pole_free_scan_flags_reduced_masses(self):
        # pushing one parameter far above the mass-free bound plants a
        # pole on the real axis, which the scan must detect
        from qdhahn import cdqhahn

        clean = cdqhahn.CDQHParams(0.5, 0.4, 0.4, 0.7, 0.4)
        assert verify.transform_pole_free(clean)


# The three sampled checks as each wrote its own draw/reject/record loop
# before they shared verify._sampled.


def _former_three_term(sample_count, seed):
    rng = random.Random(seed)
    report = verify.CheckReport("three-term-transform", seed, 0, 0.0, 1e-8)
    while report.points_tested < sample_count:
        params, point = verify.draw_cdqh(rng)
        if abs(params.A - params.C) < 5e-3:
            continue
        try:
            c1, c4, c2 = cdqhahn.three_term_coeffs(params, point)
            n = rng.randrange(0, 8)
            lhs = c1 * cdqhahn.solution(params, point, "dominant", n) - c4 * cdqhahn.solution(
                params, point, "lead-c", n
            )
            rhs = c2 * cdqhahn.solution(params, point, "lead-a", n)
        except QdhError:
            continue
        err = verify._rel(lhs, rhs)
        report.record(
            err,
            {"q": params.q, "A": params.A.real, "B": params.B.real,
             "C": params.C.real, "D": params.D.real, "x": point.x, "n": n},
            lhs,
            rhs,
        )
    return report


def _former_c_eq_q(sample_count, seed):
    rng = random.Random(seed)
    report = verify.CheckReport("c-eq-q-reduction", seed, 0, 0.0, 1e-9)
    while report.points_tested < sample_count:
        params, point = verify.draw_cdqh(rng)
        n = rng.randrange(0, 6)
        try:
            lhs = cdqhahn.solution(params, point, "lead-a", n)
            rhs = verify._lead_a_two_series(params, point, n)
        except QdhError:
            continue
        report.record(verify._rel(lhs, rhs), {"stage": "two-series", "n": n, "q": params.q},
                      lhs, rhs)
        reduced = cdqhahn.CDQHParams(params.q, params.A, params.B, params.q, params.D)
        rpoint = cdqhahn.spectral_point(reduced, x=point.x.real)
        try:
            lead_a = [cdqhahn.solution(reduced, rpoint, "lead-a", m) for m in (0, 1, n)]
            terminating = [
                cdqhahn.dual_qhahn_reduction(reduced, rpoint, m) for m in (0, 1, n)
            ]
        except QdhError:
            continue
        ratios = [va / vb for va, vb in zip(lead_a, terminating)]
        err = max(verify._rel(r, ratios[0]) for r in ratios)
        report.record(err, {"stage": "reduction-ratio", "n": n, "q": params.q},
                      ratios[-1], ratios[0])
        const = qseries.qpoch_multi(
            [reduced.A * params.q * rpoint.lam_minus, reduced.A * params.q * rpoint.lam_plus],
            params.q,
        ) / qseries.qpoch_multi([reduced.A * params.q / reduced.D, params.q / reduced.B], params.q)
        report.record(verify._rel(ratios[0], const),
                      {"stage": "reduction-constant", "q": params.q}, ratios[0], const)
    return report


def _former_transforms(sample_count, seed):
    reports = []
    for tid in qseries.transform_ids():
        rng = random.Random(seed)
        report = verify.CheckReport(f"transform/{tid}", seed, 0, 0.0, 1e-10)
        while report.points_tested < sample_count:
            q = rng.uniform(0.3, 0.7)
            inputs = qseries.sample_transform_inputs(tid, rng, q)
            try:
                lhs, rhs = qseries.transform_check(tid, q, **inputs)
            except QdhError:
                continue
            report.record(verify._rel(lhs, rhs, max(abs(lhs), 1.0)), {"q": q, **inputs}, lhs, rhs)
        reports.append(report)
    return reports


@pytest.mark.parametrize("seed", range(4))
def test_sampled_checks_equal_their_former_loops(seed):
    assert (verify.check_three_term_transform(seed=seed).to_dict()
            == _former_three_term(50, seed).to_dict())
    assert (verify.check_c_eq_q_reduction(seed=seed).to_dict()
            == _former_c_eq_q(20, seed).to_dict())
    assert ([report.to_dict() for report in verify.check_transforms(seed=seed)]
            == [report.to_dict() for report in _former_transforms(100, seed)])


def test_sampled_keeps_the_records_of_a_trial_before_it_raises():
    def trial(rng):
        value = rng.random()
        yield 2e-9, {"v": value}, value, 0.0
        if value < 0.5:
            raise QdhError("redraw")
        yield 0.0, {"v": value}, value, value

    report = verify._sampled("demo", 9, 1e-9, 6, trial)
    rng = random.Random(9)
    trials = points = 0
    while points < 6:
        trials += 1
        points += 1 if rng.random() < 0.5 else 2
    assert report.points_tested == points
    # each trial's first record fails the threshold and is kept, redrawn or not
    assert len(report.failures) == trials
    assert report.max_rel_error == 2e-9 and not report.passed


def _draw_by_family_id(rng, family_id, q_range=(0.35, 0.65)):
    """draw_limit_family as it was written before each family declared
    its comfort drivers: the drivers chosen by family id."""
    cls = limits.FAMILIES[family_id]
    while True:
        q = rng.uniform(*q_range)
        kw = {}
        for name in cls.param_names:
            if name in ("A", "B", "C"):
                kw[name] = rng.uniform(0.2, 0.85)
            elif name == "delta":
                kw[name] = rng.choice([1.0, -1.0]) * rng.uniform(0.35, 0.9)
            elif name == "a":
                kw[name] = -rng.uniform(0.3, 1.4)
        fam = cls(q, **kw)
        if hasattr(fam, "gamma"):
            z = rng.uniform(1.3, 2.3) * abs(fam.gamma)
        else:
            z = rng.uniform(2.0, 3.4)
        drivers = []
        if family_id == "big-q-laguerre":
            A, B, C = fam.A, fam.B, fam.C
            drivers += [q / (B * C * z), q / (A * C * z), q / (A * B * z)]
        elif family_id == "wall":
            drivers += [q / (fam.A * fam.B * z), q / (fam.A * z), q / (fam.B * z)]
        elif family_id == "al-salam-carlitz1":
            drivers += [q / (fam.A * fam.delta * z), q / (fam.delta * z), 1 / z]
        elif family_id == "limit-asc1":
            drivers += [q / (fam.delta * z), 1 / z]
        elif family_id == "q-bessel-order":
            drivers += [1 / z, fam.a * q / z]
        elif family_id == "limit-wall":
            drivers += [q / (fam.A * z)]
        if all(verify._comfortable(d) for d in drivers) and all(
            verify._away_from_lattice(d, q) for d in drivers if abs(d) > 1
        ):
            return fam, z


@pytest.mark.parametrize("family_id", sorted(limits.FAMILIES))
def test_declared_comfort_drivers_draw_the_same_stream(family_id):
    for seed in range(4):
        for q_range in ((0.35, 0.65), (0.4, 0.6)):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(8):
                assert verify.draw_limit_family(rng, family_id, q_range) == _draw_by_family_id(
                    reference, family_id, q_range)
