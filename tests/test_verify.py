import json
import random

import pytest

from qdhahn import limits, verify


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
        payload = json.loads(report.to_json())
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


class TestChecks:
    def test_contiguous_all_pass(self):
        for report in verify.check_contiguous_all(sample_count=30, seed=11):
            assert report.passed, report.to_text()
            assert report.max_rel_error < 1e-9

    def test_contiguous_deterministic_per_seed(self):
        a = verify.check_contiguous("a-up", sample_count=10, seed=5)
        b = verify.check_contiguous("a-up", sample_count=10, seed=5)
        assert a.max_rel_error == b.max_rel_error

    def test_contiguous_degenerate_equal_parameters_still_hold(self):
        # a draw with b = d collapses one shift factor; the relation
        # residual must still vanish
        res = verify._contiguous_residual(
            "a-up", 0.4, 0.35, 0.6, 0.35, 0.25, 0.5
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

    def test_pole_free_scan_flags_reduced_masses(self):
        # pushing one parameter far above the mass-free bound plants a
        # pole on the real axis, which the scan must detect
        from qdhahn import cdqhahn

        clean = cdqhahn.CDQHParams(0.5, 0.4, 0.4, 0.7, 0.4)
        assert verify.transform_pole_free(clean)


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
