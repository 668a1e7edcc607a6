import math

import numpy as np
import pytest

from qdhahn import cdqhahn, limits, recurrence
from qdhahn.errors import IndexOutOfWindow, Overflow, ZeroDenominator, ZeroDivisor
from qdhahn.family import solution_sequence
from qdhahn.recurrence import (
    Scaled,
    SolutionSequence,
    casoratian,
    cf_adaptive,
    cf_truncated,
    characteristic_roots,
    coeff_table,
    coeffs,
    forward_eval,
    minimality_ratio,
    relative_residual,
    residual,
)

from bits import PAST_THE_RANGE


@pytest.fixture
def cdqh():
    return cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)


# one member of every family (cdqh and the eleven limits), plus a cdqh
# member with complex parameters so complex coefficients are exercised
_PARAMS = {"A": 0.35, "B": 0.45, "C": 0.3, "delta": 0.7, "a": 1.6}
FAMILIES = [cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45),
            cdqhahn.CDQHParams(0.6, 0.3 + 0.2j, 0.3 - 0.2j, 0.35, 0.45)] + [
    cls(0.5, **{name: _PARAMS[name] for name in cls.param_names})
    for cls in limits.FAMILIES.values()]
FAMILY_IDS = [f"{f.family_id}-{i}" for i, f in enumerate(FAMILIES)]

Z_GRIDS = {
    "real": np.linspace(-3.0, 3.0, 41),
    "complex": np.linspace(-2.5, 2.5, 17) + 1j * np.linspace(-0.4, 1.2, 17),
}


def bits(values):
    """The exact bytes of a run of complex (or real) values: equality
    that also tells -0.0 from 0.0."""
    return np.array(values).tobytes()


def window(start, values):
    """A window of plain values (log scale 0) from ``start`` on."""
    values = [complex(v) for v in values]
    return SolutionSequence(start, tuple(values), (0.0,) * len(values))


def outcome(fn, *args):
    """A call's value (as bits) or its named error, for exact comparison."""
    try:
        value, depth = fn(*args)
    except ZeroDenominator as exc:
        return "error", str(exc)
    return bits([value]), depth


def reference_cf_adaptive(family, z, rel_tol=1e-12, start_depth=32, max_depth=1 << 16):
    """cf_adaptive as one fresh cf_truncated call per depth."""

    def attempt(d):
        for shift in (0, 1, 3, 7):
            try:
                return cf_truncated(family, z, d + shift)
            except ZeroDenominator:
                continue
        raise ZeroDenominator(f"persistent pole near depth {d}")

    depth = start_depth
    prev = attempt(depth)
    while depth <= max_depth:
        depth *= 2
        cur = attempt(depth)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur, depth
        prev = cur
    raise ZeroDenominator(f"continued fraction did not settle by depth {max_depth}")


class PoleAtLevel31:
    """a_31 = 3 puts a pole at the deepest level of the depth-32
    fraction at z = 3, so cf_adaptive must retry at depth 33."""

    def _coeff_rows(self, lo, n):
        return [3.0 if k == 31 else 0.0 for k in range(lo, n)], [0.25] * (n - lo)


class TestCoefficients:
    def test_flagship_zeroth(self, cdqh):
        a0, _ = coeffs(cdqh, 0)
        expected = (1 / 0.3 + 1 / 0.4 + 1 / 0.35 + 1 / 0.45) - (1 + 0.5) / 0.5
        assert a0 == pytest.approx(expected)

    def test_parameter_free_family_closed_form(self):
        fam = limits.FourthLimit(0.5)
        for n in (0, 1, 4):
            a_n, b_sq = coeffs(fam, n)
            assert a_n == pytest.approx(-(1 + 0.5) * 0.5 ** (2 * n - 1))
            assert b_sq == pytest.approx(0.5 ** (4 * n - 3))

    def test_bessel_order_family_at_one(self):
        fam = limits.QBesselOrder(0.5, -1.0)
        a_1, b_sq = coeffs(fam, 1)
        assert a_1 == pytest.approx(0.5)
        assert b_sq == pytest.approx(0.5)  # -a q with a = -1

    def test_birth_death_rates_reconstruct_drift(self, cdqh):
        for n in (0, 1, 3, 7):
            rates = cdqhahn.birth_death_rates(cdqh, n)
            rebuilt = (
                -(rates.lambda_n + rates.mu_n)
                + 1 / (cdqh.A * cdqh.B)
                + cdqh.q / (cdqh.C * cdqh.D)
            )
            assert abs(rebuilt - cdqh.a_coeff(n)) < 1e-14 * max(abs(rebuilt), 1.0)

    def test_birth_rate_vanishes_at_inverse_power(self):
        params = cdqhahn.CDQHParams(0.5, 0.5**-2, 0.4, 0.35, 0.45)
        assert cdqhahn.birth_death_rates(params, 2).lambda_n == 0

    def test_death_rate_vanishes_with_equal_parameters(self):
        q = 0.5
        params = cdqhahn.CDQHParams(q, q, q, q, q)
        rates = cdqhahn.birth_death_rates(params, 0)
        assert rates.mu_n == 0
        assert rates.lambda_n == pytest.approx((1 - q) ** 2 / q**2)


class TestCoefficientTable:
    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_entries_are_the_scalar_coefficients(self, family):
        a, b_sq = coeff_table(family, 40)
        assert bits(a) == bits([family.a_coeff(k) for k in range(40)])
        assert bits(b_sq) == bits([family.b_sq_coeff(k) for k in range(40)])

    def test_extends_in_place(self, cdqh):
        table = coeff_table(cdqh, 5)
        first = list(table[0])
        a, b_sq = coeff_table(cdqh, 9, table)
        assert a is table[0] and b_sq is table[1]
        assert len(a) == len(b_sq) == 9
        assert a[:5] == first
        assert len(coeff_table(cdqh, 3, table)[0]) == 9


class TestGridForwardEval:
    """An array of z runs one recurrence over the grid; every column must
    equal the scalar run at its point bit for bit, mantissas and log
    scales, across two renormalizations (n_max = 120)."""

    @pytest.mark.parametrize("grid", list(Z_GRIDS), ids=list(Z_GRIDS))
    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_columns_equal_scalar_runs(self, family, grid):
        z = Z_GRIDS[grid]
        seq = forward_eval(family, z, 0.0, 1.0, 120)
        assert (seq.start_index, seq.stop_index) == (-1, 120)
        assert seq.mantissas.shape == seq.log_scales.shape == (122, z.size)
        assert np.any(seq.log_scales[-1] != 0)  # the renormalizations ran
        for j, zj in enumerate(z.tolist()):
            scalar = forward_eval(family, zj, 0.0, 1.0, 120)
            assert bits(seq.mantissas[:, j]) == bits(scalar.mantissas)
            assert bits(seq.log_scales[:, j]) == bits(scalar.log_scales)
            assert bits(seq.values()[:, j]) == bits(scalar.values())

    def test_values_past_the_double_range_raise(self):
        fam = limits.QBesselOrder(0.5, -1.0)
        with pytest.raises(Overflow) as scalar:
            forward_eval(fam, 40.0, 0.0, 1.0, 600).values()
        with pytest.raises(Overflow) as grid:
            forward_eval(fam, np.array([2.0, 40.0]), 0.0, 1.0, 600).values()
        assert str(grid.value) == str(scalar.value)

    def test_seeds_and_zero_runs(self, cdqh):
        z = Z_GRIDS["complex"]
        for seeds in ((1.0, 0.3 - 0.2j), (0.0, 0.0)):
            seq = forward_eval(cdqh, z, *seeds, 110)
            for j, zj in enumerate(z.tolist()):
                scalar = forward_eval(cdqh, zj, *seeds, 110)
                assert bits(seq.mantissas[:, j]) == bits(scalar.mantissas)
                assert bits(seq.log_scales[:, j]) == bits(scalar.log_scales)
                assert bits(seq.values()[:, j]) == bits(scalar.values())

    def test_overflowing_point_raises_the_scalar_error(self):
        fam = limits.QBesselOrder(0.5, -1.0)
        with pytest.raises(Overflow) as scalar:
            forward_eval(fam, 1e160, 0.0, 1.0, 10)
        with pytest.raises(Overflow) as grid:
            forward_eval(fam, np.array([2.0, 3.0, 1e160, -2.5]), 0.0, 1.0, 10)
        assert str(grid.value) == str(scalar.value)


class TestForwardEval:
    def test_first_step_is_monic_linear(self, cdqh):
        z = 2.1
        seq = forward_eval(cdqh, z, 0.0, 1.0, 1)
        assert seq.value(1) == pytest.approx(z - cdqh.a_coeff(0))

    def test_zero_seed_stays_zero_forward(self, cdqh):
        seq = forward_eval(cdqh, 2.0, 0.0, 0.0, 5)
        assert all(v == 0 for v in seq.values())

    def test_window_bounds(self, cdqh):
        seq = forward_eval(cdqh, 2.0, 0.0, 1.0, 4)
        assert (seq.start_index, seq.stop_index) == (-1, 4)
        with pytest.raises(IndexOutOfWindow):
            seq.value(5)
        with pytest.raises(IndexOutOfWindow):
            seq.value(-2)

    def test_closed_form_seeded_forward_run_matches_closed_form(self, cdqh):
        # seeds (X_-1, X_0) from the closed form reproduce the rest of it
        point = cdqhahn.spectral_point(cdqh, x=2.0)
        closed = solution_sequence(cdqh, point, "lead-b", -1, 12)
        seeded = forward_eval(cdqh, point.z, closed.value(-1), closed.value(0), 12)
        for n in range(1, 13):
            assert abs(seeded.value(n) - closed.value(n)) < 1e-10 * abs(closed.value(n))

    def test_renormalization_keeps_big_runs_finite(self):
        fam = limits.QBesselOrder(0.5, -1.0)
        seq = forward_eval(fam, 40.0, 0.0, 1.0, 600)
        big = seq.scaled(600)
        assert math.isfinite(big.log_scale)
        assert big.log_scale > 700  # plain doubles would have overflowed


class TestResidualAndCasoratian:
    def test_forward_sequence_residual_vanishes(self, cdqh):
        seq = forward_eval(cdqh, 2.3, 0.0, 1.0, 20)
        for n in range(0, 19):
            assert relative_residual(cdqh, 2.3, seq, n) < 5e-15

    def test_closed_form_residual_small(self, cdqh):
        point = cdqhahn.spectral_point(cdqh, x=2.0)
        seq = solution_sequence(cdqh, point, "lead-a", 0, 12)
        for n in range(1, 12):
            assert relative_residual(cdqh, point.z, seq, n) < 1e-11

    def test_perturbed_sequence_fails(self, cdqh):
        z = 2.3
        seq = forward_eval(cdqh, z, 0.0, 1.0, 5)
        bumped = window(-1, [v + (1.0 if i == 3 else 0.0) for i, v in enumerate(seq.values())])
        assert abs(residual(cdqh, z, bumped, 2)) > 0.1

    def test_casoratian_antisymmetry_and_self(self, cdqh):
        z = 2.3
        x = forward_eval(cdqh, z, 0.0, 1.0, 6)
        y = forward_eval(cdqh, z, 1.0, 0.3, 6)
        assert casoratian(x, x, 2) == 0
        assert casoratian(x, y, 3) == pytest.approx(-casoratian(y, x, 3))

    def test_casoratian_one_step_law(self, cdqh):
        # W(n+1) = b_{n+1}^2 W(n) for any two solutions
        z = 2.3
        x = forward_eval(cdqh, z, 0.0, 1.0, 10)
        y = forward_eval(cdqh, z, 1.0, 0.1, 10)
        for n in range(0, 9):
            _, b_sq = coeffs(cdqh, n + 1)
            lhs = casoratian(x, y, n + 1)
            rhs = b_sq * casoratian(x, y, n)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_casoratian_of_independent_solutions_never_vanishes(self, cdqh):
        point = cdqhahn.spectral_point(cdqh, x=2.0)
        a = solution_sequence(cdqh, point, "minimal", 0, 10)
        b = solution_sequence(cdqh, point, "lead-a", 0, 10)
        for n in range(0, 10):
            assert abs(casoratian(a, b, n)) > 0


class TestContinuedFraction:
    def test_depth_one(self, cdqh):
        z = 2.3
        assert cf_truncated(cdqh, z, 1) == pytest.approx(z - cdqh.a_coeff(0))

    def test_self_convergence(self):
        fam = limits.FourthLimit(0.5)
        v59 = cf_truncated(fam, 3.0, 59)
        v60 = cf_truncated(fam, 3.0, 60)
        assert abs(v60 - v59) < 1e-12 * abs(v60)

    def test_geometric_depth_convergence_off_support(self, cdqh):
        z = cdqhahn.spectral_point(cdqh, x=2.0).z
        reference = cf_truncated(cdqh, z, 600)
        gaps = [abs(cf_truncated(cdqh, z, d) - reference) for d in (4, 6, 8, 10)]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later < earlier * 0.5  # at least geometric decay
        assert gaps[-1] < 1e-11 * abs(reference)

    def test_adaptive_agrees_with_deep_truncation(self, cdqh):
        z = cdqhahn.spectral_point(cdqh, x=2.0).z  # off the cut
        adaptive, depth = cf_adaptive(cdqh, z, rel_tol=1e-13)
        deep = cf_truncated(cdqh, z, 800)
        assert abs(adaptive - deep) < 1e-11 * abs(deep)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_adaptive_equals_per_depth_reference(self, family):
        for z in (40.0, 12.0 + 3.0j, -3.5 + 0.5j, 2.2 + 0.7j):
            for rel_tol in (1e-12, 1e-15):
                assert outcome(cf_adaptive, family, z, rel_tol) == \
                    outcome(reference_cf_adaptive, family, z, rel_tol)

    def test_adaptive_pole_retry_equals_reference(self):
        fam = PoleAtLevel31()
        with pytest.raises(ZeroDenominator):
            cf_truncated(fam, 3.0, 32)
        assert outcome(cf_adaptive, fam, 3.0) == outcome(reference_cf_adaptive, fam, 3.0)

    def test_table_argument_matches_fresh_table(self, cdqh):
        table = coeff_table(cdqh, 10)
        for depth in (3, 10, 40):
            assert bits([cf_truncated(cdqh, 2.3, depth, table)]) == \
                bits([cf_truncated(cdqh, 2.3, depth)])
        assert len(table[0]) == 40

    def test_matches_transform_of_minimal_solution(self, cdqh):
        point = cdqhahn.spectral_point(cdqh, x=2.0)
        closed = cdqhahn.cf_stieltjes(cdqh, point, "pincherle")
        assert abs(1 / cf_truncated(cdqh, point.z, 400) - closed) < 1e-10 * abs(closed)


class TestMinimalityRatio:
    def test_identical_sequences_give_ones(self, cdqh):
        run = forward_eval(cdqh, 2.3, 0.0, 1.0, 6)
        seq = window(0, run.values()[1:])  # drop the zero seed
        assert minimality_ratio(seq, seq) == pytest.approx([1.0] * 7)

    def test_zero_candidate_gives_zeros(self, cdqh):
        run = forward_eval(cdqh, 2.3, 0.0, 1.0, 6)
        seq = window(0, run.values()[1:])
        zero = window(0, [0.0] * 7)
        assert minimality_ratio(zero, seq) == pytest.approx([0.0] * 7)

    def test_zero_dominant_raises(self, cdqh):
        run = forward_eval(cdqh, 2.3, 0.0, 1.0, 6)
        seq = window(0, run.values()[1:])
        zero = window(0, [0.0] * 7)
        with pytest.raises(ZeroDivisor):
            minimality_ratio(seq, zero)

    def test_geometric_decay_rate_matches_branch_ratio(self, cdqh):
        point = cdqhahn.spectral_point(cdqh, x=2.0)
        minimal = solution_sequence(cdqh, point, "minimal", 0, 24)
        dominant = solution_sequence(cdqh, point, "lead-a", 0, 24)
        ratios = minimality_ratio(minimal, dominant)
        rho = abs(point.lam_minus / point.lam_plus)
        for n in range(16, 23):
            step = ratios[n + 1] / ratios[n]
            assert step == pytest.approx(rho, rel=0.05)


class TestCharacteristicRoots:
    def test_ordering_and_vieta(self):
        small, large = characteristic_roots(2.0 + 0.3j, 0.2 - 0.1j)
        assert abs(small) <= abs(large)
        assert small + large == pytest.approx(2.0 + 0.3j)
        assert small * large == pytest.approx(0.2 - 0.1j)


class TestScaled:
    def test_round_trip(self):
        s = Scaled(3.0 - 4.0j)
        assert s.value == 3.0 - 4.0j
        assert s.normalized().value == pytest.approx(3.0 - 4.0j)

    def test_log_magnitude_composition(self):
        s = Scaled(2.0 + 0.0j, 10.0) * Scaled(0.5 + 0.0j, -10.0)
        assert s.value == pytest.approx(1.0)

    def test_a_value_past_the_double_range_raises(self):
        # the log scale is in range, but the mantissa carries the value out
        # of it; a small mantissa at the same scale keeps its value
        for s in (Scaled(1e20 + 0.0j, 700.0), Scaled(1.0 + 0.0j, 800.0)):
            with pytest.raises(Overflow):
                s.value
        assert Scaled(1e-10 + 0.0j, 700.0).value == 1e-10 * math.exp(700.0)
        grid = SolutionSequence(0, np.array([[1.0, 1e20, 1.0]], dtype=complex),
                                np.array([[0.0, 700.0, 800.0]]))
        for column in range(3):
            column_run = SolutionSequence(0, grid.mantissas[:, column:column + 1],
                                          grid.log_scales[:, column:column + 1])
            if column:
                with pytest.raises(Overflow):
                    column_run.values()
            else:
                assert column_run.values()[0, 0] == 1.0


_MANTISSAS = [1.0, 1e20, -1e20j, 1e-10, 0.5 - 0.7j, 0.0, -0.0, complex(-0.0, 0.0),
              complex(0.0, -0.0), math.nan, complex(math.nan, 1.0), complex(1.0, math.nan),
              complex(1e308, 1e308), math.inf, complex(0.0, -math.inf)]
_LOG_SCALES = [0.0, -0.0, 1.0, -745.0, 700.0, 700.0000001, 709.0, 709.8, 800.0, -800.0,
               math.nan, math.inf, -math.inf]


class TestOneRoundingRule:
    """A grid window's ``values()`` gives every cell ``Scaled.value``'s
    bits, and raises Overflow exactly where some cell's ``Scaled.value``
    raises."""

    @staticmethod
    def check(seq):
        m = np.reshape(seq.mantissas, (len(seq), -1))
        s = np.reshape(seq.log_scales, (len(seq), -1))
        cells = np.reshape(recurrence._cell_values(seq.mantissas, seq.log_scales), m.shape)
        lost = False
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                try:
                    value = Scaled(complex(m[i, j]), float(s[i, j])).value
                except Overflow:
                    lost = True
                    assert not np.isfinite(cells[i, j]), (i, j)
                else:
                    assert bits([value]) == bits([cells[i, j]]), (i, j)
        if not isinstance(seq.mantissas, np.ndarray):
            return lost
        if lost:
            with pytest.raises(Overflow, match="scaled value exceeds the double range"):
                seq.values()
        else:
            assert bits(seq.values()) == bits(cells)
        return lost

    @pytest.mark.parametrize("grid", list(Z_GRIDS), ids=list(Z_GRIDS))
    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_forward_windows_in_range(self, family, grid):
        assert not self.check(forward_eval(family, Z_GRIDS[grid], 0.0, 1.0, 120))

    @pytest.mark.parametrize("family, z, n", PAST_THE_RANGE,
                             ids=[f.family_id for f, _, _ in PAST_THE_RANGE])
    def test_forward_windows_past_the_range(self, family, z, n):
        assert self.check(forward_eval(family, z, 0.0, 1.0, n))
        for zj in z.tolist():  # a scalar window through the same array routine
            self.check(forward_eval(family, zj, 0.0, 1.0, n))

    def test_crafted_windows(self):
        m = np.array([[v] * len(_LOG_SCALES) for v in _MANTISSAS], dtype=complex)
        s = np.array([_LOG_SCALES] * len(_MANTISSAS))
        assert self.check(SolutionSequence(0, m, s))
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                self.check(SolutionSequence(0, m[i:i + 1, j:j + 1], s[i:i + 1, j:j + 1]))
        # a mantissa of modulus at most 1 stays in range at log scale 700
        keep = [v for v in _MANTISSAS if abs(v) <= 1.0]
        assert not self.check(SolutionSequence(0, np.array([keep], dtype=complex).T,
                                               np.full((len(keep), 1), 700.0)))
