import cmath
import itertools
import math
import random

import pytest

from qdhahn import cdqhahn, qseries, recurrence, verify
from qdhahn.cdqhahn import (
    CDQHParams,
    cf_stieltjes,
    dual_qhahn_reduction,
    explicit_poly,
    explicit_poly_ir,
    genfun_coeffs,
    genfun_coeffs_reduced,
    inverted_to_lead_c_constant,
    solution,
    spectral_point,
    three_term_coeffs,
    weight,
    weight_reduced,
)
from qdhahn.errors import BranchAmbiguous, Overflow, QdhError, ZeroDivisor
from qdhahn.family import solution_sequence

# the flagship's solution labels, in declaration order
SOLUTIONS = tuple(CDQHParams._solutions)


@pytest.fixture
def params():
    return CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)


@pytest.fixture
def point(params):
    return spectral_point(params, x=2.0)


class TestSpectralPoint:
    def test_vieta_relations(self, params):
        rng = random.Random(4)
        for _ in range(20):
            z = complex(rng.uniform(-30, 30), rng.uniform(0.5, 8))
            pt = spectral_point(params, z=z)
            prod = params.q / (params.A * params.B * params.C * params.D)
            assert abs(pt.lam_minus + pt.lam_plus - z) < 1e-12 * max(abs(z), 1.0)
            assert abs(pt.lam_minus * pt.lam_plus - prod) < 1e-13 * abs(prod)
            assert abs(pt.lam_minus) <= abs(pt.lam_plus)
            assert abs(pt.u - 2 * pt.alpha * pt.lam_plus) < 1e-12 * abs(pt.u)

    def test_real_point_off_cut(self, params):
        pt = spectral_point(params, x=2.0)
        assert pt.lam_minus.imag == 0 and pt.lam_plus.imag == 0
        assert abs(pt.lam_minus / pt.lam_plus) < 1

    def test_branch_point_is_ambiguous(self, params):
        prod = params.q / (params.A * params.B * params.C * params.D)
        z = 2 * cmath.sqrt(prod)  # double root
        with pytest.raises(BranchAmbiguous):
            spectral_point(params, z=z)

    def test_on_cut_requires_side(self, params):
        with pytest.raises(BranchAmbiguous):
            spectral_point(params, x=0.3)
        above = spectral_point(params, x=0.3, side=cdqhahn.ABOVE)
        below = spectral_point(params, x=0.3, side=cdqhahn.BELOW)
        assert above.lam_minus == below.lam_plus
        assert abs(abs(above.u) - 1) < 1e-14


class TestSolutions:
    def test_index_zero_is_bare_series(self, params, point):
        # empty products leave only the series factor
        q = params.q
        A, B, C, D = params.A, params.B, params.C, params.D
        lam = point.lam_minus
        bare = qseries.phi32(
            B * C * lam, B, C, B * C * D * lam, A * B * C * lam, q
        )
        assert solution(params, point, "minimal", 0) == pytest.approx(bare)

    @pytest.mark.parametrize("which", SOLUTIONS)
    def test_residuals_to_depth_30(self, params, point, which):
        seq = solution_sequence(params, point, which, 0, 31)
        worst = max(
            recurrence.relative_residual(params, point.z, seq, n)
            for n in range(1, 31)
        )
        assert worst < 1e-10

    def test_residuals_where_series_need_continuation(self):
        # large AD against small BC pushes the defining series argument
        # past the unit circle on the real line, so every value below
        # travels through the analytic continuation machinery
        params = CDQHParams(0.7, 0.85, 0.2, 0.2, 0.85)
        point = spectral_point(params, x=1.15)
        assert abs(params.A * params.D * point.lam_minus) > 1
        for which in ("minimal", "dominant", "lead-a", "lead-c"):
            seq = solution_sequence(params, point, which, 0, 21)
            worst = max(
                recurrence.relative_residual(params, point.z, seq, n)
                for n in range(1, 21)
            )
            assert worst < 1e-10
        closed = cf_stieltjes(params, point, "ratio")
        truncated = 1.0 / recurrence.cf_truncated(params, point.z, 600)
        assert abs(closed - truncated) < 1e-10 * abs(closed)
        assert all(weight(params, x) > 0 for x in (-0.9, -0.4, 0.1, 0.6, 0.95))

    def test_pole_scan_flags_mass_carrying_draw(self):
        from qdhahn import verify

        # the stress configuration has discrete masses outside the cut;
        # the scan must reject it for absolutely-continuous Gram tests
        params = CDQHParams(0.7, 0.85, 0.2, 0.2, 0.85)
        assert not verify.transform_pole_free(params, x_max=40.0)

    def test_residuals_at_complex_point(self, params):
        pt = spectral_point(params, z=complex(10.0, 6.0))
        for which in ("minimal", "lead-a", "inverted"):
            seq = solution_sequence(params, pt, which, 0, 15)
            worst = max(
                recurrence.relative_residual(params, pt.z, seq, n)
                for n in range(1, 15)
            )
            assert worst < 1e-10

    def test_inverted_is_constant_multiple_of_lead_c(self, params, point):
        ratios = [
            solution(params, point, "inverted", n) / solution(params, point, "lead-c", n)
            for n in range(0, 8)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-10 * abs(ratios[0])
        assert ratios[0] == pytest.approx(
            inverted_to_lead_c_constant(params, point), rel=1e-9
        )

    def test_minimality_against_lead_a(self, params, point):
        minimal = solution_sequence(params, point, "minimal", 0, 22)
        other = solution_sequence(params, point, "lead-a", 0, 22)
        ratios = recurrence.minimality_ratio(minimal, other)
        rho = abs(point.lam_minus / point.lam_plus)
        steps = [ratios[n + 1] / ratios[n] for n in range(15, 21)]
        for step in steps:
            assert step == pytest.approx(rho, rel=0.05)

    def test_swap_of_outer_parameters_rescales_minimal(self, params, point):
        # exchanging the first and third parameters leaves the minimal
        # ray invariant: the values change by an index-free factor
        swapped = params.permuted("CBAD")
        spoint = spectral_point(swapped, x=point.x.real)
        ratios = [
            solution(swapped, spoint, "minimal", n) / solution(params, point, "minimal", n)
            for n in range(0, 6)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-9 * abs(ratios[0])

    def test_large_index_growth_rate(self, params, point):
        # X_n / lam^n approaches a constant for both branches
        for which, lam in (("minimal", point.lam_minus), ("dominant", point.lam_plus)):
            seq = solution_sequence(params, point, which, 18, 26)
            scaled = [seq.value(n) / lam**n for n in range(18, 27)]
            assert abs(scaled[-1] / scaled[0] - 1) < 1e-4

    def test_three_term_transform_constant_in_n(self, params, point):
        c1, c4, c2 = three_term_coeffs(params, point)
        for n in range(0, 9):
            lhs = c1 * solution(params, point, "dominant", n) - c4 * solution(
                params, point, "lead-c", n
            )
            rhs = c2 * solution(params, point, "lead-a", n)
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


class TestStieltjesTransform:
    def test_all_forms_agree_off_cut(self, params, point):
        values = [
            cf_stieltjes(params, point, form)
            for form in ("ratio", "ratio-alt", "pincherle")
        ]
        truncated = 1.0 / recurrence.cf_truncated(params, point.z, 400)
        for value in values:
            assert abs(value - values[0]) < 1e-10 * abs(values[0])
        assert abs(values[0] - truncated) < 1e-9 * abs(truncated)

    def test_reduced_forms_at_c_eq_q(self):
        params = CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        point = spectral_point(params, x=2.0)
        general = cf_stieltjes(params, point, "ratio")
        single = cf_stieltjes(params, point, "reduced")
        product = cf_stieltjes(params, point, "reduced-product")
        assert abs(general - single) < 1e-10 * abs(general)
        assert abs(single - product) < 1e-10 * abs(single)

    def test_reduced_form_requires_c_eq_q(self, params, point):
        with pytest.raises(ValueError):
            cf_stieltjes(params, point, "reduced")

    def test_unknown_form_rejected(self, params, point):
        with pytest.raises(ValueError, match="unknown form"):
            cf_stieltjes(params, point, "bogus")

    def test_ten_off_cut_points(self, params):
        rng = random.Random(12)
        for _ in range(10):
            x = rng.uniform(1.2, 3.0) * rng.choice([1, -1])
            pt = spectral_point(params, x=x)
            closed = cf_stieltjes(pt and params, pt, "ratio")
            truncated = 1.0 / recurrence.cf_truncated(params, pt.z, 400)
            assert abs(closed - truncated) < 1e-8 * abs(closed)


class TestWeight:
    def test_reduction_at_c_eq_q(self):
        params = CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        for x in (-0.9, -0.35, 0.05, 0.6, 0.95):
            general = weight(params, x)
            reduced = weight_reduced(params, x)
            assert general == pytest.approx(reduced, rel=1e-9)

    def test_bracket_factors_are_conjugate(self, params):
        for x in (-0.7, 0.2, 0.85):
            point = spectral_point(params, x=x, side=cdqhahn.ABOVE)
            fm, fp = [params._ratio_denominator(lam) for lam in (point.lam_minus, point.lam_plus)]
            assert fm.conjugate() == pytest.approx(fp, rel=1e-12)

    def test_positive_on_grid(self, params):
        for k in range(1, 20):
            x = -1 + 2 * k / 20
            assert weight(params, x) > 0

    def test_edge_behavior_bounded(self, params):
        # the density vanishes at the edges; the scaled combination
        # w(x) / sqrt(1 - x^2) approaches a finite limit at each end
        for sign in (1.0, -1.0):
            values = [
                weight(params, sign * x) / math.sqrt(1 - x * x)
                for x in (0.99, 0.999, 0.9999)
            ]
            assert max(values) < 3 * min(values)
            assert min(values) > 0

    def test_outside_support_rejected(self, params):
        with pytest.raises(ValueError):
            weight(params, 1.2)


class TestExplicitPolynomials:
    def test_degree_zero_and_one(self, params, point):
        assert explicit_poly(params, point, 0) == pytest.approx(1.0)
        assert explicit_poly_ir(params, point, 0) == pytest.approx(1.0)
        expected = point.z - params.a_coeff(0)
        assert explicit_poly(params, point, 1) == pytest.approx(expected)
        assert explicit_poly_ir(params, point, 1) == pytest.approx(expected)

    def test_matches_forward_recurrence(self):
        # well-conditioned double-sum regime
        params = CDQHParams(0.7, 0.3, 0.4, 0.35, 0.45)
        point = spectral_point(params, x=2.5)
        seq = recurrence.forward_eval(params, point.z, 0.0, 1.0, 10)
        for n in range(0, 11):
            target = seq.value(n)
            assert abs(explicit_poly(params, point, n) - target) < 1e-9 * abs(target)
            assert abs(explicit_poly_ir(params, point, n) - target) < 1e-9 * abs(target)

    def test_full_parameter_symmetry(self):
        params = CDQHParams(0.7, 0.25, 0.4, 0.55, 0.7)
        x = 2.5
        base = explicit_poly(params, spectral_point(params, x=x), 8)
        for perm in itertools.permutations("ABCD"):
            permuted = params.permuted("".join(perm))
            value = explicit_poly(permuted, spectral_point(permuted, x=x), 8)
            assert abs(value - base) < 1e-9 * abs(base)

    def test_u_inversion_invariance(self, params, point):
        flipped = cdqhahn.SpectralPoint(
            point.z, point.alpha, point.x, 1 / point.u,
            point.lam_minus, point.lam_plus, point.side,
        )
        for n in (3, 6):
            a = explicit_poly(params, point, n)
            b = explicit_poly(params, flipped, n)
            assert abs(a - b) < 1e-9 * abs(a)
            c = explicit_poly_ir(params, point, n)
            d = explicit_poly_ir(params, flipped, n)
            assert abs(c - d) < 5e-13 * abs(c)


def inline_double_sum(params, point, n):
    """The double sum of P_n(z) as explicit_poly once wrote it inline."""
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    u = point.u
    ta = 2 * point.alpha
    pref = (
        (u / ta) ** n
        * qseries.qpoch_multi([A, D, ta * q / (A * D * u)], q, n)
        / qseries.qpoch(q, q, n)
    )
    outer_num = [1 / q**n, ta * u / B, ta * u / C]
    outer_den = [A * D * u / ta / q**n, A, D]
    inner_num = [A / q, D / q, A * D * u / ta]
    inner_den = [q, ta * u / B, ta * u / C]
    total = 0.0 + 0.0j
    outer_t = 1.0 + 0.0j
    for ell in range(n + 1):
        if ell > 0:
            num = 1.0 + 0.0j
            for p in outer_num:
                num *= 1 - p * q ** (ell - 1)
            den = 1.0 + 0.0j
            for p in outer_den:
                den *= 1 - p * q ** (ell - 1)
            if den == 0:
                raise ZeroDivisor("explicit polynomial denominator vanished")
            outer_t *= num / den * (A * D / (ta * u))
        inner_total = 0.0 + 0.0j
        inner_t = 1.0 + 0.0j
        for j in range(ell + 1):
            if j > 0:
                num = 1.0 + 0.0j
                for p in inner_num:
                    num *= 1 - p * q ** (j - 1)
                den = 1.0 + 0.0j
                for p in inner_den:
                    den *= 1 - p * q ** (j - 1)
                if den == 0:
                    raise ZeroDivisor("explicit polynomial denominator vanished")
                inner_t *= num / den * (ta * u * q / (A * D))
            inner_total += inner_t
        total += outer_t * inner_total
    return pref * total


class TestSharedDoubleSum:
    def test_bit_identical_to_the_inline_double_sum(self):
        rng = random.Random(20)
        for _ in range(12):
            params, point = verify.draw_cdqh_polyform(rng)
            for n in range(0, 13):
                assert explicit_poly(params, point, n) == inline_double_sum(params, point, n)

    def test_vanished_term_denominator_raises_zero_divisor(self):
        params = CDQHParams(0.5, 1.0, 0.4, 0.35, 0.45)
        with pytest.raises(ZeroDivisor):
            explicit_poly(params, spectral_point(params, x=2.0), 3)

    @pytest.mark.parametrize("fn, n", [(explicit_poly, 1200), (explicit_poly_ir, 1200),
                                       (explicit_poly_ir, 200)])
    def test_past_the_double_range_raises_a_named_error(self, params, fn, n):
        with pytest.raises(QdhError):
            fn(params, spectral_point(params, x=2.0), n)


class TestGeneratingFunction:
    def test_zeroth_coefficient_is_one(self, params, point):
        assert genfun_coeffs(params, point, 0)[0] == pytest.approx(1.0)

    def test_coefficients_match_scaled_polynomials(self, params, point):
        coeffs = genfun_coeffs(params, point, 8)
        seq = recurrence.forward_eval(params, point.z, 0.0, 1.0, 8)
        q = params.q
        for n in range(9):
            target = (
                (2 * point.alpha) ** n
                * seq.value(n)
                / (qseries.qpoch(params.A, q, n) * qseries.qpoch(params.D, q, n))
            )
            assert abs(coeffs[n] - target) < 1e-9 * max(abs(target), 1e-10)

    def test_product_form_at_reduced_parameter(self):
        params = CDQHParams(0.5, 0.3, 0.4, 0.45, 0.5)  # D = q
        point = spectral_point(params, x=2.0)
        a = genfun_coeffs(params, point, 8)
        b = genfun_coeffs_reduced(params, point, 8)
        for va, vb in zip(a, b):
            assert abs(va - vb) < 1e-10 * max(abs(va), 1e-12)

    def test_product_form_requires_reduced_parameter(self, params, point):
        with pytest.raises(ValueError):
            genfun_coeffs_reduced(params, point, 4)


class TestDualQHahnReduction:
    @pytest.fixture
    def reduced(self):
        params = CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        return params, spectral_point(params, x=2.0)

    def test_degree_zero(self, reduced):
        params, point = reduced
        assert dual_qhahn_reduction(params, point, 0) == pytest.approx(1.0)

    def test_ratio_to_monic_polynomial_constant(self, reduced):
        # in this normalization the terminating form is itself monic in
        # z, so the index-free ratio is exactly one (the classical
        # rescaling power is already absorbed)
        params, point = reduced
        ratios = [
            explicit_poly(params, point, n) / dual_qhahn_reduction(params, point, n)
            for n in range(0, 7)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-9 * abs(ratios[0])
        assert ratios[0] == pytest.approx(1.0, rel=1e-10)

    def test_terminating_series_term_count(self, reduced):
        # exactly n+1 terms: truncating the brute sum there changes nothing
        params, point = reduced
        from conftest import brute_phi

        q = params.q
        u, ta = point.u, 2 * point.alpha
        nums = (q**-4, params.A * params.B * u / ta, params.A * params.B / (ta * u))
        full = brute_phi(nums, (params.A, params.B), q, q, kmax=40)
        cut = brute_phi(nums, (params.A, params.B), q, q, kmax=5)
        assert full == cut

    def test_terminating_series_is_exact_polynomial(self, reduced):
        params, point = reduced
        # q^-n numerator: exactly n+1 terms; value is reproduced by the
        # brute-force finite sum
        from conftest import brute_phi

        q = params.q
        n = 5
        u = point.u
        ta = 2 * point.alpha
        series = brute_phi(
            (q**-n, params.A * params.B * u / ta, params.A * params.B / (ta * u)),
            (params.A, params.B),
            q,
            q,
            kmax=n + 1,
        )
        pref = (
            qseries.qpoch_multi([params.A, params.B], q, n)
            / (params.A * params.B) ** n
        )
        assert dual_qhahn_reduction(params, point, n) == pytest.approx(
            pref * series, rel=1e-11
        )


def test_label_and_form_tables_keep_their_order_default_first():
    # the CLI takes the first label and form as its defaults
    assert SOLUTIONS == ("minimal", "dominant", "lead-a", "lead-b", "lead-c", "lead-d", "inverted")
    assert tuple(CDQHParams._cf_forms) == ("ratio", "ratio-alt", "pincherle", "reduced", "reduced-product")


class TestPointArguments:
    @pytest.mark.parametrize("evaluate", [
        lambda params, pt: solution(params, pt, "minimal", 5),
        lambda params, pt: solution(params, pt, "inverted", 3),
        lambda params, pt: solution_sequence(params, pt, "minimal", 0, 4).value(4),
        lambda params, pt: cf_stieltjes(params, pt),
        lambda params, pt: cf_stieltjes(params, pt, "pincherle"),
        lambda params, pt: explicit_poly(params, pt, 4),
        lambda params, pt: explicit_poly_ir(params, pt, 4),
    ])
    def test_a_number_is_the_spectral_point_at_z(self, params, evaluate):
        for z in (25.0, 3.0 - 2.0j):
            assert evaluate(params, z) == evaluate(params, params.point_at(z))

    def test_a_number_on_the_cut(self, params):
        # polynomials are single valued there and take the side above;
        # solutions need a side
        z = params.z_at(0.4)
        above = params.point_at(z, cdqhahn.ABOVE)
        assert explicit_poly(params, z, 3) == explicit_poly(params, above, 3)
        assert explicit_poly_ir(params, z, 3) == explicit_poly_ir(params, above, 3)
        with pytest.raises(BranchAmbiguous):
            solution(params, z, "minimal", 3)
        with pytest.raises(BranchAmbiguous):
            cf_stieltjes(params, z)

    def test_z_at_holds_on_the_cut_for_either_side(self, params):
        z = params.z_at(0.4)
        assert z == 0.4 / params.alpha
        for side in (cdqhahn.ABOVE, cdqhahn.BELOW):
            assert spectral_point(params, x=0.4, side=side).z == z
        assert params.z_at(2.0) == spectral_point(params, x=2.0).z

    def test_closed_forms_where_a_prefactor_vanishes_are_finite_or_named_errors(self):
        # at z = 24, lambda_- = 4 and 1 - BCD lambda_-/q is exactly 0
        params = CDQHParams(0.5, 0.0625, 0.25, 0.5, 0.5)
        calls = [lambda f=f: cf_stieltjes(params, 24.0, f) for f in CDQHParams._cf_forms]
        calls += [lambda w=w: solution(params, 24.0, w, n) for w in SOLUTIONS for n in (0, 2)]
        for call in calls:
            try:
                value = call()
            except (QdhError, ValueError):
                continue
            assert cmath.isfinite(value)

    def test_power_past_the_double_range_is_a_named_error(self, params, point):
        # q**(1 - n) overflows at n = 4000
        with pytest.raises(Overflow):
            solution(params, point, "inverted", 4000)
