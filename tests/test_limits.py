import cmath
import dataclasses
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from qdhahn import cdqhahn, limits, recurrence, verify
from qdhahn.cdqhahn import CDQHParams
from qdhahn.errors import (
    BranchAmbiguous,
    DivergentSeries,
    FormalOnly,
    Overflow,
    PoleHit,
    QdhError,
    ScanTooCoarse,
    UnknownFamily,
    UnsupportedFamily,
    ZeroDivisor,
)
from qdhahn.family import poly_alt, solution_sequence
from qdhahn.limits import (
    FAMILIES,
    AlSalamCarlitz1,
    AlSalamChihara,
    BigQLaguerre,
    ContBigQHermite,
    ContQHermite,
    FourthLimit,
    LimitASC1,
    LimitQHermite,
    LimitWall,
    QBesselOrder,
    Wall,
    family_from_id,
    find_zeros,
    fourth_limit_series,
    fourth_limit_zero_window,
    interlaces,
    limit_cf,
    limit_cf_parts,
    limit_convergence,
    limit_poly,
    limit_solution,
    limit_weight,
)
from qdhahn.qseries import DEFAULT_POLICY

from paper_identities import (
    ResonantDelta,
    asc1_identity_checks,
    asc1_partial_fractions,
    cont_big_q_hermite_weight_reduced,
    qbessel_connection,
    qbessel_series_forms,
)

GENERIC = {
    "big-q-laguerre": (BigQLaguerre(0.5, 0.3, 0.4, 0.35), 2.31),
    "wall": (Wall(0.5, 0.3, 0.4), 2.31),
    "limit-wall": (LimitWall(0.5, 0.3), 2.31),
    "fourth-limit": (FourthLimit(0.5), 2.31),
    "al-salam-chihara": (AlSalamChihara(0.5, 0.3, 0.4, 0.6), 8.9),
    "al-salam-carlitz1": (AlSalamCarlitz1(0.5, 0.4, -0.7), 2.31),
    "limit-asc1": (LimitASC1(0.5, 0.6), 2.31),
    "cont-q-hermite": (ContQHermite(0.5, 0.3, 0.6), 5.7),
    "limit-q-hermite": (LimitQHermite(0.5, -0.8), 2.31),
    "cont-big-q-hermite": (ContBigQHermite(0.5, 0.3, 0.5), 3.1),
    "q-bessel-order": (QBesselOrder(0.5, -1.0), 2.31),
}


class TestRegistry:
    def test_all_eleven_families_present(self):
        assert len(FAMILIES) == 11

    def test_construction_by_id(self):
        fam = family_from_id("wall", 0.5, A=0.3, B=0.4)
        assert isinstance(fam, Wall)

    def test_unknown_id(self):
        with pytest.raises(UnknownFamily):
            family_from_id("nope", 0.5)

    def test_missing_parameter_message(self):
        with pytest.raises(TypeError, match="missing: B"):
            family_from_id("wall", 0.5, A=0.3)

    @pytest.mark.parametrize("build", [lambda: CDQHParams(0.5, 1e-200, 1e-200, 0.3, 0.4),
                                       lambda: Wall(0.5, 1e-200, 1e-200),
                                       lambda: BigQLaguerre(0.5, 1e200, 1e200, 0.0)])
    def test_parameters_and_their_product_must_be_nonzero(self, build):
        # the coefficients divide by the product, which can underflow (or,
        # past an overflow, come out nan beside a zero parameter)
        with pytest.raises(ValueError, match="must be nonzero"):
            build()

    def test_the_flagship_by_id_and_parameters_it_does_not_take(self):
        # None counts as not given; parameters the family does not take are
        # not passed on (``qdh zeros`` gives every cf-part family A = q)
        assert family_from_id("cdqh", 0.5, A=0.3, B=0.4, C=0.35, D=0.45, delta=None) == \
            CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
        assert family_from_id("limit-asc1", 0.5, A=0.5, delta=0.6) == LimitASC1(0.5, 0.6)
        with pytest.raises(TypeError, match="missing: C, D"):
            family_from_id("cdqh", 0.5, A=0.3, B=0.4, C=None)


# How each scan family's closed-form 1/CF combines its series pair.
SCAN_COMBINATIONS = {
    "al-salam-carlitz1": lambda f, z, num, den: num / (z * (1 - 1 / (f.delta * z)) * den),
    "limit-asc1": lambda f, z, num, den: num / (z * (1 - 1 / (f.delta * z)) * den),
    "limit-q-hermite": lambda f, z, num, den: num / (z * den),
    "q-bessel-order": lambda f, z, num, den: num / ((z - 1) * den),
}

# The product of the growth rates of the three cut families, from their
# b_n^2 limits.
GROWTH_PRODUCTS = {
    "al-salam-chihara": lambda f: f.q / (f.A * f.B * f.delta),
    "cont-q-hermite": lambda f: f.q / (f.A * f.delta),
    "cont-big-q-hermite": lambda f: f.a * f.q / f.A,
}


class TestClosedFormRegistry:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_scan_pair_is_the_pair_the_fraction_divides(self, family_id):
        fam, z = GENERIC[family_id]
        if family_id not in SCAN_COMBINATIONS:
            with pytest.raises(UnsupportedFamily):
                limit_cf_parts(fam, z)
            return
        for point in (z, -z, 0.37, 1.3 + 0.2j):
            num, den = limit_cf_parts(fam, point)
            combined = SCAN_COMBINATIONS[family_id](fam, complex(point), num, den)
            assert limit_cf(fam, point) == combined

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_spectral_point_holds_the_growth_rates_of_the_cut(self, family_id):
        fam, z = GENERIC[family_id]
        if family_id not in GROWTH_PRODUCTS:
            assert not hasattr(fam, "gamma") and fam.z_at is None
            assert fam.point_at(z) == z
            return
        product = GROWTH_PRODUCTS[family_id](fam)
        assert fam.gamma == 2 * cmath.sqrt(product)
        pt = fam.point_at(z)
        assert abs(pt.lam_minus * pt.lam_plus - product) <= 1e-14 * abs(product)
        assert pt.u == 2 * pt.alpha * pt.lam_plus
        assert pt.alpha == fam.alpha == 1 / fam.gamma

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_unknown_form_rejected(self, family_id):
        fam, z = GENERIC[family_id]
        forms = tuple(fam._cf_forms)
        assert forms[0] == "default"
        extra = {"limit-wall": ("series-ratio", "confluent"),
                 "fourth-limit": ("series-ratio", "power-sums")}
        assert forms[1:] == extra.get(family_id, ())
        with pytest.raises(ValueError, match="unknown form"):
            limit_cf(fam, z, "bogus")

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_polynomial_past_the_double_range_raises_a_named_error(self, family_id):
        fam, z = GENERIC[family_id]
        with pytest.raises(QdhError):
            limit_poly(fam, z, 1200)
        if family_id == "limit-asc1":
            with pytest.raises(QdhError):
                poly_alt(fam, z, 1200)

    @pytest.mark.parametrize("family_id", sorted(f for f, c in FAMILIES.items()
                                                 if "A" in c.param_names))
    def test_vanished_term_denominator_at_a_equal_one_raises_zero_divisor(self, family_id):
        fam, z = GENERIC[family_id]
        with pytest.raises(ZeroDivisor):
            limit_poly(dataclasses.replace(fam, A=1.0), z, 3)

    @pytest.mark.parametrize("poly, family_id", [(limit_poly, "limit-asc1"),
                                                 (limit_poly, "q-bessel-order"),
                                                 (poly_alt, "limit-asc1")])
    def test_vanished_term_denominator_at_z_equal_one_raises_zero_divisor(self, poly, family_id):
        with pytest.raises(ZeroDivisor):
            poly(GENERIC[family_id][0], 1.0, 3)

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_degree_zero_is_one_at_z_equal_zero(self, family_id):
        fam = GENERIC[family_id][0]
        assert limit_poly(fam, 0, 0) == 1
        if family_id == "limit-asc1":
            assert poly_alt(fam, 0, 0) == 1

    def test_limit_closed_forms_of_the_flagship_are_its_own(self):
        # one closed-form layer: the limit_* names evaluate the flagship too
        params = CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
        for z in (25.0, 3.0 - 2.0j, params.point_at(-25.0)):
            for n in (0, 3, 7):
                assert limit_poly(params, z, n) == cdqhahn.explicit_poly(params, z, n)
                for which in CDQHParams._solutions:
                    assert (limit_solution(params, z, which, n)
                            == cdqhahn.solution(params, z, which, n))
            for form in tuple(CDQHParams._cf_forms)[:3]:
                assert limit_cf(params, z, form) == cdqhahn.cf_stieltjes(params, z, form)
            # no form: the family's first, as for every family
            assert limit_cf(params, z) == cdqhahn.cf_stieltjes(params, z, "ratio")
        reduced = CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        for form in tuple(CDQHParams._cf_forms)[3:]:
            assert limit_cf(reduced, 25.0, form) == cdqhahn.cf_stieltjes(reduced, 25.0, form)
        assert limit_weight(reduced, 0.3) == cdqhahn.weight(reduced, 0.3)


CUT_FAMILIES = ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")


class TestZeroPoint:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_every_closed_form_at_zero_is_finite_or_a_named_error(self, family_id):
        fam, _ = GENERIC[family_id]
        calls = [lambda: limit_poly(fam, 0, 3), lambda: limit_cf_parts(fam, 0)]
        calls += [lambda w=w: limit_solution(fam, 0, w, 3) for w in fam._solutions]
        calls += [lambda f=f: limit_cf(fam, 0, f) for f in fam._cf_forms]
        for call in calls:
            try:
                values = np.atleast_1d(call())
            except QdhError:
                continue
            assert all(cmath.isfinite(v) for v in values), family_id

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_cut_families_need_a_side_at_zero_and_the_others_raise_zero_divisor(self, family_id):
        fam, _ = GENERIC[family_id]
        if family_id in CUT_FAMILIES:
            # z = 0 is the middle of the cut, x = 0
            for call in (lambda z: limit_cf(fam, z), lambda z: limit_solution(fam, z, 1, 3)):
                with pytest.raises(BranchAmbiguous):
                    call(0)
                assert cmath.isfinite(call(fam.point_at(0, "above")))
            return
        for call in (lambda: limit_cf(fam, 0), lambda: limit_solution(fam, 0, 1, 3)):
            with pytest.raises(ZeroDivisor):
                call()


class TestSolutions:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_every_nonformal_solution_satisfies_recurrence(self, family_id):
        fam, z = GENERIC[family_id]
        checked = 0
        for which in fam._solutions:
            try:
                seq = solution_sequence(fam, z, which, 0, 26)
            except (FormalOnly, DivergentSeries):
                continue
            worst = max(
                recurrence.relative_residual(fam, z, seq, n) for n in range(1, 26)
            )
            assert worst < 1e-10, (family_id, which, worst)
            checked += 1
        assert checked >= 1

    def test_formal_series_rejected(self):
        fam, z = GENERIC["fourth-limit"]
        with pytest.raises(FormalOnly):
            limit_solution(fam, z, 2, 3)
        fam, z = GENERIC["wall"]
        with pytest.raises(FormalOnly):
            limit_solution(fam, z, 4, 3)

    def test_formal_series_terminates_at_reduced_parameter(self):
        # A power of q in A (in a / z for q-bessel-order) turns the divergent
        # tail series into a terminating sum; z = 5 lies off cont-q-hermite's
        # cut (gamma = 3.65 there)
        q = 0.5
        cases = [(Wall(q, q, 0.4), 2.31, 4, 8), (LimitWall(q, q * q), 2.7, 3, 12),
                 (ContQHermite(q, q * q, 0.6), 5.0, 2, 12),
                 (ContBigQHermite(q, q * q, -0.7), 3.3, 3, 12),
                 # lambda_+ / a = 2 = 1/q, with A no power of q
                 (ContBigQHermite(q, 0.3, -0.7), -0.5666666666666664, 3, 12),
                 (QBesselOrder(q, 2.7 * q**3), 2.7, 3, 12)]
        for fam, z, which, stop in cases:
            value = limit_solution(fam, z, which, 3)
            seq = solution_sequence(fam, z, which, 0, stop)
            worst = max(recurrence.relative_residual(fam, z, seq, n) for n in range(1, stop))
            assert worst < 1e-11, (fam.family_id, worst)
            assert value != 0

    @pytest.mark.parametrize("n,x", [(1, 0.37), (4, 0.37), (6, 0.8)])
    def test_wall_reduction_to_classical_polynomials(self, n, x):
        # B = q: the rescaled confluent solution equals the standard
        # terminating series in qx, up to the (qx)_inf factor the
        # product-form conversion carries
        from conftest import brute_phi
        from qdhahn.qseries import qpoch

        q, a = 0.5, 0.6
        fam = Wall(q, a * q, q)
        w2 = limit_solution(fam, x / (a * q), 2, n)
        pref = (-1) ** n * q ** (-(n * (n - 1)) // 2) * (a * q) ** n / qpoch(a * q, q, n)
        classical = brute_phi((q**-n, 0.0), (a * q,), q, q * x, kmax=n + 1)
        assert pref * w2 == pytest.approx(qpoch(q * x, q) * classical, rel=1e-10)

    def test_dominant_branches_exist_for_cut_families(self):
        for family_id in ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite"):
            fam, z = GENERIC[family_id]
            assert -1 in fam._solutions
            seq = solution_sequence(fam, z, -1, 0, 10)
            worst = max(
                recurrence.relative_residual(fam, z, seq, n) for n in range(1, 10)
            )
            assert worst < 1e-11


class TestPolynomials:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_degree_zero_is_one(self, family_id):
        fam, z = GENERIC[family_id]
        assert limit_poly(fam, z, 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_degree_one_forced_by_recurrence(self, family_id):
        fam, z = GENERIC[family_id]
        expected = z - fam.a_coeff(0)
        assert limit_poly(fam, z, 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_matches_forward_recurrence_to_degree_8(self, family_id):
        fam, z = GENERIC[family_id]
        seq = recurrence.forward_eval(fam, z, 0.0, 1.0, 8)
        for n in range(2, 9):
            target = seq.value(n)
            value = limit_poly(fam, z, n)
            assert abs(value - target) <= 1e-9 * max(abs(target), 1e-12), (
                family_id,
                n,
            )

    def test_fourth_limit_past_the_double_range_raises(self):
        # past n ~ 25 at q = .5 the double sum overflows while q**(n*n)
        # underflows; the product was nan, now a named error
        fam = FourthLimit(0.5)
        seq = recurrence.forward_eval(fam, 2.5, 0.0, 1.0, 40)
        for n in range(0, 41):
            try:
                value = limit_poly(fam, 2.5, n)
            except Overflow:
                assert n >= 26
                continue
            assert abs(value - seq.value(n)) <= 1e-12 * abs(seq.value(n)), n
        with pytest.raises(Overflow):
            limit_poly(fam, 2.5, 30)

    def test_confluent_pair_simple_and_limit_forms_agree(self):
        fam, z = GENERIC["limit-asc1"]
        for n in range(0, 9):
            a = limit_poly(fam, z, n)
            b = poly_alt(fam, z, n)
            assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12)


class TestContinuedFractions:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_closed_form_matches_truncated_fraction(self, family_id):
        fam, z = GENERIC[family_id]
        closed = limit_cf(fam, z)
        truncated, _ = recurrence.cf_adaptive(fam, z, rel_tol=1e-13)
        assert abs(closed - 1.0 / truncated) < 1e-8 * abs(closed)

    def test_two_displayed_forms_agree_for_single_parameter_family(self):
        fam, z = GENERIC["limit-wall"]
        a = limit_cf(fam, z, "series-ratio")
        b = limit_cf(fam, z, "confluent")
        assert abs(a - b) < 1e-10 * abs(a)

    def test_parameter_free_power_sum_form(self):
        fam, z = GENERIC["fourth-limit"]
        a = limit_cf(fam, z, "default")
        b = limit_cf(fam, z, "power-sums")
        assert abs(a - b) < 1e-12 * abs(a)


class TestWeights:
    def test_supported_families_only(self):
        fam, _ = GENERIC["wall"]
        with pytest.raises(Exception):
            limit_weight(fam, 0.3)

    def test_positive_on_grid(self):
        fam, _ = GENERIC["al-salam-chihara"]
        for x in np.linspace(-0.95, 0.95, 15):
            assert limit_weight(fam, float(x)) > 0

    def test_hermite_like_denominators_collapse_at_reduced_parameter(self):
        fam = ContQHermite(0.5, 0.5, 0.7)  # A = q
        _, denominator, bracket = fam._weight_parts(0.4, DEFAULT_POLICY)
        assert denominator == pytest.approx(1.0)
        assert bracket == pytest.approx(1.0)

    def test_big_hermite_weight_reduces_at_a_eq_q(self):
        fam = ContBigQHermite(0.5, 0.5, 1.6)
        for x in (-0.8, -0.1, 0.55):
            general = limit_weight(fam, x)
            reduced = cont_big_q_hermite_weight_reduced(fam, x)
            assert general == pytest.approx(reduced, rel=1e-10)

    @pytest.mark.parametrize(
        "fam,scale",
        [
            (ContQHermite(0.5, 0.5, 0.7), None),
            (ContBigQHermite(0.5, 0.5, 1.6), None),
            (ContQHermite(0.5, 0.35, 0.7), None),   # associated draw
            (AlSalamChihara(0.5, 0.35, 0.45, 0.7), None),
        ],
    )
    def test_gram_diagonality_under_quadrature(self, fam, scale):
        g = verify.gram_matrix(
            lambda x: limit_weight(fam, x), fam, 1.0 / abs(fam.gamma), 6, 2000, "cosine"
        )
        diag = np.sqrt(np.abs(np.diag(g)))
        worst = max(
            abs(g[m, n]) / (diag[m] * diag[n])
            for m in range(7)
            for n in range(m + 1, 7)
        )
        assert worst < 1e-6


class TestPartialFractions:
    def test_equality_with_closed_form(self):
        fam = AlSalamCarlitz1(0.5, 0.5, -0.7)
        for z in (2.5, -1.3, 3.7, 1.9 + 0.8j):
            closed = limit_cf(fam, z)
            expanded = asc1_partial_fractions(fam, z)
            assert abs(closed - expanded) < 1e-10 * abs(closed)

    def test_requires_reduced_parameter(self):
        fam = AlSalamCarlitz1(0.5, 0.4, -0.7)
        with pytest.raises(ValueError):
            asc1_partial_fractions(fam, 2.5)

    def test_resonant_delta_rejected(self):
        fam = AlSalamCarlitz1(0.5, 0.5, 0.5**3)  # 1/delta = q^-3
        with pytest.raises(ResonantDelta):
            asc1_partial_fractions(fam, 2.5)

    def test_pole_proximity_rejected(self):
        fam = AlSalamCarlitz1(0.5, 0.5, -0.7)
        with pytest.raises(PoleHit):
            asc1_partial_fractions(fam, 0.25)  # z = q^2

    def test_residue_signs_in_positive_regime(self):
        # the positive definite regime has delta < 0 (the off-diagonal
        # coefficients then stay positive); both residue families are
        # positive there
        q, d = 0.5, -0.7
        from qdhahn.qseries import qpoch

        first = [
            q**n / (qpoch(q, q, n) * qpoch(d * q, q, n) * qpoch(1 / d, q))
            for n in range(6)
        ]
        second = [
            q**n / (qpoch(q, q, n) * qpoch(q / d, q, n) * qpoch(d, q))
            for n in range(6)
        ]
        assert all(m.real > 0 for m in first)
        assert all(m.real > 0 for m in second)

    def test_dominant_term_near_first_pole(self):
        fam = AlSalamCarlitz1(0.5, 0.5, -0.7)
        from qdhahn.qseries import qpoch

        q, d = 0.5, -0.7
        z = 1 + 1e-5
        total = asc1_partial_fractions(fam, z)
        leading = 1.0 / ((z - 1) * qpoch(1 / d, q))
        assert abs(total - leading) < 0.01 * abs(leading)


class TestIdentities:
    def test_degree_zero_trivial(self):
        fam = AlSalamCarlitz1(0.5, 0.5, 0.3)
        for label, lhs, rhs in asc1_identity_checks(fam, 1.7, 0):
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_seeded_draws(self):
        rng = random.Random(17)
        for _ in range(100):
            q = rng.uniform(0.3, 0.7)
            d = rng.choice([1, -1]) * rng.uniform(0.25, 0.9)
            z = rng.uniform(1.4, 3.0)
            fam = AlSalamCarlitz1(q, q, d)
            n = rng.randrange(0, 7)
            for label, lhs, rhs in asc1_identity_checks(fam, z, n):
                scale = max(abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-10 * scale, (label, q, d, z, n)

    def test_lhs_equals_monic_polynomial(self):
        fam = AlSalamCarlitz1(0.5, 0.5, 0.3)
        n, z = 5, 1.7
        triples = asc1_identity_checks(fam, z, n)
        poly = limit_poly(fam, z, n)
        assert triples[0][1] == pytest.approx(poly, rel=1e-9)


class TestQBessel:
    def test_ratio_constant_in_n(self):
        fam = QBesselOrder(0.5, -1.0)
        first, second = qbessel_connection(fam, 2.3, 10)
        for ratios in (first, second):
            worst = max(abs(r - ratios[0]) / abs(ratios[0]) for r in ratios)
            assert worst < 1e-8

    def test_integer_order_point(self):
        # z = 1/q makes the order integer; the polynomial-like solution
        # has a genuine pole lattice there, so only the minimal-solution
        # connection can be evaluated
        fam = QBesselOrder(0.5, -1.0)
        _, second = qbessel_connection(fam, 2.0, 6, kinds=(2,))
        worst = max(abs(r - second[0]) / abs(second[0]) for r in second)
        assert worst < 1e-8

    def test_confluent_and_kernel_forms_agree(self):
        fam = QBesselOrder(0.5, -1.0)
        for n in (0, 2, 5):
            direct, alt = qbessel_series_forms(fam, 2.3, n)
            assert direct == pytest.approx(alt, rel=1e-11)

    def test_degree_zero_prefactors(self):
        fam = QBesselOrder(0.5, -1.0)
        direct, alt = qbessel_series_forms(fam, 2.3, 0)
        assert direct == pytest.approx(alt, rel=1e-12)


def scalar_only(f):
    """f behind a wrapper that takes no array (float() of one fails), so
    find_zeros evaluates its scan grid point by point."""
    return lambda x: f(float(x))


class TestZeros:
    def test_no_sign_change_gives_empty(self):
        zl = find_zeros(lambda x: 1.0 + x * x, 0.5, 4.0, log_spaced=False)
        assert len(zl) == 0

    def test_positive_axis_scan_is_empty(self):
        fam = FourthLimit(0.5)
        f = fourth_limit_series(fam, 0)
        zl = find_zeros(f, 1e-6, 1e4, max_zeros=5)
        assert len(zl) == 0

    def test_zeros_negative_and_simple(self):
        fam = FourthLimit(0.5)
        f = fourth_limit_series(fam, -1)
        lo, hi = fourth_limit_zero_window(0.5, -1, 8)
        zl = find_zeros(f, lo, hi, max_zeros=8, expect=8)
        assert len(zl) == 8
        assert all(z < 0 for z in zl.zeros)
        for z, (blo, bhi) in zip(zl.zeros, zl.brackets):
            assert f(min(blo, bhi)) * f(max(blo, bhi)) < 0  # genuine sign change

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_interlacing_ladder(self, q):
        fam = FourthLimit(q)
        lists = {}
        for n in (-1, 0, 1, 2, 3):
            f = fourth_limit_series(fam, n)
            lo, hi = fourth_limit_zero_window(q, n, 8)
            lists[n] = find_zeros(f, lo, hi, max_zeros=8, expect=8)
        for n in (-1, 0, 1, 2):
            assert interlaces(lists[n], lists[n + 1])

    def test_known_function_zeros(self):
        zl = find_zeros(math.sin, 1.0, 10.0, log_spaced=False, samples=500)
        assert zl.zeros == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)

    def test_pole_rejection(self):
        zl = find_zeros(lambda x: 1.0 / (x - 2.0), 1.0, 3.0, log_spaced=False)
        assert len(zl) == 0
        # a jump between +inf and -inf is no zero either
        zl = find_zeros(lambda x: math.inf if x < 2 else -math.inf, 1.0, 3.0, log_spaced=False)
        assert len(zl) == 0

    def test_pole_on_a_grid_node(self):
        # numpy divides by zero at x = 2 without raising; the scan takes
        # the scalar value there, nan, as the pointwise scan does
        f = lambda x: 1.0 / (x - 2.0)
        zl = find_zeros(f, 1.0, 3.0, log_spaced=False, samples=5)
        assert len(zl) == 0
        assert zl == find_zeros(scalar_only(f), 1.0, 3.0, log_spaced=False, samples=5)

    def test_steep_zero_is_not_taken_for_a_pole(self):
        # the eighth zero of order -1 at this q sits at -0.014522 between
        # grid values -2.04e5 and 11.1; |f| at the bisected root is
        # 1.1e-5, just above 1e-6 times the smaller of the two
        q = 0.7193273853311071
        fam = FourthLimit(q)
        lists = []
        for n in (-1, 0):
            lo, hi = fourth_limit_zero_window(q, n, 8)
            lists.append(find_zeros(fourth_limit_series(fam, n), lo, hi, max_zeros=8, expect=8))
        assert lists[0].zeros[-1] == pytest.approx(-0.014521766541227978, rel=1e-9)
        assert interlaces(*lists)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_grid_scan_equals_pointwise_scan(self, q):
        fam = FourthLimit(q)
        for n in (-1, 2):
            f = fourth_limit_series(fam, n)
            lo, hi = fourth_limit_zero_window(q, n, 8)
            assert find_zeros(f, lo, hi, max_zeros=8, expect=8) == find_zeros(
                scalar_only(f), lo, hi, max_zeros=8, expect=8)

    @pytest.mark.parametrize("fam", [
        AlSalamCarlitz1(0.5, 0.4, -0.8),
        LimitASC1(0.5, 0.8),
        QBesselOrder(0.5, -0.8),
    ], ids=lambda f: f.family_id)
    def test_cf_parts_grid_scan_equals_pointwise_scan(self, fam):
        for part in (0, 1):
            f = lambda x: limit_cf_parts(fam, x)[part].real
            zl = find_zeros(f, 0.02, 1.8, max_zeros=6, samples=1000)
            assert len(zl) >= 3
            assert zl == find_zeros(scalar_only(f), 0.02, 1.8, max_zeros=6, samples=1000)

    def test_one_array_call_per_scan(self):
        f = fourth_limit_series(FourthLimit(0.5), 0)
        shapes = []

        def recorded(x):
            shapes.append(np.shape(x))
            return f(x)

        lo, hi = fourth_limit_zero_window(0.5, 0, 8)
        zl = find_zeros(recorded, lo, hi, max_zeros=8, samples=4000)
        assert len(zl) == 8
        assert shapes[0] == (4000,)
        assert all(shape == () for shape in shapes[1:])

    def test_scan_too_coarse_raises(self):
        with pytest.raises(ScanTooCoarse):
            find_zeros(lambda x: 1.0, 1.0, 2.0, log_spaced=False, expect=2, samples=64)

    def test_a_short_scan_raises_after_one_scan(self):
        # at q = 0.95 the default window's scan resolves 3 of 8 zeros; a
        # finer grid resolves no more, so none is tried
        f = fourth_limit_series(FourthLimit(0.95), 3)
        shapes = []

        def recorded(x):
            shapes.append(np.shape(x))
            return f(x)

        lo, hi = fourth_limit_zero_window(0.95, 3, 8)
        with pytest.raises(ScanTooCoarse) as raised:
            find_zeros(recorded, lo, hi, max_zeros=8, expect=8)
        assert str(raised.value) == "resolved 3 zeros, expected 8"
        assert [shape for shape in shapes if shape] == [(4000,)]

    def test_bisection_ends_where_the_bracket_is_two_adjacent_doubles(self):
        # past |x| ~ 8e3 the relative stop width is below one ulp; the
        # scan runs in a child process, so a hang fails instead of stalling
        code = ("from qdhahn.limits import find_zeros; "
                "print(find_zeros(lambda x: x * x - 2e10, 1e3, 1e6, max_zeros=1).zeros[0])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        root = float(done.stdout)
        assert abs(root - math.sqrt(2e10)) <= 4 * math.ulp(root)

    def test_log_scan_of_a_window_whose_endpoint_product_underflows(self):
        lo, hi = fourth_limit_zero_window(0.5, 300, 8)
        assert lo * hi == 0
        zl = find_zeros(fourth_limit_series(FourthLimit(0.5), 300), lo, hi, max_zeros=8)
        assert len(zl) == 8

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)])
    def test_log_scan_needs_endpoints_of_one_sign(self, lo, hi):
        with pytest.raises(ValueError, match="one sign"):
            find_zeros(math.sin, lo, hi)

    @pytest.mark.parametrize("n", [-600, 504, 600])
    def test_zero_window_past_the_double_range_raises_overflow(self, n):
        # at n = 504 the eighth zero is subnormal
        with pytest.raises(Overflow):
            fourth_limit_zero_window(0.5, n, 8)

    def test_zero_windows_with_a_normal_inner_end_are_unchanged(self):
        # the window before its inner end was clamped to the normal range
        for n in range(-500, 501):
            hi = -(0.5 ** (2 * n + 1)) * 0.5 ** (2 * (8 + 2))
            if abs(hi) >= sys.float_info.min:
                assert fourth_limit_zero_window(0.5, n, 8) == (-1e6 * 0.5 ** (2 * n), hi), n
        assert fourth_limit_zero_window(0.5, 501, 8)[1] == -sys.float_info.min

    @pytest.mark.parametrize("q", [0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
    def test_zero_window_bound_lies_below_the_last_zero(self, q):
        # the window stands while q^(2n + 2 count - 1) is normal; the
        # count-th zero is at least that large, also at the last such n,
        # whose window is clamped
        count = 8
        last = 0
        while q ** (2 * (last + 1) + 2 * count - 1) >= sys.float_info.min:
            last += 1
        with pytest.raises(Overflow):
            fourth_limit_zero_window(q, last + 1, count)
        for n in (3, last):
            lo, hi = fourth_limit_zero_window(q, n, count)
            zl = find_zeros(fourth_limit_series(FourthLimit(q), n), lo, hi, max_zeros=count)
            assert len(zl) == count
            assert abs(zl.zeros[-1]) >= q ** (2 * n + 2 * count - 1)
        assert hi == -sys.float_info.min  # the last window's inner end

    @pytest.mark.parametrize(
        "fam",
        [
            AlSalamCarlitz1(0.5, 0.4, -0.8),
            LimitASC1(0.5, 0.8),
            QBesselOrder(0.5, -0.8),
        ],
    )
    def test_interlacing_in_positive_definite_regimes(self, fam):
        num = find_zeros(
            lambda x: limit_cf_parts(fam, x)[0].real, 0.02, 1.8, max_zeros=6,
            samples=6000,
        )
        den = find_zeros(
            lambda x: limit_cf_parts(fam, x)[1].real, 0.02, 1.8, max_zeros=6,
            samples=6000,
        )
        assert len(num) >= 3 and len(den) >= 3
        assert interlaces(den, num)


class TestLimitEdges:
    def test_every_edge_decreases(self):
        rng = random.Random(3)
        for edge_id in limits.LIMIT_EDGES:
            child, z = verify.draw_limit_family(
                rng, limits.LIMIT_EDGES[edge_id]["child"], q_range=(0.4, 0.6)
            )
            deviations = limit_convergence(edge_id, child, (1e2, 1e3, 1e4), 3, z)
            assert deviations[0] > deviations[1] > deviations[2], (edge_id, deviations)

    def test_degree_zero_edge_is_exact(self):
        fam, z = GENERIC["wall"]
        deviations = limit_convergence("big-q-laguerre-to-wall", fam, (1e2, 1e3), 0, z)
        assert deviations == pytest.approx([0.0, 0.0])

    def test_edge_checks_child_family(self):
        fam, z = GENERIC["wall"]
        with pytest.raises(UnknownFamily):
            limit_convergence("cdqh-to-big-q-laguerre", fam, (1e2,), 3, z)
