import cmath
import math
import random

import numpy as np
import pytest

from qdhahn import limits, recurrence, verify
from qdhahn.cdqhahn import CDQHParams
from qdhahn.errors import (
    DivergentSeries,
    FormalOnly,
    Overflow,
    PoleHit,
    QdhError,
    ResonantDelta,
    ScanTooCoarse,
    UnknownFamily,
    UnsupportedFamily,
    ZeroDivisor,
)
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
    asc1_identity_checks,
    asc1_partial_fractions,
    cf_forms,
    family_from_id,
    find_zeros,
    fourth_limit_series,
    fourth_limit_zero_window,
    interlaces,
    limit_asc1_poly_alt,
    limit_cf,
    limit_cf_parts,
    limit_convergence,
    limit_poly,
    limit_solution,
    limit_solution_sequence,
    limit_weight,
    qbessel_connection,
    qbessel_series_forms,
    solution_indices,
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
    def test_gamma_is_twice_the_root_of_the_spectral_pair_product(self, family_id):
        fam, z = GENERIC[family_id]
        if family_id not in GROWTH_PRODUCTS:
            assert not hasattr(fam, "gamma")
            with pytest.raises(UnsupportedFamily):
                limits.spectral_pair(fam, z)
            return
        product = GROWTH_PRODUCTS[family_id](fam)
        assert fam.gamma == 2 * cmath.sqrt(product)
        small, large, u = limits.spectral_pair(fam, z)
        assert u == large / cmath.sqrt(product)
        assert abs(small * large - product) <= 1e-14 * abs(product)

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_unknown_form_rejected(self, family_id):
        fam, z = GENERIC[family_id]
        forms = cf_forms(fam)
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
                limit_asc1_poly_alt(fam, z, 1200)

    def test_flagship_family_has_no_limit_closed_forms(self):
        params = CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
        for call in (lambda: limit_poly(params, 2.5, 3), lambda: limit_cf(params, 2.5),
                     lambda: limit_solution(params, 2.5, 1, 3)):
            with pytest.raises(UnknownFamily):
                call()


CUT_FAMILIES = ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")


class TestZeroPoint:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_every_closed_form_at_zero_is_finite_or_a_named_error(self, family_id):
        fam, _ = GENERIC[family_id]
        calls = [lambda: limit_poly(fam, 0, 3), lambda: limit_cf_parts(fam, 0)]
        calls += [lambda w=w: limit_solution(fam, 0, w, 3) for w in solution_indices(fam)]
        calls += [lambda f=f: limit_cf(fam, 0, f) for f in cf_forms(fam)]
        for call in calls:
            try:
                values = np.atleast_1d(call())
            except QdhError:
                continue
            assert all(cmath.isfinite(v) for v in values), family_id

    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_cut_families_evaluate_at_zero_and_the_others_raise_zero_divisor(self, family_id):
        fam, _ = GENERIC[family_id]
        if family_id in CUT_FAMILIES:
            assert cmath.isfinite(limit_cf(fam, 0))
            assert cmath.isfinite(limit_solution(fam, 0, 1, 3))
            return
        for call in (lambda: limit_cf(fam, 0), lambda: limit_solution(fam, 0, 1, 3)):
            with pytest.raises(ZeroDivisor):
                call()


class TestSolutions:
    @pytest.mark.parametrize("family_id", sorted(GENERIC))
    def test_every_nonformal_solution_satisfies_recurrence(self, family_id):
        fam, z = GENERIC[family_id]
        checked = 0
        for which in solution_indices(fam):
            try:
                seq = limit_solution_sequence(fam, z, which, 0, 26)
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
        # A = q turns the divergent tail series into a terminating sum
        fam = Wall(0.5, 0.5, 0.4)
        value = limit_solution(fam, 2.31, 4, 3)
        seq = limit_solution_sequence(fam, 2.31, 4, 0, 8)
        worst = max(recurrence.relative_residual(fam, 2.31, seq, n) for n in range(1, 8))
        assert worst < 1e-11
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
            assert -1 in solution_indices(fam)
            seq = limit_solution_sequence(fam, z, -1, 0, 10)
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
            b = limit_asc1_poly_alt(fam, z, n)
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
        dm, dp = limits.cont_q_hermite_weight_denominators(fam, 0.4)
        assert dm == pytest.approx(1.0)
        assert dp == pytest.approx(1.0)

    def test_big_hermite_weight_reduces_at_a_eq_q(self):
        fam = ContBigQHermite(0.5, 0.5, 1.6)
        for x in (-0.8, -0.1, 0.55):
            general = limit_weight(fam, x)
            reduced = limits.cont_big_q_hermite_weight_reduced(fam, x)
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

    def test_scan_too_coarse_raises(self):
        with pytest.raises(ScanTooCoarse):
            find_zeros(lambda x: 1.0, 1.0, 2.0, log_spaced=False, expect=2, samples=64)

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
