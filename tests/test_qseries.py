import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdhahn import qseries
from qdhahn.errors import (
    DivergentSeries,
    MaxTermsExceeded,
    NoConvergentRepresentation,
    Overflow,
    QdhError,
    ZeroDivisor,
)
from qdhahn.qseries import SeriesSpec, TruncationPolicy, phi, phi32, qpoch, qpoch_multi

from conftest import brute_phi, brute_qpoch, brute_qpoch_inf


class TestQPochhammer:
    def test_empty_product(self):
        assert qpoch(0.3 + 0.1j, 0.5, 0) == 1

    def test_two_factor_product(self):
        # (1 - 0.5)(1 - 0.25)
        assert qpoch(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_infinite_product_matches_long_partial_product(self):
        value = qpoch(0.5, 0.5, math.inf)
        assert abs(value - brute_qpoch_inf(0.5, 0.5)) < 1e-14 * abs(value)

    def test_infinite_product_against_mpmath(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.uniform(0.2, 0.8)
            a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            mine = qpoch(a, q, math.inf)
            ref = complex(mpmath.qp(mpmath.mpc(a), q))
            assert abs(mine - ref) <= 1e-12 * max(abs(ref), 1e-30)

    @given(
        a=st.floats(-2.0, 2.0),
        q=st.floats(0.05, 0.95),
        n=st.integers(-8, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_recurrence(self, a, q, n):
        # exact one-step law at every integer index, either sign
        try:
            lhs = qpoch(a, q, n + 1)
            rhs = qpoch(a, q, n) * (1 - a * q**n)
        except ZeroDivisor:
            return
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)

    @given(
        a=st.floats(-1.5, 1.5),
        q=st.floats(0.1, 0.9),
        n=st.integers(0, 25),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_into_finite_and_shifted_tail(self, a, q, n):
        lhs = qpoch(a, q, n) * qpoch(a * q**n, q, math.inf)
        rhs = qpoch(a, q, math.inf)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-12)

    def test_negative_index_matches_ratio_definition(self):
        a, q = 0.3 + 0.2j, 0.45
        for n in (-1, -3, -6):
            direct = qpoch(a, q, n)
            ratio = qpoch(a, q, math.inf) / qpoch(a * q**n, q, math.inf)
            assert abs(direct - ratio) < 1e-12 * abs(direct)

    def test_negative_index_pole_raises(self):
        # a q^-1 = 1 exactly
        with pytest.raises(ZeroDivisor):
            qpoch(0.5, 0.5, -2)

    def test_multi_empty_and_singleton(self):
        assert qpoch_multi([], 0.5, 3) == 1
        a = 0.3 + 0.1j
        assert qpoch_multi([a], 0.5, 4) == qpoch(a, 0.5, 4)

    def test_multi_direct_product(self):
        # (0.5; q)_1 (0.25; q)_1 = 0.5 * 0.75
        assert qpoch_multi([0.5, 0.25], 0.5, 1) == pytest.approx(0.375)

    def test_complex_q_rejected(self):
        with pytest.raises(ValueError):
            qpoch(0.3, 0.5 + 0.1j, 2)
        with pytest.raises(ValueError):
            qpoch(0.3, 1.2, 2)


class TestPhi:
    def test_argument_zero_gives_one(self):
        spec = SeriesSpec((0.3, 0.7), (0.2,), 0.5, 0.0)
        assert phi(spec) == 1

    def test_single_inverse_power_terminates_after_two_terms(self):
        # numerator q^-1 terminates the sum at k = 1: 1 - z/q
        q, z = 0.5, 0.3
        spec = SeriesSpec((1 / q,), (), q, z)
        assert phi(spec) == pytest.approx(1 - z / q)

    def test_q_binomial_product_form(self):
        a, z, q = 0.3, 0.4, 0.5
        lhs = phi(SeriesSpec((a,), (), q, z))
        rhs = qpoch(a * z, q) / qpoch(z, q)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    @pytest.mark.parametrize(
        "numerator,denominator,z",
        [
            ((0.3, 0.7), (0.25,), 0.6),
            ((0.3, 0.7), (0.25, 0.4), 1.7),
            ((0.2,), (0.6, 0.3), 0.9),
            ((), (0.45,), 2.2),
        ],
    )
    def test_against_brute_force(self, numerator, denominator, z):
        q = 0.5
        mine = phi(SeriesSpec(numerator, denominator, q, z))
        ref = brute_phi(numerator, denominator, q, z)
        assert abs(mine - ref) < 1e-11 * max(abs(ref), 1e-30)

    def test_against_mpmath_qhyper(self):
        q = 0.4
        mine = phi(SeriesSpec((0.3, 0.5), (0.7,), q, 0.55))
        ref = complex(mpmath.qhyper([0.3, 0.5], [0.7], q, 0.55))
        assert abs(mine - ref) < 1e-12 * abs(ref)

    def test_terminating_sums_exactly(self):
        q = 0.5
        spec = SeriesSpec((q**-2, 0.3, 0.7), (0.25, 0.4), q, 2.3)
        mine = phi(spec)
        ref = brute_phi((q**-2, 0.3, 0.7), (0.25, 0.4), q, 2.3, kmax=3)
        assert abs(mine - ref) < 1e-13 * abs(ref)

    def test_terminating_polynomial_at_zero_argument(self):
        q = 0.5
        spec = SeriesSpec((q**-3, 0.4), (0.3,), q, 0.0)
        assert phi(spec) == 1

    def test_divergent_r_exceeds_s_plus_one(self):
        with pytest.raises(DivergentSeries):
            phi(SeriesSpec((0.3, 0.4), (), 0.5, 0.1))

    def test_divergent_on_unit_circle(self):
        with pytest.raises(DivergentSeries):
            phi(SeriesSpec((0.3, 0.4), (0.5,), 0.5, 1.0))

    def test_denominator_pole_raises(self):
        q = 0.5
        with pytest.raises(ZeroDivisor):
            phi(SeriesSpec((0.3, 0.2), (q**-1,), q, 0.4))

    def test_max_terms_budget(self):
        policy = TruncationPolicy(rel_tol=1e-12, max_terms=3)
        with pytest.raises(MaxTermsExceeded):
            phi(SeriesSpec((0.3, 0.4), (0.5,), 0.5, 0.9), policy)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parameter_permutation_invariance(self, data):
        q = data.draw(st.floats(0.2, 0.8))
        nums = tuple(data.draw(st.floats(0.1, 0.9)) for _ in range(3))
        dens = tuple(data.draw(st.floats(0.1, 0.9)) for _ in range(2))
        z = data.draw(st.floats(0.05, 0.8))
        base = phi(SeriesSpec(nums, dens, q, z))
        shuffled = phi(SeriesSpec(nums[::-1], dens[::-1], q, z))
        assert abs(base - shuffled) <= 1e-12 * max(abs(base), 1e-30)

    def test_termination_detection_tolerance(self):
        q = 0.5
        assert qseries.termination_order(q**-4, q) == 4
        assert qseries.termination_order(q**-4 * (1 + 1e-14), q) == 4
        assert qseries.termination_order(q**-4 * (1 + 1e-9), q) is None
        assert qseries.termination_order(0.37, q) is None


class TestPhi32:
    def test_terminating_three_term_sum(self):
        q = 0.5
        a, b, c, d, e = 0.4, q**-2, 0.3, 0.35, 0.45
        mine = phi32(a, b, c, d, e, q)
        ref = brute_phi((a, b, c), (d, e), q, d * e / (a * b * c), kmax=3)
        assert abs(mine - ref) < 1e-13 * abs(ref)

    def test_direct_summation_domain(self):
        # d = a collapses one ratio; argument stays inside the disk
        q = 0.5
        a, b, c, d, e = 0.4, 0.5, 0.8, 0.4, 0.3
        mine = phi32(a, b, c, d, e, q)
        ref = brute_phi((a, b, c), (d, e), q, d * e / (a * b * c))
        assert abs(mine - ref) < 1e-11 * abs(ref)

    def test_continuation_matches_transformed_series(self):
        # |de/abc| > 1: value must equal the explicit continuation with
        # the argument-pivot on a
        q = 0.5
        a, b, c, d, e = 0.3, 0.4, 0.5, 0.7, 0.8
        w = d * e / (a * b * c)
        assert abs(w) > 1
        mine = phi32(a, b, c, d, e, q)
        de = d * e
        pref = qpoch_multi([a, de / (b * a), de / (a * c)], q) / qpoch_multi(
            [d, e, w], q
        )
        ref = pref * brute_phi((d / a, e / a, w), (de / (a * b), de / (a * c)), q, a)
        assert abs(mine - ref) < 1e-11 * abs(ref)

    def test_continuation_candidates_agree(self):
        # both standard continuations define the same single-valued
        # function; spot-check one overlap (the pivot-up route uses the
        # denominator ordering that keeps its argument inside the disk)
        q = 0.45
        a, b, c, d, e = 0.35, 0.5, 0.62, 0.55, 0.75
        w = d * e / (a * b * c)
        assert abs(w) > 1
        de = d * e
        assert abs(d / c) < 1
        up = qpoch_multi([d / c, de / (a * b)], q) / qpoch_multi([d, w], q) * brute_phi(
            (c, e / a, e / b), (e, de / (a * b)), q, d / c
        )
        arg = qpoch_multi([a, de / (b * a), de / (a * c)], q) / qpoch_multi(
            [d, e, w], q
        ) * brute_phi((d / a, e / a, w), (de / (a * b), de / (a * c)), q, a)
        assert abs(up - arg) < 1e-11 * abs(up)
        assert abs(phi32(a, b, c, d, e, q) - up) < 1e-11 * abs(up)


def ranked_phi32(a, b, c, d, e, q, policy=qseries.DEFAULT_POLICY):
    """The reference for phi32's ranking: a copy of the scalar loop it ran
    before ranking through ``_best_of``.  Usable candidates go by
    increasing argument modulus, the error is relative to the series, an
    overflowed value fails its candidate, and the first candidate within
    5e-13 wins."""
    spec = qseries._balanced_spec(a, b, c, d, e, q)
    w = spec.argument
    if qseries.series_termination(spec, policy.max_terms) is not None:
        return phi(spec, policy)
    candidates = [cand for cand in qseries._phi32_candidates(spec) if cand[0]]
    candidates.sort(key=lambda cand: abs(cand[1]))
    best = None
    last_error = None
    for _, _, _, build in candidates:
        try:
            pref, series_spec = build()
            prefactor = 1.0 + 0.0j
            if pref is not None:
                prefactor = qpoch_multi(pref[0], q) / qpoch_multi(pref[1], q)
            series, weighted, tail = qseries._phi_core(series_spec, policy)
            value = qseries._assert_finite(prefactor * series, "continued balanced series")
            err = qseries._series_error(series, weighted, tail) / max(abs(series), 1e-300)
            if err <= 5e-13:
                return value
            if best is None or err < best[0]:
                best = (err, value)
        except (ZeroDivisor, Overflow, DivergentSeries, MaxTermsExceeded) as exc:
            last_error = exc
    if best is not None:
        return best[1]
    note = f" (last failure: {last_error})" if last_error else ""
    raise NoConvergentRepresentation(
        f"no convergent representation of the balanced series at argument {w!r}{note}")


def outcome(fn, *args):
    """The value as its exact bits (signed zeros included), or the error
    class and message."""
    try:
        value = fn(*args)
    except QdhError as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex()


def balanced_draws(rng, count, lo, outside):
    """``count`` balanced-series parameter sets (a, b, c, d, e, q), every
    third real, with a, b, c of modulus in lo[0] and d, e in lo[1], whose
    argument de/(abc) lies outside the unit disk or, if not ``outside``,
    inside it."""
    draws = []
    while len(draws) < count:
        phase = 0.0 if len(draws) % 3 == 0 else 1.0
        a, b, c, d, e = (rng.uniform(*lo[i > 2]) * cmath.exp(1j * rng.uniform(-phase, phase))
                         for i in range(5))
        if (abs(d * e / (a * b * c)) > 1) == outside:
            draws.append((a, b, c, d, e, rng.uniform(0.2, 0.8)))
    return draws


class TestPhi32Ranking:
    def test_matches_the_former_ranking_loop_outside_the_unit_disk(self):
        draws = balanced_draws(random.Random(11), 400, ((0.1, 1.6), (0.1, 1.8)), True)
        assert [outcome(phi32, *args) for args in draws] == [
            outcome(ranked_phi32, *args) for args in draws]

    def test_matches_the_former_ranking_loop_inside_the_unit_disk(self):
        # the former loop multiplied the direct sum by 1 + 0j; a sum that
        # starts at 1 + 0j has no -0.0 part, so the product is the sum
        draws = balanced_draws(random.Random(13), 200, ((0.3, 1.6), (0.1, 1.2)), False)
        assert [outcome(phi32, *args) for args in draws] == [
            outcome(ranked_phi32, *args) for args in draws]

    def test_matches_the_former_ranking_loop_without_a_convergent_form(self):
        draws = balanced_draws(random.Random(12), 200, ((1.2, 2.6), (2.0, 4.5)), True)
        outcomes = [outcome(phi32, *args) for args in draws]
        assert outcomes == [outcome(ranked_phi32, *args) for args in draws]
        failed = [out for out in outcomes if out[0] == "NoConvergentRepresentation"]
        assert len(failed) > 20
        assert all(message.startswith(
            "no convergent representation of the balanced series at argument (")
            for _, message in failed)


def former_phi_core(spec, policy):
    """The reference for the scalar ``_phi_core``: a copy of its loop
    before the per-term work was trimmed (one abs per term, comparisons
    for max and min, hoisted attributes).  Same operations, same order."""
    q = spec.q
    z = spec.argument
    extra = 1 + spec.s - spec.r
    stop = qseries.series_termination(spec, policy.max_terms)
    if stop is not None:
        for b in spec.denominator:
            m = qseries.termination_order(b, q, policy.max_terms)
            if m is not None and m < stop:
                raise ZeroDivisor(
                    "denominator parameter equals q^-%d before the series terminates" % m
                )
    else:
        if spec.r > spec.s + 1:
            raise DivergentSeries(
                "nonterminating series with r > s+1 diverges for every argument"
            )
        if spec.r == spec.s + 1 and abs(z) >= 1.0:
            raise DivergentSeries(
                "argument modulus >= 1 with r = s+1; use a continuation"
            )
    term = 1.0 + 0.0j
    total = term
    largest = 1.0
    weighted = 1.0  # sum of (k+1) |T_k|, driving the rounding estimate
    small_run = 0
    ratio_mag = 0.0
    qk = 1.0  # q^k
    k = 0
    while True:
        if stop is not None and k >= stop:
            break
        num = 1.0 + 0.0j
        for a in spec.numerator:
            num *= 1.0 - a * qk
        den = 1.0 - q * qk  # the (q; q)_k factor advanced to k+1
        for b in spec.denominator:
            den *= 1.0 - b * qk
        if den == 0:
            raise ZeroDivisor("series denominator vanished at term %d" % (k + 1))
        factor = num / den * z
        if extra:
            base = -qk
            if base == 0.0 and extra < 0:
                raise Overflow("q^k underflow with negative exponent weight")
            factor *= base**extra
        term *= factor
        total += term
        largest = max(largest, abs(term))
        weighted += (k + 2.0) * abs(term)
        ratio_mag = abs(factor)
        k += 1
        qk *= q
        if stop is None:
            # geometric tail-aware smallness; three consecutive small
            # terms guard against alternating near-cancellation
            tail_factor = ratio_mag / (1.0 - ratio_mag) if ratio_mag < 0.999 else 1e3
            tail_factor = min(max(tail_factor, 1.0), 1e3)
            if abs(term) * tail_factor < policy.rel_tol * max(
                abs(total), 1e-3 * largest
            ):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
            if k >= policy.max_terms or (k > 800 and ratio_mag > 0.995):
                raise MaxTermsExceeded(
                    "series did not settle within %d terms" % min(k, policy.max_terms)
                )
        elif k > policy.max_terms:
            raise MaxTermsExceeded("terminating series exceeds the term budget")
    if stop is not None:
        tail = 0.0
    else:
        tail_factor = ratio_mag / (1.0 - ratio_mag) if ratio_mag < 0.999 else 1e3
        tail = abs(term) * min(max(tail_factor, 1.0), 1e3)
    return qseries._assert_finite(total, "series sum"), weighted, tail



def phi_core_corpus(rng, count):
    """``count`` seeded (spec, policy) pairs for the scalar series loop:
    terminating and nonterminating series, real and complex parameters,
    r = s + 1 and r != s + 1, denominators that vanish, parameters near
    the double range and term budgets small enough to run out."""
    def param(lo, hi):
        value = rng.uniform(lo, hi) * rng.choice((1, -1))
        return value * cmath.exp(1j * rng.uniform(-3, 3)) if rng.random() < 0.5 else value

    corpus = []
    for _ in range(count):
        q = 0.5 if rng.random() < 0.1 else rng.uniform(0.1, 0.9)
        numerator = [param(0.05, 2.5) for _ in range(rng.randint(0, 4))]
        denominator = [param(0.05, 2.5) for _ in range(rng.randint(0, 3))]
        kind = rng.random()
        if numerator and kind < 0.35:
            numerator[0] = q ** -rng.randint(0, 40)
        if denominator and kind < 0.15:
            denominator[0] = q ** -rng.randint(0, 12)
        if numerator and 0.9 < kind:
            numerator[-1] = param(1e150, 1e160)
        policy = TruncationPolicy(rel_tol=rng.choice((1e-12, 1e-15, 1e-6)),
                                  max_terms=rng.choice((5000, 5000, 40, 8)))
        corpus.append((SeriesSpec(tuple(numerator), tuple(denominator), q, param(0.01, 1.3)),
                       policy))
    return corpus


def core_outcome(fn, spec, policy):
    """The sum, the weighted term total and the tail bound as their exact
    bits, or the error class and message."""
    try:
        value, weighted, tail = fn(spec, policy)
    except QdhError as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex(), weighted.hex(), tail.hex()


class TestPhiCoreLoop:
    def test_scalar_loop_matches_the_former_loop_bit_for_bit(self):
        corpus = phi_core_corpus(random.Random(17), 1500)
        outcomes = [core_outcome(qseries._phi_core, *case) for case in corpus]
        assert outcomes == [core_outcome(former_phi_core, *case) for case in corpus]
        # the corpus reaches sums of every kind and each named error
        summed = [spec for (spec, _), out in zip(corpus, outcomes) if len(out) == 4]
        failed = {out for out in outcomes if len(out) == 2}
        assert len(summed) > 500
        assert any(spec.r != spec.s + 1 for spec in summed)
        assert any(qseries.series_termination(spec) is not None for spec in summed)
        assert any(any(a.imag for a in spec.numerator) for spec in summed)
        assert {name for name, _ in failed} == {
            "DivergentSeries", "MaxTermsExceeded", "Overflow", "ZeroDivisor"}
        assert {message.split(" ")[0] for name, message in failed if name == "ZeroDivisor"} == {
            "denominator", "series"}

    def test_q_power_past_the_double_range_is_a_named_overflow(self):
        # a terminating 3-phi-0 weights its terms by (q^k)^-2, which leaves
        # the double range once q^k falls below about 1e-154; every point
        # of a grid fails alike
        message = "q^k underflow with negative exponent weight"
        for call in (lambda: qseries.phi_r0_terminating((2.0**1000, .5, .5), .1, .5),
                     lambda: phi(SeriesSpec((np.array([2.0**1000]), .5, .5), (), .5, .1))):
            with pytest.raises(Overflow) as raised:
                call()
            assert str(raised.value) == message
        spec = SeriesSpec((np.array([2.0**1000, 2.0**900]), .5, .5), (), .5, np.array([.1, .2]))
        errors = qseries._phi_core(spec, qseries.DEFAULT_POLICY)[3]
        assert [(type(e), str(e)) for e in errors] == [(Overflow, message)] * 2


class TestOneRankingRule:
    """A candidate whose value leaves the double range fails on its own,
    whether or not keys order the candidates, scalar and grid alike."""

    @staticmethod
    def candidates(z, shape=lambda v: v):
        # (-1e10; 0.5)_inf is 1.4e172, and the terminating 1-phi-0 sums
        # to 1 - 2z: their product overflows at z = -1e200
        q = 0.5
        return [
            (True, lambda: (([-1e10], []), SeriesSpec((shape(2.0),), (), q, z))),
            (True, lambda: (None, SeriesSpec((shape(2.0),), (), q, shape(0.25)))),
        ]

    @pytest.mark.parametrize("keys", [None, [1.0, 2.0]])
    def test_an_overflowing_candidate_yields_to_the_next(self, keys):
        value = qseries._best_of(self.candidates(-1e200), 0.5, qseries.DEFAULT_POLICY,
                                 keys=keys)
        assert value == 0.5
        with pytest.raises(NoConvergentRepresentation,
                           match="last failure: representation left the double-precision"):
            qseries._best_of(self.candidates(-1e200)[:1], 0.5, qseries.DEFAULT_POLICY,
                             keys=keys and keys[:1])

    @pytest.mark.parametrize("ordered", [False, True])
    def test_an_overflowing_grid_point_yields_to_the_next_candidate(self, ordered):
        z = np.array([-1e200, 0.25, -1e200])
        keys = [np.ones(3), np.full(3, 2.0)] if ordered else None
        values = qseries._best_of(
            self.candidates(z, lambda v: np.full(3, v, dtype=complex)), 0.5,
            qseries.DEFAULT_POLICY, size=3, keys=keys)
        assert values[0] == values[2] == 0.5
        assert values[1] == qpoch_multi([-1e10], 0.5) * 0.5
        for point in range(3):  # each point as the scalar call gives it
            point_keys = keys and [k[point] for k in keys]
            assert values[point] == qseries._best_of(
                self.candidates(complex(z[point])), 0.5, qseries.DEFAULT_POLICY, keys=point_keys)


class TestTransformRegistry:
    def test_ids_stable(self):
        assert set(qseries.transform_ids()) == {
            "cont-a", "cont-b", "heine", "p21-p22", "p21-p12", "p21-p11",
            "p11-swap", "p11-zero-swap", "p01-p11", "q-binomial",
        }

    @pytest.mark.parametrize("tid", sorted(qseries.TRANSFORMS))
    def test_each_identity_on_seeded_draws(self, tid):
        rng = random.Random(99)
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(0.3, 0.7)
            inputs = qseries.sample_transform_inputs(tid, rng, q)
            lhs, rhs = qseries.transform_check(tid, q, **inputs)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
        assert worst <= 1e-9

    def test_specific_swap_example(self):
        lhs, rhs = qseries.transform_check("p11-swap", 0.5, b=0.25, c=0.5, z=0.3)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_specific_heine_example(self):
        lhs, rhs = qseries.transform_check("heine", 0.5, a=0.3, b=0.2, c=0.6, z=0.4)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_zero_limit_reduces_to_confluent_kernel(self):
        # sending the spare numerator parameter to zero turns the
        # product-form identity into the confluent one
        q, c, z = 0.5, 0.45, 0.6
        lhs1, rhs1 = qseries.transform_check("p21-p11", q, a=0.0, c=c, z=z)
        lhs2, rhs2 = qseries.transform_check("p01-p11", q, c=c, z=z)
        assert abs(lhs1 - rhs1) < 1e-11 * max(abs(lhs1), 1.0)
        assert abs(lhs2 - rhs2) < 1e-11 * max(abs(lhs2), 1.0)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            qseries.transform_check("nope", 0.5)
