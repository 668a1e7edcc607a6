import cmath
import math
import random
from functools import partial

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


def former_qpoch_inf(a, q):
    """(a; q)_inf by the former rule: the factors while |a q^j| >=
    1e-15 (1 - q), then the first-order tail exp(-x / (1 - q))."""
    product, factor = 1.0 + 0.0j, complex(a)
    while abs(factor) >= 1e-15 * (1.0 - q):
        product *= 1.0 - factor
        factor *= q
    return product * cmath.exp(-factor / (1.0 - q))


def qpoch_inf_40_digits(a, q):
    """(a; q)_inf at 40 digits: the factors while |a q^j| >= 1e-3, then
    exp of the log series -sum x^m / (m (1 - q^m)) to m = 14, whose rest
    is below 1e-44 for q <= 0.99."""
    with mpmath.workdps(40):
        x, q = mpmath.mpc(a), mpmath.mpf(q)
        product = mpmath.mpc(1)
        while abs(x) >= 1e-3:
            product *= 1 - x
            x *= q
        log_tail = -mpmath.fsum(x**m / (m * (1 - q**m)) for m in range(1, 15))
        return product * mpmath.exp(log_tail)


def qpoch_draws(seed, count):
    """(a, q) with q in [0.05, 0.95] and |a| <= 40 at any phase."""
    rng = random.Random(seed)
    return [(cmath.rect(rng.uniform(0, 40), rng.uniform(-math.pi, math.pi)),
             rng.uniform(0.05, 0.95)) for _ in range(count)]


def former_qpoch_complex(a, q):
    """(a; q)_inf by the loop every argument took before finite real ones
    were multiplied in floats: the same rule in complex arithmetic."""
    product = 1.0 + 0.0j
    factor = complex(a)
    cutoff = qseries._qpoch_cutoff(q)
    while abs(factor) >= cutoff:
        product *= 1.0 - factor
        factor *= q
    product *= cmath.exp(qseries._qpoch_log_tail(factor, q))
    return qseries._assert_finite(product, "infinite q-Pochhammer product")


def real_qpoch_draws(seed, count):
    """(a, q) with real a of either sign and imaginary part 0.0 or -0.0,
    |a| up to 40 and every fifth up to 1e300.  Every tenth a is an exact
    q^-j or -q^-j, every tenth q is 0.5 (where a factor 1 - a q^j can be
    exactly 0), and every twentieth q is below 1e-5 with a between 1/q and
    the cutoff over q^2, so that the last two factors multiplied in are
    negative."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        q = 0.5 if i % 10 == 3 else rng.uniform(0.05, 0.95)
        a = 10 ** rng.uniform(-5, 300) if i % 5 == 0 else rng.uniform(0, 40)
        if i % 10 == 1 or i % 10 == 3:
            a = q ** -rng.randint(0, 40)
        elif i % 20 == 7:
            q = 10 ** rng.uniform(-12, -5)
            a = 10 ** rng.uniform(-math.log10(q), math.log10(qseries._qpoch_cutoff(q) / q**2))
        draws.append((complex(rng.choice((1, -1)) * a, rng.choice((0.0, -0.0))), q))
    return draws


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

    def test_the_40_digit_reference_is_mpmath_qp(self):
        with mpmath.workdps(40):
            for a, q in qpoch_draws(3, 6):
                ref = mpmath.qp(mpmath.mpc(a), mpmath.mpf(q))
                assert abs(qpoch_inf_40_digits(a, q) - ref) <= 1e-35 * abs(ref)

    def test_infinite_product_errors_no_larger_than_the_former_rule(self):
        draws = qpoch_draws(7, 400)
        new, old = [], []
        for a, q in draws:
            ref = complex(qpoch_inf_40_digits(a, q))
            new.append(abs(qpoch(a, q) - ref) / abs(ref))
            old.append(abs(former_qpoch_inf(a, q) - ref) / abs(ref))
        new, old = np.array(new), np.array(old)
        assert np.median(new) <= np.median(old)
        # above q = 0.5 both rules share the rounding of their first
        # factors, which sets the upper percentiles of either
        low_q = np.array([q <= 0.5 for _, q in draws])
        assert np.percentile(new[low_q], 99) <= np.percentile(old[low_q], 99)
        assert new.max() <= 1e-13

    def test_real_arguments_give_the_complex_loops_bits(self):
        draws = real_qpoch_draws(23, 20000)
        outcomes = [outcome(qpoch, a, q) for a, q in draws]
        assert outcomes == [outcome(former_qpoch_complex, a, q) for a, q in draws]
        assert all(type(qpoch(a, q)) is complex for (a, q), out in zip(draws, outcomes)
                   if out[0] != "Overflow")
        # the draws reach a product of 0, a -0.0 imaginary part (the last
        # factors negative) and products past the double range
        assert ("0x0.0p+0", "0x0.0p+0") in outcomes
        assert any(out[1] == "-0x0.0p+0" for out in outcomes)
        assert ("Overflow", "infinite q-Pochhammer product left the double-precision range") \
            in outcomes

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
    def test_first_omitted_tail_term_is_at_most_1e_17(self, q):
        x = qseries._qpoch_cutoff(q)
        with mpmath.workdps(40):
            assert mpmath.mpf(x)**4 / (4 * (1 - mpmath.mpf(q)**4)) <= 1e-17
        # the tail at the largest factor it stands for, at every phase
        for phase in np.linspace(-math.pi, math.pi, 9):
            factor = cmath.rect(math.nextafter(x, 0.0), phase)
            tail = cmath.exp(qseries._qpoch_log_tail(factor, q))
            ref = qpoch_inf_40_digits(factor, q)
            assert abs(tail - complex(ref)) <= 4e-16 * abs(ref)

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
            err = qseries._series_error(weighted, tail) / max(abs(series), 1e-300)
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


def former_termination_order(p, q, max_order=5000):
    """``termination_order`` before its early exit for p.real < 1 - 2e-13."""
    p = complex(p)
    if not cmath.isfinite(p):
        raise Overflow(f"series parameter {p} is not finite")
    if p == 0 or abs(p.imag) > qseries.TERMINATION_REL_TOL * abs(p) or p.real <= 0:
        return None
    estimate = -math.log(abs(p)) / math.log(q)
    best = None
    best_err = None
    for m in sorted({math.floor(estimate), math.ceil(estimate)}):
        if m < 0 or m > max_order:
            continue
        target = q ** (-m)
        err = abs(p - target)
        if err < qseries.TERMINATION_REL_TOL * target:
            if best is None or err < best_err or (err == best_err and m < best):
                best, best_err = m, err
    return best


def former_series_termination(spec, max_order=5000):
    orders = [former_termination_order(p, spec.q, max_order) for p in spec.numerator]
    orders = [m for m in orders if m is not None]
    return min(orders) if orders else None


def former_phi_core(spec, policy, overflow_exit=True):
    """The reference for the scalar ``_phi_core``: a copy of its loop
    before the cheap small-term test, when every term of an open series
    took the full test (the tail factor, its clamp and abs(total)), and of
    ``termination_order`` before its early exit.  Same operations, same
    order.  With ``overflow_exit``, a term of inf or nan in an open series
    raises Overflow naming it, where the loop without that exit ran on to
    its budget."""
    q = spec.q
    z = spec.argument
    numerator, denominator = spec.numerator, spec.denominator
    rel_tol, max_terms = policy.rel_tol, policy.max_terms
    extra = 1 + len(denominator) - len(numerator)
    stop = former_series_termination(spec, max_terms)
    if stop is not None:
        for b in denominator:
            m = former_termination_order(b, q, max_terms)
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
    # comparisons stand in for max and min below: they pick the same
    # operand, a nan included, without a builtin call per term
    while stop is None or k < stop:
        num = 1.0 + 0.0j
        for a in numerator:
            num *= 1.0 - a * qk
        den = 1.0 - q * qk  # the (q; q)_k factor advanced to k+1
        for b in denominator:
            den *= 1.0 - b * qk
        if den == 0:
            raise ZeroDivisor("series denominator vanished at term %d" % (k + 1))
        factor = num / den * z
        if extra:
            try:  # a q^k near 0 to a negative power leaves the double range
                factor *= (-qk)**extra
            except (ZeroDivisionError, OverflowError):
                raise Overflow("q^k underflow with negative exponent weight") from None
        term *= factor
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        weighted += (k + 2.0) * size
        ratio_mag = abs(factor)
        k += 1
        qk *= q
        if stop is None:
            # geometric tail-aware smallness, the tail factor clamped to
            # [1, 1e3]; three consecutive small terms guard against
            # alternating near-cancellation
            tail_factor = ratio_mag / (1.0 - ratio_mag) if ratio_mag < 0.999 else 1e3
            if 1.0 > tail_factor:
                tail_factor = 1.0
            if 1e3 < tail_factor:
                tail_factor = 1e3
            floor = 1e-3 * largest
            magnitude = abs(total)
            if size * tail_factor < rel_tol * (floor if floor > magnitude else magnitude):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
                if overflow_exit and not size < math.inf:
                    raise Overflow("series term %d left the double-precision range" % k)
            if k >= max_terms or (k > 800 and ratio_mag > 0.995):
                raise MaxTermsExceeded(
                    "series did not settle within %d terms" % min(k, max_terms)
                )
        elif k > max_terms:
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


def shaped_specs(rng, r, s, q):
    """Series of shape (r, s): open and terminating ones, with arguments
    inside, near and outside the unit disk."""
    def param(lo, hi):
        return complex(rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-1.0, 1.0)))

    for trial in range(12):
        numerator = [param(0.05, 1.5) for _ in range(r)]
        denominator = [param(0.05, 1.2) for _ in range(s)]
        if r and trial % 3 == 0:  # ends at k = m
            numerator[trial % r] = q ** -rng.randint(0, 6)
        z = param(0.05, (0.5, 0.95, 0.999, 3.0)[trial % 4]) * cmath.exp(2j * trial)
        yield SeriesSpec(tuple(numerator), tuple(denominator), q, z)


def real_shaped_specs(rng, r, s, q):
    """Real series of shape (r, s), which the scalar loop sums in floats:
    parameters of either sign, 0.0 among them, imaginary parts of 0.0 and
    -0.0, exact q^-m endings, and for r <= s arguments up to |z| = 30,
    some with a numerator parameter large enough that the terms leave the
    double range."""
    def param(lo, hi):
        return complex(rng.choice((1, -1)) * rng.uniform(lo, hi), rng.choice((0.0, -0.0)))

    for trial in range(16):
        numerator = [param(0.05, 2.5) for _ in range(r)]
        denominator = [param(0.05, 2.5) for _ in range(s)]
        if r and trial % 4 == 1:  # the transform identities pass (a, 0.0)
            numerator[trial % r] = 0.0
        if s and trial % 8 == 2:
            denominator[0] = complex(0.0, -0.0)
        if r and trial % 3 == 0:  # ends at k = m
            numerator[trial % r] = q ** -rng.randint(0, 6)
        reach = (0.5, 0.95, 0.999, 3.0)[trial % 4] if r > s else (0.5, 3.0, 12.0, 30.0)[trial % 4]
        if r and r <= s and trial % 8 == 7:
            numerator[0] = param(1e100, 1e120)
        yield SeriesSpec(tuple(numerator), tuple(denominator), q, param(0.01, reach))


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
        # the overflow exit changes failures alone: each sum it stops at a
        # term past the double range failed without it too
        without = [core_outcome(partial(former_phi_core, overflow_exit=False), *case)
                   for case in corpus]
        changed = [(new, old) for new, old in zip(outcomes, without) if new != old]
        assert changed and all(
            new[0] == "Overflow" and new[1].startswith("series term ") and len(old) == 2
            for new, old in changed)

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

    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("s", range(3))
    def test_every_shape_matches_the_former_loop(self, r, s):
        rng = random.Random(10 * r + s)
        specs = [spec for q in (0.1, 0.5, 0.9) for spec in shaped_specs(rng, r, s, q)]
        real = [spec for q in (0.05, 0.5, 0.95) for spec in real_shaped_specs(rng, r, s, q)]
        cases = [(spec, policy) for spec in specs + real
                 for policy in (qseries.DEFAULT_POLICY, TruncationPolicy(max_terms=60),
                                TruncationPolicy(rel_tol=1e-15))]
        outcomes = [core_outcome(qseries._phi_core, *case) for case in cases]
        assert outcomes == [core_outcome(former_phi_core, *case) for case in cases]
        assert any(len(out) == 4 for out in outcomes)
        # the real specs take the float loop and come back as complex sums
        assert all(qseries._finite_reals((*spec.numerator, *spec.denominator, spec.argument))
                   is not None for spec in real)
        sums = [qseries._phi_core(spec, qseries.DEFAULT_POLICY)[0]
                for spec, out in zip(real, outcomes[3 * len(specs)::3]) if len(out) == 4]
        assert sums and all(type(value) is complex for value in sums)
        if 0 < r <= s:  # terms past the double range end in a named error
            assert {"MaxTermsExceeded", "Overflow"} & {
                out[0] for out in outcomes[3 * len(specs)::3] if len(out) == 2}

    def test_every_exit_matches_the_former_loop(self):
        q = 0.5
        default, budget = qseries.DEFAULT_POLICY, TruncationPolicy
        cases = [
            # settles past 800 terms; the slow ratio past 800 terms
            (SeriesSpec((0.3,), (), q, 0.99), default),
            (SeriesSpec((0.3,), (), q, 0.997), default),
            (SeriesSpec((0.3, 0.2), (0.6,), q, 0.99 * cmath.exp(0.3j)), default),
            (SeriesSpec((0.3, 0.2), (0.6,), q, 0.999 * cmath.exp(0.3j)), default),
            # the term budget before and after 800 terms
            (SeriesSpec((0.3,), (), q, 0.99), budget(max_terms=60)),
            (SeriesSpec((0.3,), (), q, 0.99), budget(max_terms=900)),
            (SeriesSpec((q ** -30, 0.4), (0.3,), q, 0.9), budget(max_terms=20)),
            # a denominator that vanishes, before an ending or in an open series
            (SeriesSpec((q ** -4, 0.4), (q ** -1,), q, 0.3), default),
            (SeriesSpec((0.3, 0.4), (q ** -2,), q, 0.3), default),
            # divergent shapes
            (SeriesSpec((0.3, 0.4, 0.5), (0.6,), q, 0.3), default),
            (SeriesSpec((0.3, 0.4), (0.6,), q, 1.5), default),
            # q^k to a negative power past the double range; a sum past it
            (SeriesSpec((2.0 ** 1000, 0.5, 0.5), (), 0.1, 0.5), default),
            (SeriesSpec((q ** -6,), (), q, 1e300), default),
            # nan and inf parameters and arguments
            (SeriesSpec((math.nan, 0.4), (0.6,), q, 0.3), default),
            (SeriesSpec((0.3, 0.4), (math.inf,), q, 0.3), default),
            (SeriesSpec((0.3, 0.4), (0.6,), q, math.nan), default),
            (SeriesSpec((0.3,), (0.6,), q, complex(math.inf, 0.0)), default),
            (SeriesSpec((0.3,), (0.6, 0.2), q, complex(math.nan, 1.0)), default),
            # terms that grow before they settle, and alternating terms
            (SeriesSpec((), (0.2,), q, 40.0), default),
            (SeriesSpec((0.9,), (), 0.95, -0.98), default),
        ]
        outcomes = [core_outcome(qseries._phi_core, *case) for case in cases]
        assert outcomes == [core_outcome(former_phi_core, *case) for case in cases]
        assert {out[0] for out in outcomes if len(out) == 2} == {
            "DivergentSeries", "MaxTermsExceeded", "Overflow", "ZeroDivisor"}
        assert {"series did not settle within %d terms" % k for k in (20, 60, 801, 900)} <= {
            out[1] for out in outcomes if len(out) == 2}
        assert sum(len(out) == 4 for out in outcomes) == 4

    def test_real_products_past_the_double_range_match_the_former_loop(self):
        # a numerator or denominator product past the double range is inf
        # in floats where the complex loop's zero imaginary parts turn to
        # nan: a term ratio of 0 for a nan one, or a term of inf for one of
        # nan, which the complex loop names as its first term past the range
        cases = [
            SeriesSpec((0.3,), (1e200, 1e200, 1e200), 0.5, 0.3),
            SeriesSpec((1e200, 1e200, 3.0), (1e-3, 2e-3), 0.9, 0.5),
            SeriesSpec((1e160, 1e150), (0.5,), 0.999, 0.5),
            SeriesSpec((1e200, 1e200), (1e-100,), 0.9999, 0.5),
            # terms of 0 and terms past the double range
            SeriesSpec((0.3, 0.4), (0.6,), 0.5, 0.0),
            SeriesSpec((), (0.2,), 0.5, 1e300),
        ]
        outcomes = [core_outcome(qseries._phi_core, spec, qseries.DEFAULT_POLICY)
                    for spec in cases]
        assert outcomes == [core_outcome(former_phi_core, spec, qseries.DEFAULT_POLICY)
                            for spec in cases]
        assert outcomes[:4] + outcomes[5:] == [
            ("Overflow", "series term %d left the double-precision range" % k)
            for k in (1, 1, 1, 1, 2)]
        # without the overflow exit the loop ran on to its budget
        assert [core_outcome(partial(former_phi_core, overflow_exit=False), spec,
                             qseries.DEFAULT_POLICY) for spec in cases[:4] + cases[5:]] == [
            ("MaxTermsExceeded", "series did not settle within %d terms" % k)
            for k in (5000, 1004, 2010, 5000, 5000)]

    @pytest.mark.parametrize("numerator, denominator, q, z, k", [
        ((), (0.2,), 0.5, 1e300, 2),
        ((), (0.2,), 0.5, 1e150, 3),  # terms near 1e300 take the cheap test first
        ((), (0.2,), 0.5, 1e300 * cmath.exp(0.3j), 2),
        ((0.3,), (0.6, 0.2), 0.5, 1e120, 3),
        ((1.7e308,), (0.5,), 0.5, 0.1, 1),
        ((0.3,), (1e200, 1e200, 1e200), 0.5, 0.3, 1),
    ])
    def test_a_term_past_the_double_range_is_a_named_overflow(self, numerator, denominator,
                                                              q, z, k):
        # the same error at the same term from a scalar call, a one-point
        # grid and a grid beside a point that settles
        message = "series term %d left the double-precision range" % k
        with pytest.raises(Overflow, match=f"^{message}$"):
            qseries._phi_core(SeriesSpec(numerator, denominator, q, z), qseries.DEFAULT_POLICY)
        for others in ((), (0.3,)):
            grid = SeriesSpec(tuple(np.array([p, *others]) for p in numerator),
                              tuple(np.array([p, *others]) for p in denominator), q,
                              np.array([z, *others]))
            errors = qseries._phi_core(grid, qseries.DEFAULT_POLICY)[3]
            assert [(type(e), str(e)) for e in errors[:1]] == [(Overflow, message)]
            assert list(errors[1:]) == [None] * len(others)


# every key of the compiled summing loop with r <= 3 and s <= 2: a
# terminating series has a numerator parameter, and an open one r <= s + 1
LOOP_KEYS = {(r, s, real, terminating) for r in range(4) for s in range(3)
             for real in (True, False) for terminating in (True, False)
             if (r > 0 if terminating else r <= s + 1)}


def loop_filename(r, s, real, terminating):
    return "<phi loop r=%d s=%d %s %s>" % (
        r, s, "float" if real else "complex", "terminating" if terminating else "open")


def loop_corpus():
    """The scalar loop's corpus: ``phi_core_corpus`` and the shaped specs
    of ``test_every_shape_matches_the_former_loop`` under its policies."""
    cases = phi_core_corpus(random.Random(17), 1500)
    for r in range(4):
        for s in range(3):
            rng = random.Random(10 * r + s)
            specs = [spec for q in (0.1, 0.5, 0.9) for spec in shaped_specs(rng, r, s, q)]
            specs += [spec for q in (0.05, 0.5, 0.95) for spec in real_shaped_specs(rng, r, s, q)]
            cases += [(spec, policy) for spec in specs
                      for policy in (qseries.DEFAULT_POLICY, TruncationPolicy(max_terms=60),
                                     TruncationPolicy(rel_tol=1e-15))]
    return cases


class TestPhiLoops:
    def test_every_loop_sums_as_the_former_loop_and_compiles_once(self, monkeypatch):
        loops = qseries._phi_loop
        loops.cache_clear()
        keys, compiled = [], []

        def recorded_compile(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(qseries, "compile", recorded_compile, raising=False)
        monkeypatch.setattr(qseries, "_phi_loop", lambda *key: keys.append(key) or loops(*key))
        summed_by, reached = set(), set()
        for spec, policy in loop_corpus():
            keys.clear()
            outcome = core_outcome(qseries._phi_core, spec, policy)
            assert outcome == core_outcome(former_phi_core, spec, policy)
            reached.update(keys)
            if len(outcome) == 4:  # the last loop called summed it
                summed_by.add(keys[-1])
        assert LOOP_KEYS <= summed_by
        # one compilation per key, under a filename that names the key
        assert sorted(compiled) == sorted(loop_filename(*key) for key in reached)

    @pytest.mark.parametrize("a, filename", [
        (0.3, "<phi loop r=2 s=1 float open>"),
        (0.3 + 0.1j, "<phi loop r=2 s=1 complex open>"),
    ])
    def test_a_traceback_names_its_loop(self, a, filename):
        with pytest.raises(ZeroDivisor, match="^series denominator vanished at term 3$") as raised:
            qseries._phi_core(SeriesSpec((a, 0.4), (0.5 ** -2,), 0.5, 0.3),
                              qseries.DEFAULT_POLICY)
        assert raised.traceback[-1].path == filename


def termination_points(q):
    """Parameters at, near and away from q^-m, 1 and the early-exit floor
    1 - 2e-13, real and complex."""
    points = [1.0, 1 + 1e-13, 1 - 1e-13, 1 + 2e-13, 1 - 2e-13, 1 - 3e-13, 0.37, 0.0, -1.0,
              -(q ** -3), 1j, 1e-300, 1e300, 1 - 1e-12, complex(1.0, 1e-13), complex(1.0, 2e-13),
              *np.nextafter(1 - 2e-13, [0.0, 2.0]), *np.nextafter(1.0, [0.0, 2.0])]
    for m in (0, 1, 2, 5, 17, 40):
        points += [q ** -m * (1 + rel) for rel in (1e-14, -1e-14, 9.9e-14, -9.9e-14, 1e-13,
                                                   -1e-13, 1e-9)]
        points += [q ** -m * cmath.exp(1e-14j), q ** (-m - 0.5)]
    rng = random.Random(int(q * 1000))
    points += [complex(rng.uniform(-2, 2), rng.uniform(-1e-12, 1e-12)) for _ in range(100)]
    return points


class TestTerminationOrder:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999])
    def test_matches_the_former_answer(self, q):
        for p in termination_points(q):
            for max_order in (0, 3, 5000):
                assert (qseries.termination_order(p, q, max_order)
                        == former_termination_order(p, q, max_order)), (p, max_order)
        assert qseries.termination_order(1.0, q) == 0
        assert qseries.termination_order(q ** -5 * (1 - 1e-14), q) == 5

    def test_a_power_past_the_double_range_matches_no_parameter(self):
        # q^-1024 at q = 0.5 leaves the double range: no order, as on a grid,
        # so a scalar call and a one-point grid fail with the same error (the
        # first term is past the double range; phi21's last candidate fails
        # at the infinite product (1.7e308; q)_inf, before its list)
        assert qseries.termination_order(1.7e308, 0.5) is None
        with np.errstate(all="ignore"):
            assert qseries._termination_orders(np.array([1.7e308 + 0j]), 0.5, 5000) == [-1]
        calls = {Overflow: lambda p: phi(SeriesSpec((p,), (0.5,), 0.5, 0.1)),
                 NoConvergentRepresentation: lambda p: qseries.phi21(p, 0.3, 0.5, 0.1, 0.5)}
        for error, call in calls.items():
            messages = []
            for p in (1.7e308, np.array([1.7e308])):
                with pytest.raises(QdhError) as raised:
                    call(p)
                assert type(raised.value) is error
                messages.append(str(raised.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, complex(0.3, math.nan),
                                   complex(-math.inf, 0.0)])
    def test_a_parameter_that_is_not_finite_still_raises(self, p):
        for order in (qseries.termination_order, former_termination_order):
            with pytest.raises(Overflow, match="is not finite"):
                order(p, 0.5)


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

    @pytest.mark.parametrize("c", [2.0, np.array([2.0]), np.array([0.7, 2.0])],
                             ids=["scalar", "one-point", "two-point"])
    def test_a_vanished_prefactor_fails_its_candidate_by_name(self, c):
        # at c = 1/q the direct 1-phi-1 divides by zero at its first term,
        # and the swap's prefactor (z; q)_inf / (c; q)_inf by (2; 0.5)_inf = 0
        with pytest.raises(NoConvergentRepresentation) as failed:
            qseries.phi11(0.3, c, 0.5, 0.5)
        assert str(failed.value) == ("no usable representation found (last failure: "
                                     "prefactor's denominator q-Pochhammer product vanished)")


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
