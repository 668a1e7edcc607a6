import cmath
import copy
import math
import pickle
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

from bits import loop_corpus
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


class TestQPochhammer:
    def test_empty_product(self):
        assert qpoch(0.3 + 0.1j, 0.5, 0) == 1

    def test_two_factor_product(self):
        # (1 - 0.5)(1 - 0.25)
        assert qpoch(0.5, 0.5, 2) == pytest.approx(0.375)

    @pytest.mark.parametrize("n", [2.5, -math.inf, math.nan])
    @pytest.mark.parametrize("call", [qpoch, lambda a, q, n: qpoch_multi([a], q, n)],
                             ids=["qpoch", "qpoch_multi"])
    def test_an_order_neither_integral_nor_inf_is_a_value_error(self, call, n):
        with pytest.raises(ValueError, match="^q-Pochhammer order must be an integer or "
                                             f"math.inf, got {n!r}$"):
            call(0.5, 0.5, n)

    @pytest.mark.parametrize("call", [qpoch, lambda a, q, n: qpoch_multi([a], q, n)],
                             ids=["qpoch", "qpoch_multi"])
    def test_an_integral_float_order_is_that_order(self, call):
        assert call(0.5, 0.5, 2.0) == call(0.5, 0.5, 2) == 0.375

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
        with pytest.raises(MaxTermsExceeded), qseries.truncation(policy):
            phi(SeriesSpec((0.3, 0.4), (0.5,), 0.5, 0.9))

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


class TestPhiCoreLoop:
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

    @pytest.mark.parametrize("numerator, denominator, q, z, k", [
        ((), (0.2,), 0.5, 1e300, 2),
        ((), (0.2,), 0.5, 1e150, 3),  # terms near 1e300 take the cheap test first
        ((), (0.2,), 0.5, 1e300 * cmath.exp(0.3j), 2),
        ((0.3,), (0.6, 0.2), 0.5, 1e120, 3),
        ((1.7e308,), (0.5,), 0.5, 0.1, 1),
        # real products past the double range: inf in floats, nan parts in
        # complex arithmetic
        ((0.3,), (1e200, 1e200, 1e200), 0.5, 0.3, 1),
        ((1e200, 1e200, 3.0), (1e-3, 2e-3), 0.9, 0.5, 1),
        ((1e160, 1e150), (0.5,), 0.999, 0.5, 1),
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


class TestSeriesSpec:
    """The public contract of the exported spec type."""

    def test_positional_and_keyword_construction_agree(self):
        spec = SeriesSpec((0.3, 0.4), (0.6,), 0.5, 0.2)
        assert spec == SeriesSpec(numerator=(0.3, 0.4), denominator=[0.6], q=0.5, argument=0.2)
        assert hash(spec) == hash(SeriesSpec((0.3, 0.4), (0.6,), 0.5, 0.2))
        assert spec != SeriesSpec((0.3, 0.4), (0.6,), 0.5, 0.25)
        assert repr(spec) == ("SeriesSpec(numerator=((0.3+0j), (0.4+0j)), "
                              "denominator=((0.6+0j),), q=0.5, argument=(0.2+0j))")
        assert pickle.loads(pickle.dumps(spec)) == copy.copy(spec) == spec

    def test_the_fields_of_a_scalar_spec(self):
        spec = SeriesSpec([0.3, 1], (), np.float64(0.5), 2)
        assert spec.numerator == (0.3 + 0j, 1 + 0j)
        assert all(type(a) is complex for a in spec.numerator)
        assert spec.denominator == ()
        assert type(spec.q) is float and spec.q == 0.5
        assert type(spec.argument) is complex and spec.argument == 2
        assert (spec.grid, spec.r, spec.s) == (False, 2, 0)

    def test_the_fields_of_a_grid_spec_and_take(self):
        spec = SeriesSpec((np.array([0.3, 0.2, 0.1]), 0.4), (0.6,), 0.5, 0.2)
        assert (spec.grid, spec.r, spec.s) == (True, 2, 1)
        for field in (*spec.numerator, *spec.denominator, spec.argument):
            assert field.dtype == complex and field.shape == (3,)
        assert list(spec.numerator[1]) == [0.4] * 3
        part = spec.take(np.array([2, 0]))
        assert part.grid and list(part.numerator[0]) == [0.1, 0.3]
        assert list(part.argument) == [0.2, 0.2] and part.q == 0.5

    @pytest.mark.parametrize("q, message", [
        (0.5 + 0j, "^base q must be real; complex bases are rejected$"),
        (1.0, r"^base q must lie strictly inside \(0, 1\), got 1.0$"),
        (0.0, r"^base q must lie strictly inside \(0, 1\), got 0.0$"),
    ])
    @pytest.mark.parametrize("argument", [0.2, np.array([0.2, 0.3])], ids=["scalar", "grid"])
    def test_a_base_outside_the_range_is_a_value_error(self, q, message, argument):
        with pytest.raises(ValueError, match=message):
            SeriesSpec((0.3,), (), q, argument)

    @pytest.mark.parametrize("name", ["numerator", "denominator", "q", "argument", "grid",
                                      "extra"])
    def test_a_spec_is_immutable(self, name):
        spec = SeriesSpec((0.3,), (0.6,), 0.5, 0.2)
        with pytest.raises(AttributeError):
            setattr(spec, name, 0.7)
        assert spec == SeriesSpec((0.3,), (0.6,), 0.5, 0.2)


# every key of the compiled summing loop with r <= 3 and s <= 2: a
# terminating series has a numerator parameter, and an open one r <= s + 1
LOOP_KEYS = {(r, s, terminating) for r in range(4) for s in range(3)
             for terminating in (True, False) if (r > 0 if terminating else r <= s + 1)}


def loop_filename(r, s, terminating):
    return "<phi loop r=%d s=%d %s>" % (r, s, "terminating" if terminating else "open")


class TestPhiLoops:
    def test_every_loop_sums_and_compiles_once(self, monkeypatch):
        loops = qseries._phi_loop
        loops.cache_clear()
        calls, compiled = [], []

        def recorded_compile(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        def recorded_loop(*key):
            # each call of the loop notes its key and whether it sums floats
            def loop(values, *rest):
                calls.append((*key, type(values[-1]) is float))
                return loops(*key)(values, *rest)
            return loop

        monkeypatch.setattr(qseries, "compile", recorded_compile, raising=False)
        monkeypatch.setattr(qseries, "_phi_loop", recorded_loop)
        summed_by, reached = set(), set()
        for spec, policy in loop_corpus():
            calls.clear()
            try:
                qseries._phi_core(spec, policy)
            except QdhError:
                pass
            else:  # the last loop called summed it
                summed_by.add(calls[-1])
            reached.update(call[:3] for call in calls)
        # every key sums in float arithmetic and in complex arithmetic
        assert {(*key, real) for key in LOOP_KEYS for real in (True, False)} <= summed_by
        # one compilation per key, under a filename that names the key
        assert sorted(compiled) == sorted(loop_filename(*key) for key in reached)

    @pytest.mark.parametrize("a", [0.3, 0.3 + 0.1j])
    def test_a_traceback_names_its_loop(self, a):
        # float and complex sums run the one loop of their shape
        with pytest.raises(ZeroDivisor, match="^series denominator vanished at term 3$") as raised:
            qseries._phi_core(SeriesSpec((a, 0.4), (0.5 ** -2,), 0.5, 0.3),
                              qseries.DEFAULT_POLICY)
        assert raised.traceback[-1].path == "<phi loop r=2 s=1 open>"


class TestTerminationOrder:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999])
    def test_a_power_of_q_within_the_tolerance_is_an_order(self, q):
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
        with pytest.raises(Overflow, match="is not finite"):
            qseries.termination_order(p, 0.5)


class TestTruncation:
    SPEC = SeriesSpec((0.3, 0.4), (0.5,), 0.5, 0.9)

    def test_nested_blocks_restore_the_outer_policy(self):
        outer, inner = TruncationPolicy(rel_tol=1e-6), TruncationPolicy(max_terms=3)
        with qseries.truncation(outer):
            with pytest.raises(MaxTermsExceeded), qseries.truncation(inner):
                phi(self.SPEC)
            assert qseries._POLICY.get() is outer
            loose = phi(self.SPEC)
        assert qseries._POLICY.get() is qseries.DEFAULT_POLICY
        assert loose == qseries._phi_core(self.SPEC, outer)[0] != phi(self.SPEC)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-3, 1.0, 1e300, math.inf, math.nan])
    def test_a_tolerance_lies_inside_zero_one(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must lie strictly inside"):
            TruncationPolicy(rel_tol=rel_tol)

    # each public kernel at an input it sums, open or terminating past
    # two terms, so that a budget of two terms fails it
    @pytest.mark.parametrize("kernel, args", [
        (phi, (SPEC,)),
        (qseries.phi01, (0.5, 0.9, 0.37)),
        (qseries.phi11, (0.3, 0.6, 0.5, 0.37)),
        (qseries.phi21, (0.3, 0.4, 0.6, 0.2, 0.37)),
        (qseries.phi22_balanced, (0.3, 0.4, 0.12, 0.5, 0.5, 0.37)),
        (phi32, (0.3, 0.4, 0.5, 0.6, 0.7, 0.37)),
        (phi32, (np.array([0.3, 0.37 ** -5]), 0.4, 0.5, 0.6, 0.7, 0.37)),
        (qseries.phi_r0_terminating, ((0.37 ** -5, 0.3), 0.2, 0.37)),
        (lambda: qseries.transform_check("heine", 0.37, a=0.3, b=0.2, c=0.6, z=0.4), ()),
    ], ids=["phi", "phi01", "phi11", "phi21", "phi22_balanced", "phi32", "phi32-grid",
            "phi_r0_terminating", "transform_check"])
    def test_every_public_kernel_sums_under_the_block(self, kernel, args):
        assert np.all(np.isfinite(kernel(*args)))
        with pytest.raises(QdhError), qseries.truncation(TruncationPolicy(max_terms=2)):
            kernel(*args)


class TestOneRankingRule:
    """A candidate whose value leaves the double range fails on its own,
    scalar and grid alike, and on a grid whether or not keys order the
    candidates."""

    @staticmethod
    def candidates(z, shape=lambda v: v):
        # (-1e10; 0.5)_inf is 1.4e172, and the terminating 1-phi-0 sums
        # to 1 - 2z: their product overflows at z = -1e200
        q = 0.5
        return [
            (True, lambda: (([-1e10], []), SeriesSpec((shape(2.0),), (), q, z))),
            (True, lambda: (None, SeriesSpec((shape(2.0),), (), q, shape(0.25)))),
        ]

    def test_an_overflowing_candidate_yields_to_the_next(self):
        value = qseries._best_of(self.candidates(-1e200), 0.5, qseries.DEFAULT_POLICY)
        assert value == 0.5
        with pytest.raises(NoConvergentRepresentation,
                           match="last failure: representation left the double-precision"):
            qseries._best_of(self.candidates(-1e200)[:1], 0.5, qseries.DEFAULT_POLICY)

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
            assert values[point] == qseries._best_of(
                self.candidates(complex(z[point])), 0.5, qseries.DEFAULT_POLICY)

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
