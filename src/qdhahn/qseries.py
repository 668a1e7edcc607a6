"""q-Pochhammer symbols and basic hypergeometric series.

Conventions used throughout the package: the base q is real with
0 < q < 1 (strictly), parameters and arguments are complex, and all sums
and products are evaluated in double precision with relative-tolerance
truncation.  An r-phi-s series is

    sum_k  [(a_1,...,a_r; q)_k / ((b_1,...,b_s; q)_k (q; q)_k)]
           * [(-1)^k q^(k(k-1)/2)]^(1+s-r) * z^k,

which terminates when some numerator parameter equals q^(-m) for an
integer m >= 0, converges for every argument when r <= s, converges for
|z| < 1 when r = s+1, and otherwise diverges.

An infinite q-Pochhammer product (a; q)_inf multiplies its factors
1 - a q^j while |a q^j| >= (4e-17 (1 - q))^(1/4).  The rest is
(x; q)_inf at the first factor left out, x = a q^J, taken from the
expansion log (x; q)_inf = -sum_m x^m / (m (1 - q^m)) cut after m = 3,
whose first term left out is at most 1e-17.

``phi32`` evaluates the balanced 3-phi-2 with argument de/(abc); outside
the unit disk it dispatches automatically to one of the two standard
continuations, trying every assignment of the numerator parameters to
the distinguished slot.  Candidate representations are ranked by an
estimated total error (truncation tail plus accumulated rounding), since
the analytically equivalent rewrites differ enormously in conditioning.

Grids: ``qpoch`` (infinite order), ``_phi_core``, ``phi32``, ``phi21``
and ``phi11`` also accept numpy arrays of points.  A grid call applies
the scalar stopping and ranking rules point by point, in one pass of
array arithmetic per series term, and raises the named error a scalar
call at its first failing point would raise.  A candidate rank of the
grid ranking sums all its points in one array pass per series shape,
whichever candidates they take, and a few slow points still keep that
pass alive for all of them.

The scalar kernels (``_phi_core`` and the infinite ``qpoch``) sum finite
real inputs in float arithmetic, with the same bits as the complex loop;
complex, nan and inf inputs use complex arithmetic.

A nonterminating series whose term is inf or nan can never settle: it
raises Overflow naming that term, scalar and grid alike.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DivergentSeries,
    MaxTermsExceeded,
    NoConvergentRepresentation,
    NonRealResult,
    Overflow,
    PoleOnSupport,
    ZeroDivisor,
)

INFINITY = math.inf

# Numerator parameter p terminates a series iff |p - q^-m| < this times q^-m.
TERMINATION_REL_TOL = 1e-13
# Every q^-m with m >= 0 is at least 1, so a parameter whose real part is
# below this matches none of them.
_TERMINATION_REAL_FLOOR = 1.0 - 2 * TERMINATION_REL_TOL


def _check_q(q) -> float:
    if isinstance(q, complex):
        raise ValueError("base q must be real; complex bases are rejected")
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"base q must lie strictly inside (0, 1), got {q!r}")
    return q


def _assert_finite(value: complex, context: str) -> complex:
    try:
        finite = math.isfinite(value.real) and math.isfinite(value.imag)
    except TypeError:  # an array of points
        finite = np.isfinite(value).all()
    if not finite:
        raise Overflow(f"{context} left the double-precision range")
    return value


def term_ratio(q: float, k: int, factors) -> complex:
    """The ratio t_k / t_(k-1) of a basic hypergeometric term declared by
    its factors (nums, dens, step, power):

        step q^(power (k-1)) prod_a (1 - a q^(k-1)) / prod_b (1 - b q^(k-1))

    over a in nums and b in dens; ZeroDivisor where the denominator
    vanishes."""
    nums, dens, step, power = factors
    qk = q ** (k - 1)
    num = 1.0 + 0.0j
    for a in nums:
        num *= 1 - a * qk
    den = 1.0 + 0.0j
    for b in dens:
        den *= 1 - b * qk
    if den == 0:
        raise ZeroDivisor("explicit polynomial term denominator vanished")
    ratio = num / den
    if power:
        ratio *= q ** (power * (k - 1))
    return ratio * step


def double_sum(n: int, q: float, pref, outer, inner) -> complex:
    """pref * sum_{l<=n} outer_l sum_{j<=l} inner_j, where outer and inner
    are the factors of their term ratios (see ``term_ratio``) and outer_l,
    inner_j the running products of the ratios from 1."""
    total = inner_total = 0.0 + 0.0j
    outer_t = inner_t = 1.0 + 0.0j
    # the inner sums are prefix sums of one series: each adds a term
    for ell in range(n + 1):
        if ell > 0:
            outer_t *= term_ratio(q, ell, outer)
            inner_t *= term_ratio(q, ell, inner)
        inner_total += inner_t
        total += outer_t * inner_total
    return pref * total


def first_point(mask, points):
    """The first of ``points`` where ``mask`` holds, or None; a scalar
    mask goes with a single point."""
    if isinstance(mask, np.ndarray):
        hits = np.flatnonzero(mask)
        return points[hits[0]] if hits.size else None
    return points if mask else None


def support_points(x):
    """A point x of the support (-1, 1) as a float, or a one-dimensional
    array of them as a float array; ValueError names the first point
    outside."""
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        at = first_point(~((-1.0 < x) & (x < 1.0)), x)
    else:
        x = float(x)
        at = None if -1.0 < x < 1.0 else x
    if at is not None:
        raise ValueError(f"weights live on -1 < x < 1 (got x = {at})")
    return x


def weight_density(x, numerator, denominator, bracket=1.0):
    """numerator / (2 pi sqrt(1 - x^2) denominator bracket), the density
    of a weight on the cut at x (at every point of a grid), as a real
    number.  PoleOnSupport where the denominator or the bracket vanishes
    and NonRealResult where the imaginary part is not negligible, each at
    the first offending point."""
    at = first_point((bracket == 0) | (denominator == 0), x)
    if at is not None:
        raise PoleOnSupport(f"weight denominator vanishes at x = {at}")
    value = numerator / (2 * math.pi * sqrt(1 - x * x) * denominator * bracket)
    residue = abs(value.imag) > 1e-10 * np.maximum(abs(value), 1e-300)
    at = first_point(residue, x)
    if at is not None:
        imag = first_point(residue, value.imag)
        raise NonRealResult(f"weight at x = {at} has imaginary residue {imag}")
    return value.real


def sqrt(value):
    """Real square root of a float or of every element of an array."""
    return np.sqrt(value) if isinstance(value, np.ndarray) else math.sqrt(value)


def _raise_first(errors):
    """Raise the failure of the first failing point of a grid, if any."""
    failing = np.flatnonzero(np.not_equal(errors, None))
    if failing.size:
        raise errors[failing[0]]


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping control for infinite sums and products."""

    rel_tol: float = 1e-12
    max_terms: int = 5000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesSpec:
    """Full description of an r-phi-s basic hypergeometric series."""

    # set on a spec built from arrays of points
    grid = False

    numerator: tuple
    denominator: tuple
    q: float
    argument: complex

    def __post_init__(self):
        try:
            numerator = tuple(complex(a) for a in self.numerator)
            denominator = tuple(complex(b) for b in self.denominator)
            argument = complex(self.argument)
        except TypeError:
            # complex() takes no array of points: a grid, held as one
            # complex array per slot, all of the same one-dimensional shape
            fields = (*self.numerator, *self.denominator, self.argument)
            arrays = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in fields))
            r, s = len(self.numerator), len(self.denominator)
            numerator, denominator, argument = tuple(arrays[:r]), tuple(arrays[r:r + s]), arrays[-1]
            object.__setattr__(self, "grid", True)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "q", _check_q(self.q))
        object.__setattr__(self, "argument", argument)

    @property
    def r(self) -> int:
        return len(self.numerator)

    @property
    def s(self) -> int:
        return len(self.denominator)

    def take(self, idx) -> "SeriesSpec":
        """The grid spec restricted to the points ``idx``."""
        return SeriesSpec(
            tuple(a[idx] for a in self.numerator),
            tuple(b[idx] for b in self.denominator),
            self.q,
            self.argument[idx],
        )


def _qpoch_cutoff(q: float) -> float:
    """x* = (4e-17 (1 - q))^(1/4): an infinite q-Pochhammer product
    multiplies its factors 1 - x while |x| >= x*, and ``_qpoch_log_tail``
    stands for the rest; the first term that tail leaves out,
    x^4 / (4 (1 - q^4)), is then at most 1e-17."""
    return (4e-17 * (1.0 - q)) ** 0.25


def _qpoch_log_tail(x, q: float):
    """log (x; q)_inf to third order in x, the first factor not multiplied
    in: -x/(1 - q) - x^2/(2 (1 - q^2)) - x^3/(3 (1 - q^3)) (Gasper and
    Rahman, Basic Hypergeometric Series, section 1.3); x is a number or
    an array."""
    c1, c2, c3 = 1.0 / (1.0 - q), 1.0 / (2.0 * (1.0 - q * q)), 1.0 / (3.0 * (1.0 - q**3))
    return -x * (c1 + x * (c2 + x * c3))


def qpoch(a, q, n=INFINITY) -> complex:
    """(a; q)_n for integer n (of either sign) or n = math.inf.

    The infinite product multiplies its factors 1 - a q^j while
    |a q^j| >= x* (``_qpoch_cutoff``) and ends in a third-order
    logarithmic tail, exp of ``_qpoch_log_tail`` at the first factor left
    out, whose first omitted term is at most 1e-17.  An array ``a`` gives
    the infinite product at every point, by the same rule.
    """
    q = _check_q(q)
    try:
        a = complex(a)
    except TypeError:  # an array of points
        if n != INFINITY:
            raise ValueError("grids of q-Pochhammer symbols need n = inf") from None
        return _assert_finite(_qpoch_inf_grid(a, q), "infinite q-Pochhammer product")
    if n == INFINITY:
        cutoff = _qpoch_cutoff(q)
        if not a.imag and math.isfinite(a.real):
            product, factor, last = _qpoch_factors(a.real, q, cutoff)
            # the complex loop's zero parts take signs of their own where a
            # factor vanished or the last one multiplied in was negative
            if product and last > 0.0:
                product *= math.exp(_qpoch_log_tail(factor, q))
                return _assert_finite(complex(product), "infinite q-Pochhammer product")
        product, factor, _ = _qpoch_factors(a, q, cutoff)
        product *= cmath.exp(_qpoch_log_tail(factor, q))
        return _assert_finite(product, "infinite q-Pochhammer product")
    n = int(n)
    if n >= 0:
        product = 1.0 + 0.0j
        factor = a
        for _ in range(n):
            product *= 1.0 - factor
            factor *= q
        return _assert_finite(product, "q-Pochhammer product")
    # Negative order: (a; q)_{-m} = 1 / prod_{j=1..m} (1 - a q^(-j)).
    product = 1.0 + 0.0j
    for j in range(1, -n + 1):
        factor = 1.0 - a * q ** (-j)
        if factor == 0:
            raise ZeroDivisor(f"(a; q)_{n} hits the zero factor 1 - a q^-{j}")
        product *= factor
    return _assert_finite(1.0 / product, "negative-order q-Pochhammer")


def _qpoch_factors(a, q, cutoff):
    """The factors 1 - a q^j of (a; q)_inf multiplied while |a q^j| >=
    cutoff, in the arithmetic of a, a float or a complex number: (their
    product, the first a q^j left out, the last factor multiplied in)."""
    product = last = 1.0
    factor = a  # a * q^(j-1), starting at j = 1
    while abs(factor) >= cutoff:
        last = 1.0 - factor
        product *= last
        factor *= q
    return product, factor, last


def _qpoch_inf_grid(a, q):
    """(a; q)_inf at every point of the array ``a``, by the scalar rule:
    each point multiplies in its own factors until they fall below the
    cutoff, then takes the same tail.  The live points
    advance alone and leave the arrays once their factor is small."""
    factor = np.array(a, dtype=complex)
    product = np.ones(factor.shape, dtype=complex)
    cutoff = _qpoch_cutoff(q)
    idx = np.flatnonzero(np.abs(factor) >= cutoff)
    live_factor, live_product = factor[idx], product[idx]
    while idx.size:
        # not in place: numpy rounds an in-place product of one element
        # apart from the same product in a longer array
        live_product = live_product * (1.0 - live_factor)
        live_factor = live_factor * q
        live = np.abs(live_factor) >= cutoff
        if not live.all():
            done = idx[~live]
            product[done], factor[done] = live_product[~live], live_factor[~live]
            idx, live_factor, live_product = idx[live], live_factor[live], live_product[live]
    return product * np.exp(_qpoch_log_tail(factor, q))


def qpoch_multi(params, q, n=INFINITY) -> complex:
    """Product of (a_k; q)_n over a parameter list (empty list gives 1);
    array parameters give the product at every point."""
    product = 1.0 + 0.0j
    for a in params:
        product *= qpoch(a, q, n)
    return _assert_finite(product, "q-Pochhammer product list")


def termination_order(p, q, max_order: int = 5000):
    """Smallest m >= 0 with p = q^(-m) to relative tolerance, else None.

    The nearest admissible m wins; ties break toward the smaller m.
    Overflow where p is not finite (a parameter past the double range).
    """
    p = complex(p)
    if not cmath.isfinite(p):
        raise Overflow(f"series parameter {p} is not finite")
    if p.real < _TERMINATION_REAL_FLOOR or abs(p.imag) > TERMINATION_REL_TOL * abs(p):
        return None
    estimate = -math.log(abs(p)) / math.log(q)
    best = None
    best_err = None
    for m in sorted({math.floor(estimate), math.ceil(estimate)}):
        if m < 0 or m > max_order:
            continue
        try:
            target = q ** (-m)
        except OverflowError:  # q^-m past the double range: no match, as on a grid
            continue
        err = abs(p - target)
        if err < TERMINATION_REL_TOL * target:
            if best is None or err < best_err or (err == best_err and m < best):
                best, best_err = m, err
    return best


def _termination_orders(p, q, max_order):
    """``termination_order`` at every point of the array ``p``; -1 where
    the parameter does not terminate."""
    mag = np.abs(p)
    estimate = -np.log(mag) / math.log(q)
    ok = (p != 0) & ~(np.abs(p.imag) > TERMINATION_REL_TOL * mag) & (p.real > 0)
    best = np.full(p.shape, -1.0)
    best_err = np.full(p.shape, np.inf)
    # floor before ceil, and only a strictly nearer ceil replaces it, so
    # ties break toward the smaller m as in the scalar rule
    for m in (np.floor(estimate), np.ceil(estimate)):
        target = q ** -m
        err = np.abs(p - target)
        hit = (ok & (m >= 0) & (m <= max_order) & (err < TERMINATION_REL_TOL * target)
               & (err < best_err))
        best = np.where(hit, m, best)
        best_err = np.where(hit, err, best_err)
    return best.astype(int)


def series_termination(spec: SeriesSpec, max_order: int = 5000):
    """Termination index of the series, or None if it does not terminate.

    For a grid spec: the index at every point, -1 where the series does
    not terminate.
    """
    if spec.grid:
        stop = np.full(spec.argument.shape, -1)
        with np.errstate(all="ignore"):
            for p in spec.numerator:
                m = _termination_orders(p, spec.q, max_order)
                stop = np.where((m >= 0) & ((stop < 0) | (m < stop)), m, stop)
        return stop
    orders = [termination_order(p, spec.q, max_order) for p in spec.numerator]
    orders = [m for m in orders if m is not None]
    return min(orders) if orders else None


def _phi_core(spec: SeriesSpec, policy: TruncationPolicy):
    """Sum the series; returns (value, largest absolute term, tail bound).

    The largest term measures cancellation (a sum far below it has lost
    the corresponding digits); the tail bound estimates the truncation
    remainder from the final term and the observed term ratio, so
    callers can rank alternative representations by total error.

    A grid spec is summed at every point at once, and a fourth element
    holds each point's failure (None where the point summed), so that
    one failing point does not stop its neighbours.
    """
    if spec.grid:
        with np.errstate(all="ignore"):
            return _phi_core_grid(spec, policy)
    q = spec.q
    z = spec.argument
    numerator, denominator = spec.numerator, spec.denominator
    max_terms = policy.max_terms
    # at most max_terms: a terminating series ends within the term budget
    stop = series_termination(spec, max_terms)
    if stop is not None:
        for b in denominator:
            m = termination_order(b, q, max_terms)
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
    summed = None
    reals = _finite_reals((*numerator, *denominator, z))
    if reals is not None:
        # floats keep the complex loop's bits while every term is finite
        # and nonzero; a term of 0, inf or nan may come from a product past
        # the double range, where that loop's zero imaginary parts turn to
        # nan, so such a sum is summed again by the complex loop, which
        # names its own first term past the range
        try:
            summed = _phi_terms(reals[:spec.r], reals[spec.r:-1], reals[-1], q, stop, policy)
        except Overflow:
            pass
        else:
            if not 0.0 < abs(summed[3]) < INFINITY:
                summed = None
    if summed is None:
        summed = _phi_terms(numerator, denominator, z, q, stop, policy)
    total, weighted, tail, _, exceeded = summed
    if exceeded:
        raise MaxTermsExceeded("series did not settle within %d terms" % exceeded)
    return _assert_finite(complex(total), "series sum"), weighted, tail


def _finite_reals(values):
    """The real parts of ``values`` where each is a finite real number
    (an imaginary part of -0.0 counts as 0), else None."""
    for v in values:
        if v.imag or not math.isfinite(v.real):
            return None
    return [v.real for v in values]


def _phi_terms(numerator, denominator, z, q, stop, policy):
    """The summing loop of ``_phi_core``, in the arithmetic of the
    parameters and the argument: floats or complex numbers.  Returns
    (sum, weighted term total, tail bound, last term, k), where k is the
    term count at which the budget ran out, or 0."""
    rel_tol, max_terms = policy.rel_tol, policy.max_terms
    extra = 1 + len(denominator) - len(numerator)
    # a complex operand takes 1.0 as 1 + 0j: complex sums keep their bits
    term = total = 1.0
    largest = 1.0
    weighted = 1.0  # sum of (k+1) |T_k|, driving the rounding estimate
    small_run = 0
    ratio_mag = 0.0
    # |total| <= weighted, 1e-3 largest <= weighted and the tail factor is
    # at least 1, so a term of size > big * weighted is not small; before
    # term 800 and the budget, such a term needs no other test.  A term of
    # inf or nan fails the comparison and meets the full test's range check
    big = 2.0 * rel_tol
    quick_until = min(800, max_terms)
    qk = 1.0  # q^k
    k = 0
    # comparisons stand in for max and min below: they pick the same
    # operand, a nan included, without a builtin call per term
    while stop is None or k < stop:
        num = 1.0
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
        k += 1
        qk *= q
        if stop is None:
            if size > big * weighted and k < quick_until:
                small_run = 0
                continue
            # geometric tail-aware smallness, the tail factor in [1, 1e3]
            # (below 0.999 the ratio gives under 1e3); three consecutive
            # small terms guard against alternating near-cancellation
            ratio_mag = abs(factor)
            tail_factor = ratio_mag / (1.0 - ratio_mag) if ratio_mag < 0.999 else 1e3
            if 1.0 > tail_factor:
                tail_factor = 1.0
            floor = 1e-3 * largest
            magnitude = abs(total)
            if size * tail_factor < rel_tol * (floor if floor > magnitude else magnitude):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
                if not size < INFINITY:  # inf or nan: the sum can never settle
                    raise Overflow("series term %d left the double-precision range" % k)
            if k >= max_terms or (k > 800 and ratio_mag > 0.995):
                return total, weighted, None, term, min(k, max_terms)
    if stop is not None:
        tail = 0.0
    else:
        tail_factor = ratio_mag / (1.0 - ratio_mag) if ratio_mag < 0.999 else 1e3
        tail = abs(term) * max(tail_factor, 1.0)
    return total, weighted, tail, term, 0


def _phi_core_grid(spec: SeriesSpec, policy: TruncationPolicy):
    """``_phi_core`` at every point of a grid spec.

    All points advance one term per pass; each applies the scalar
    stopping rules on its own and leaves the pass once it terminates,
    settles or fails, so the work follows the slowest point still live.
    A pass checks only the exits that can take a point in it: ending
    where some live point terminates, settling where some does not, the
    term budget once k > 800 or k >= max_terms.  The live arrays shrink
    only when a point left.
    """
    q = spec.q
    size = spec.argument.size
    extra = 1 + spec.s - spec.r
    rel_tol, max_terms = policy.rel_tol, policy.max_terms
    errors = np.full(size, None, dtype=object)
    stop = series_termination(spec, max_terms)
    terminating = stop >= 0
    for b in spec.denominator:
        m = _termination_orders(b, q, max_terms)
        for i in np.flatnonzero(terminating & (m >= 0) & (m < stop)):
            errors[i] = ZeroDivisor(
                "denominator parameter equals q^-%d before the series terminates" % m[i]
            )
    if spec.r > spec.s + 1:
        errors[~terminating] = DivergentSeries(
            "nonterminating series with r > s+1 diverges for every argument"
        )
    elif spec.r == spec.s + 1:
        errors[~terminating & (np.abs(spec.argument) >= 1.0)] = DivergentSeries(
            "argument modulus >= 1 with r = s+1; use a continuation"
        )
    out_total = np.zeros(size, dtype=complex)
    out_weighted = np.zeros(size)
    out_tail = np.zeros(size)
    idx = np.flatnonzero(np.equal(errors, None))
    r, s, count = spec.r, spec.s, idx.size
    live = [
        *(a[idx] for a in spec.numerator),
        *(b[idx] for b in spec.denominator),
        spec.argument[idx],
        stop[idx],
        np.ones(count, dtype=complex),  # term
        np.ones(count, dtype=complex),  # total
        np.ones(count),  # largest
        np.ones(count),  # weighted
        np.zeros(count, dtype=int),  # small_run
    ]
    qk = 1.0
    k = 0
    while idx.size:
        nums, dens = live[:r], live[r:r + s]
        z, st, term, total, largest, weighted, small_run = live[r + s:]
        ending = st >= 0
        ends, opens = ending.any(), not ending.all()
        # passes update the live arrays in place until a point leaves.  A
        # point that ends stays in them for the pass that finds it: numpy
        # rounds an in-place product of one element apart, so the length
        # of the arrays can move the last bit of a live point
        while True:
            gone = st == k if ends else np.zeros(idx.size, dtype=bool)
            if ends and gone.any():  # finished
                out_total[idx[gone]] = total[gone]
                out_weighted[idx[gone]] = weighted[gone]
                if gone.all():
                    break
            num = np.ones(idx.size, dtype=complex)
            for a in nums:
                num *= 1.0 - a * qk
            den = 1.0 - q * qk
            for b in dens:
                den = den * (1.0 - b * qk)
            factor = num / den * z
            if extra:
                try:  # as in the scalar loop
                    factor *= (-qk)**extra
                except (ZeroDivisionError, OverflowError):
                    errors[idx[~gone]] = Overflow("q^k underflow with negative exponent weight")
                    gone[:] = True
                    break
            term *= factor
            total += term
            size_term = np.abs(term)
            np.fmax(largest, size_term, out=largest)
            weighted += (k + 2.0) * size_term
            k += 1
            qk *= q
            if not np.all(den):  # den is a float for a series without denominators
                vanished = (den == 0) & ~gone
                for i in idx[vanished]:
                    errors[i] = ZeroDivisor("series denominator vanished at term %d" % k)
                gone |= vanished
            if opens:
                ratio_mag = np.abs(factor)
                # in [1, 1e3] as in the scalar loop: np.where leaves no nan
                tail_factor = np.maximum(
                    np.where(ratio_mag < 0.999, ratio_mag / (1.0 - ratio_mag), 1e3), 1.0)
                small = size_term * tail_factor < rel_tol * np.maximum(
                    np.abs(total), 1e-3 * largest
                )
                small_run += 1
                small_run *= small
                open_ended = ~ending & ~gone
                settled = open_ended & (small_run >= 3)
                if settled.any():
                    out_total[idx[settled]] = total[settled]
                    out_weighted[idx[settled]] = weighted[settled]
                    out_tail[idx[settled]] = size_term[settled] * tail_factor[settled]
                    gone |= settled
                # as in the scalar loop: a term of inf or nan can never
                # settle (one reduction per pass finds it, as nan propagates)
                if not np.maximum.reduce(size_term) < np.inf:
                    blown = open_ended & ~np.isfinite(size_term)
                    errors[idx[blown]] = Overflow(
                        "series term %d left the double-precision range" % k)
                    gone |= blown
                if k > 800 or k >= max_terms:
                    over = open_ended & ~gone & (
                        (k >= max_terms) | ((k > 800) & (ratio_mag > 0.995))
                    )
                    if over.any():
                        errors[idx[over]] = MaxTermsExceeded(
                            "series did not settle within %d terms" % min(k, max_terms)
                        )
                    gone |= over
            if gone.any():
                break
        keep = ~gone
        idx = idx[keep]
        live = [v[keep] for v in live]
    summed = np.equal(errors, None)
    errors[summed & ~np.isfinite(out_total)] = Overflow(
        "series sum left the double-precision range"
    )
    return out_total, out_weighted, out_tail, errors


def _series_error(weighted, tail) -> float:
    """Absolute error estimate of a summed series.

    ``weighted`` is the (k+1)-weighted sum of term magnitudes, modelling
    rounding accumulated along the multiplicative term recursion.
    """
    return tail + 4e-16 * weighted


def phi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Sum the basic hypergeometric series described by ``spec``.

    Terminating series are summed exactly (m+1 terms); nonterminating
    ones stop once three consecutive terms (weighted by the geometric
    tail estimate) fall below rel_tol times the partial sum.  A grid
    spec gives the sum at every point, or the first failing point's
    error.
    """
    result = _phi_core(spec, policy)
    if spec.grid:
        _raise_first(result[3])
    return result[0]


def _phi(numerator, denominator, q, argument, policy=DEFAULT_POLICY) -> complex:
    return phi(SeriesSpec(tuple(numerator), tuple(denominator), q, argument), policy)


def _balanced_spec(a, b, c, d, e, q) -> SeriesSpec:
    abc = a * b * c
    if (abc == 0).any() if isinstance(abc, np.ndarray) else abc == 0:
        raise ZeroDivisor("balanced series needs nonzero numerator parameters")
    return SeriesSpec((a, b, c), (d, e), q, d * e / abc)


# ---------------------------------------------------------------------------
# Representations.  Each rewrite of a series is written once, as its
# prefactor (numerator and denominator parameter lists of infinite
# q-Pochhammer products) and the parameters of the series it sums; the
# scalar and the grid evaluators share these.
# ---------------------------------------------------------------------------


def _phi32_candidates(spec: SeriesSpec):
    """The representations of the balanced 3-phi-2 ``spec``, in trial
    order before ranking: (usable, series argument, kind, build), where
    build() returns the (prefactor or None, SeriesSpec) representation.
    "direct" is the series itself; every numerator parameter (nonzero,
    by ``_balanced_spec``) pivots both continuations."""
    nums, (d, e), w, q = spec.numerator, spec.denominator, spec.argument, spec.q
    candidates = [(abs(w) < 1.0 - 1e-12, w, "direct", lambda: (None, spec))]
    for i, p in enumerate(nums):
        rest = [nums[j] for j in range(3) if j != i]
        for dd, ee in ((d, e), (e, d)):
            arg = ee / p
            candidates.append((abs(arg) < 1.0 - 1e-12, arg, "pivot-up",
                               partial(_phi32_rep, "pivot-up", p, rest, dd, ee, w, arg, q)))
        candidates.append((abs(p) < 1.0 - 1e-12, p, "pivot-arg",
                           partial(_phi32_rep, "pivot-arg", p, rest, d, e, w, p, q)))
    return candidates


def _phi32_rep(kind, p, rest, d, e, w, arg, q):
    """Prefactor and series of a continuation of the balanced series
    pivoting on p; its argument ``arg`` is e/p ("pivot-up") or p
    ("pivot-arg")."""
    o1, o2 = rest
    if kind == "pivot-up":
        return ([e / p, d * e / (o1 * o2)], [e, w]), SeriesSpec(
            (p, d / o1, d / o2), (d, d * e / (o1 * o2)), q, arg
        )
    de = d * e
    return ([p, de / (o1 * p), de / (o2 * p)], [d, e, w]), SeriesSpec(
        (d / p, e / p, w), (de / (o1 * p), de / (o2 * p)), q, arg
    )


def _phi21_pivot(p, other, c, z, q):
    """Continuation of 2-phi-1(p, other; c; z) moving p into the argument."""
    return ([p, other * z], [c, z]), SeriesSpec((c / p, z), (other * z,), q, p)


_VANISHED_PREFACTOR = "prefactor's denominator q-Pochhammer product vanished"


def _prefactor(pref, q):
    """The prefactor of a scalar representation from its parameter lists
    (numerator, denominator): ZeroDivisor where the denominator's product
    of infinite q-Pochhammer symbols is 0."""
    numerator, denominator = qpoch_multi(pref[0], q), qpoch_multi(pref[1], q)
    if denominator == 0:
        raise ZeroDivisor(_VANISHED_PREFACTOR)
    return numerator / denominator


def _rep_value(pref, spec, policy):
    """Prefactor times summed series of a scalar representation."""
    return _prefactor(pref, spec.q) * phi(spec, policy)


def phi32(a, b, c, d, e, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The balanced 3-phi-2 with numerator (a, b, c), denominator (d, e)
    and argument de/(abc), continued analytically when that argument
    leaves the unit disk.

    A terminating series is summed directly.  Otherwise both standard
    continuations are tried with every assignment of the numerator
    parameters to the distinguished slot, ranked by ``_best_of`` with
    the transformed-argument moduli as keys; a candidate whose series
    collapses by cancellation is passed over in favor of a
    better-conditioned one, since the candidates agree analytically but
    not in double precision.  Array parameters give the series at every
    point.
    """
    spec = _balanced_spec(a, b, c, d, e, q)
    stop = series_termination(spec, policy.max_terms)
    if not spec.grid:
        if stop is not None:
            return phi(spec, policy)
        candidates, size = _phi32_candidates(spec), None
    else:
        values = np.empty(stop.size, dtype=complex)
        ends, ranked = np.flatnonzero(stop >= 0), np.flatnonzero(stop < 0)
        if ends.size:
            values[ends] = phi(spec.take(ends), policy)
        if not ranked.size:
            return values
        spec, size = spec.take(ranked), ranked.size
        with np.errstate(all="ignore"):
            candidates = _phi32_candidates(spec)
    w = spec.argument
    found = _best_of(
        [(usable, build) for usable, _, _, build in candidates], spec.q, policy, size,
        keys=[abs(arg) for _, arg, _, _ in candidates],
        failure=lambda at: "no convergent representation of the balanced series at argument "
        f"{complex(w if at is None else w[at])!r}",
    )
    if size is None:
        return found
    values[ranked] = found
    return values


# ---------------------------------------------------------------------------
# Error-aware evaluators for the low-order series the limit families
# are built from.  Each tries the direct sum plus the standard rewrites
# and keeps the representation with the smallest estimated error; the
# rewrites shift a large argument into a large (harmless) denominator
# parameter.
# ---------------------------------------------------------------------------

# accept a representation outright below this relative error estimate
_TARGET_REL_ERROR = 5e-13


def _best_of(candidates, q, policy, size=None, keys=None, failure=None):
    """Try candidates (usable, build) in order, where build() returns a
    (prefactor or None, SeriesSpec) representation; return the first
    value whose relative error estimate meets the target, else the
    overall best.  ``size`` is the number of grid points (None for a
    scalar), and each grid point ranks its own usable candidates.

    A candidate's relative error is its series' error estimate over
    |series| (a prefactor scales both alike); a value that leaves the
    double range fails its candidate.  ``keys``, one per candidate, only
    sets the order: by increasing key (stable).  Where no candidate
    serves, NoConvergentRepresentation says ``failure(i)`` for the point
    i (None for a scalar), or that no usable representation was found.
    """
    if size is not None:
        with np.errstate(all="ignore"):
            found, missing, last_error = _rank_grid(candidates, size, q, policy, keys)
        if missing.size:
            raise _no_representation(failure, missing[0], last_error[missing[0]])
        return found
    if keys is not None:
        order = sorted((i for i, c in enumerate(candidates) if c[0]), key=keys.__getitem__)
        candidates = [candidates[i] for i in order]
    best = None
    last_error = None
    for usable, build in candidates:
        if not usable:
            continue
        try:
            pref, spec = build()
            if pref is not None:
                pref = _prefactor(pref, q)
            series, weighted, tail = _phi_core(spec, policy)
            value = series if pref is None else _assert_finite(pref * series, "representation")
        except (ZeroDivisor, Overflow, DivergentSeries, MaxTermsExceeded) as exc:
            last_error = exc
            continue
        rel = _series_error(weighted, tail) / max(abs(series), 1e-300)
        if rel <= _TARGET_REL_ERROR:
            return value
        if best is None or rel < best[0]:
            best = (rel, value)
    if best is not None:
        return best[1]
    raise _no_representation(failure, None, last_error)


def _no_representation(failure, at, last_error):
    """The NoConvergentRepresentation of point ``at`` (None for a scalar),
    named by ``failure`` when given, with the point's last failure."""
    text = failure(at) if failure else "no usable representation found"
    note = f" (last failure: {last_error})" if last_error else ""
    return NoConvergentRepresentation(text + note)


def _rank_grid(candidates, size, q, policy, keys=None):
    """``_best_of``'s ranking loop over a grid.

    Every point visits its usable candidates in its own order and keeps
    what the scalar loop keeps; a candidate is summed only at the points
    that reach it.  The candidates of one rank are summed in one array
    pass per series shape and then taken in slot order.  Returns
    (values, indices of points with no usable result, last failure per
    point).
    """
    count = len(candidates)
    usable = np.array([np.broadcast_to(u, (size,)) for u, _ in candidates])
    if keys is None:
        order = np.broadcast_to(np.arange(count)[:, None], (count, size))
    else:
        order = np.argsort(np.where(usable, np.array(keys), np.inf), axis=0, kind="stable")
        usable = np.take_along_axis(usable, order, axis=0)
    values = np.full(size, np.nan, dtype=complex)
    resolved = np.zeros(size, dtype=bool)
    have_best = np.zeros(size, dtype=bool)
    best_rel = np.full(size, np.inf)
    last_error = np.full(size, None, dtype=object)
    for rank in range(count):
        waiting = usable[rank] & ~resolved
        reps = []
        for slot in sorted(set(order[rank][waiting].tolist())):
            pts = np.flatnonzero(waiting & (order[rank] == slot))
            pref, spec = candidates[slot][1]()
            reps.append((pts, pref, spec.take(pts)))
        sums = _grid_sums([spec for _, _, spec in reps], policy)
        for (pts, pref, _), summed in zip(reps, sums):
            value, rel, errors = _grid_candidate(pref, pts, summed, q)
            ok = np.equal(errors, None)
            last_error[pts[~ok]] = errors[~ok]
            win = ok & (rel <= _TARGET_REL_ERROR)
            values[pts[win]] = value[win]
            resolved[pts[win]] = True
            better = ok & ~win & (~have_best[pts] | (rel < best_rel[pts]))
            values[pts[better]] = value[better]
            best_rel[pts[better]] = rel[better]
            have_best[pts[better]] = True
    return values, np.flatnonzero(~resolved & ~have_best), last_error


def _grid_sums(specs, policy):
    """``_phi_core`` of each grid spec, in one call for all the specs of
    one series shape (r, s): their points are joined, summed at once and
    split back.  A point's sum is the same either way, but for the last
    bits of a point that one of the calls sums alone for some terms
    (numpy rounds an in-place product of one element apart)."""
    sums = [None] * len(specs)
    shapes = {}
    for i, spec in enumerate(specs):
        shapes.setdefault((spec.r, spec.s), []).append(i)
    for members in shapes.values():
        parts = [specs[i] for i in members]
        joined = parts[0] if len(parts) == 1 else SeriesSpec(
            tuple(map(np.concatenate, zip(*(p.numerator for p in parts)))),
            tuple(map(np.concatenate, zip(*(p.denominator for p in parts)))),
            parts[0].q,
            np.concatenate([p.argument for p in parts]),
        )
        bounds = np.cumsum([p.argument.size for p in parts])[:-1]
        pieces = [np.split(v, bounds) for v in _phi_core(joined, policy)]
        for j, i in enumerate(members):
            sums[i] = tuple(v[j] for v in pieces)
    return sums


def _grid_candidate(pref, pts, summed, q):
    """One representation at the grid points ``pts``, from its prefactor
    and its summed series (``_phi_core``'s result there): (values,
    relative error estimates, per-point failures) by ``_best_of``'s rule."""
    if pref is None:
        errors = np.full(pts.size, None, dtype=object)
    else:
        factor, errors = _grid_prefactor(pref, pts, q)
    series, weighted, tail, series_errors = summed
    errors = np.where(np.equal(errors, None), series_errors, errors)
    value = series if pref is None else factor * series
    errors[np.equal(errors, None) & ~np.isfinite(value)] = Overflow(
        "representation left the double-precision range")
    rel = _series_error(weighted, tail) / np.maximum(np.abs(series), 1e-300)
    return value, rel, errors


def _grid_prefactor(pref, pts, q):
    """Prefactor of a grid representation at ``pts``: (value, per-point
    failures).  A point fails as the scalar ``_prefactor`` fails, list by
    list: at a factor (a ``qpoch``) past the double range, else at the
    list's product past it; then where the denominator product is 0."""
    errors = np.full(pts.size, None, dtype=object)
    products = []
    for params in pref:
        product = np.ones(pts.size, dtype=complex)
        lost = np.zeros(pts.size, dtype=bool)
        for a in params:
            a = a[pts] if isinstance(a, np.ndarray) else np.full(pts.size, a, dtype=complex)
            factor = _qpoch_inf_grid(a, q)
            lost |= ~np.isfinite(factor)
            product *= factor
        for failed, context in ((lost, "infinite q-Pochhammer product"),
                                (~np.isfinite(product), "q-Pochhammer product list")):
            errors[failed & np.equal(errors, None)] = Overflow(
                f"{context} left the double-precision range")
        products.append(product)
    errors[np.equal(errors, None) & (products[1] == 0)] = ZeroDivisor(_VANISHED_PREFACTOR)
    return products[0] / products[1], errors


def phi01(c, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """0-phi-1 with denominator c and argument w (entire in w).  Array
    arguments give it at every point."""
    return phi(SeriesSpec((), (c,), q, w), policy)


def phi11(a, c, z, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """1-phi-1, evaluated through whichever of the direct sum, the
    argument/denominator swap, or the 0-phi-1 reduction carries the
    smallest error estimate.  Array arguments give it at every point."""
    try:
        a, c, z = complex(a), complex(c), complex(z)
        size = None
    except TypeError:  # arrays of points
        size = np.broadcast(a, c, z).size
    candidates = [
        (True, lambda: (None, SeriesSpec((a,), (c,), q, z))),
        # valid for c != 0: moves the argument into the denominator slot
        (c != 0, lambda: (([z], [c]), SeriesSpec((a * z / c,), (z,), q, c))),
        # c = 0 reduction: (z)_inf * 0phi1(-; z; a z)
        (c == 0, lambda: (([z], []), SeriesSpec((), (z,), q, a * z))),
    ]
    return _best_of(candidates, q, policy, size)


def phi21(a, b, c, z, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """2-phi-1 with analytic continuation past |z| = 1.

    Continuation moves one numerator parameter into the argument slot;
    both assignments are candidates and the smallest estimated error
    wins.  Array arguments give it at every point.
    """
    try:
        a, b, c, z = complex(a), complex(b), complex(c), complex(z)
        size = None
    except TypeError:  # arrays of points
        size = np.broadcast(a, b, c, z).size
    spec = SeriesSpec((a, b), (c,), q, z)
    stop = series_termination(spec, policy.max_terms)
    terminates = stop >= 0 if spec.grid else stop is not None
    candidates = [(terminates | (abs(z) < 1 - 1e-12), lambda: (None, spec))]
    for p, other in ((b, a), (a, b)):
        candidates.append(((p != 0) & (abs(p) < 1 - 1e-12),
                           lambda p=p, other=other: _phi21_pivot(p, other, c, z, q)))
    return _best_of(candidates, q, policy, size)


def phi22_balanced(a1, a2, b1, b2, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """2-phi-2 satisfying the balance a1 a2 w = b1 b2.

    Alongside the direct sum (entire in w but prone to cancellation at
    small values), the numerator-pivot rewrite

        [(p, w)_inf / ((b1, b2))_inf] * 2phi1(b1/p, b2/p; w; q, p)

    is tried for each numerator parameter p with |p| < 1.  The rewrite
    agrees with the direct sum on |w| < 1 and both sides are meromorphic
    in w with matching pole structure, so it is a global identity; other
    textbook reductions of this shape fail off their derivation domain
    and are deliberately not used.
    """
    a1, a2, b1, b2, w = (complex(v) for v in (a1, a2, b1, b2, w))
    if abs(a1 * a2 * w - b1 * b2) > 1e-9 * max(abs(b1 * b2), 1e-30):
        raise ValueError("arguments do not satisfy the balance condition")

    def pivoted(p):
        return lambda: (([p, w], [b1, b2]), SeriesSpec((b1 / p, b2 / p), (w,), q, p))

    candidates = [(True, lambda: (None, SeriesSpec((a1, a2), (b1, b2), q, w)))]
    for p in (a1, a2):
        candidates.append((p != 0 and abs(p) < 1 - 1e-12, pivoted(p)))
    return _best_of(candidates, q, policy)


def phi_r0_terminating(numerator, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """r-phi-0 with the given numerator parameters, which only exists as
    a terminating sum."""
    spec = SeriesSpec(tuple(numerator), (), q, w)
    if series_termination(spec, policy.max_terms) is None:
        raise DivergentSeries(f"{spec.r}-phi-0 diverges unless a parameter is q^-m")
    return phi(spec, policy)


# ---------------------------------------------------------------------------
# Transformation identities.  Each entry evaluates both sides independently;
# the caller asserts closeness.  Draw boxes hold parameters inside the
# documented convergence domain of both sides.
# ---------------------------------------------------------------------------


def _t_cont_a(q, policy, a, b, c, d, e):
    spec = _balanced_spec(a, b, c, d, e, q)
    rhs = _rep_value(*_phi32_rep("pivot-up", a, (b, c), d, e, spec.argument, e / a, q), policy)
    return phi(spec, policy), rhs


def _t_cont_b(q, policy, a, b, c, d, e):
    spec = _balanced_spec(a, b, c, d, e, q)
    rhs = _rep_value(*_phi32_rep("pivot-arg", b, (a, c), d, e, spec.argument, b, q), policy)
    return phi(spec, policy), rhs


def _t_heine(q, policy, a, b, c, z):
    lhs = _phi((a, b), (c,), q, z, policy)
    return lhs, _rep_value(*_phi21_pivot(b, a, c, z, q), policy)


def _t_p21_p22(q, policy, a, b, c, z):
    lhs = _phi((a, b), (c,), q, z, policy)
    rhs = qpoch(a * z, q) / qpoch(z, q) * _phi(
        (a, c / b), (c, a * z), q, b * z, policy
    )
    return lhs, rhs


def _t_p21_p12(q, policy, a, c, z):
    lhs = qpoch(z, q) / qpoch(a * z, q) * _phi((a, 0.0), (c,), q, z, policy)
    rhs = _phi((a,), (c, a * z), q, c * z, policy)
    return lhs, rhs


def _t_p21_p11(q, policy, a, c, z):
    lhs = qpoch(z, q) / qpoch(a * z, q) * _phi((a, 0.0), (c,), q, z, policy)
    rhs = _phi((z,), (a * z,), q, c, policy) / qpoch(c, q)
    return lhs, rhs


def _t_p11_swap(q, policy, b, c, z):
    lhs = _phi((c / b,), (c,), q, b * z, policy)
    rhs = qpoch(b * z, q) / qpoch(c, q) * _phi((z,), (b * z,), q, c, policy)
    return lhs, rhs


def _t_p11_zero_swap(q, policy, c, z):
    lhs = _phi((0.0,), (c,), q, z, policy)
    rhs = qpoch(z, q) / qpoch(c, q) * _phi((0.0,), (z,), q, c, policy)
    return lhs, rhs


def _t_p01_p11(q, policy, c, z):
    lhs = _phi((), (c,), q, c * z, policy)
    rhs = _phi((z,), (0.0,), q, c, policy) / qpoch(c, q)
    return lhs, rhs


def _t_qbinomial(q, policy, a, z):
    lhs = _phi((a,), (), q, z, policy)
    rhs = qpoch(a * z, q) / qpoch(z, q)
    return lhs, rhs


# Each identity's draw box: its parameters, in draw order, each uniform
# on (lo, hi), and for the balanced pair the condition a draw must meet
_HEINE_BOX = (("a", 0.1, 0.9), ("b", 0.1, 0.85), ("c", 0.1, 0.9), ("z", 0.05, 0.85))
_P21_BOX = (("a", 0.1, 0.9), ("c", 0.1, 0.9), ("z", 0.05, 0.85))
_TWO_BOX = (("c", 0.1, 0.9), ("z", 0.05, 0.9))

TRANSFORMS = {
    "cont-a": (_t_cont_a, (("a", 1.2, 2.5), ("b", 0.1, 0.9), ("c", 0.1, 0.9), ("d", 0.1, 0.9),
                           ("e", 0.1, 0.9)),
               lambda a, b, c, d, e: abs(d * e / (a * b * c)) < 0.8 and abs(e / a) < 0.8),
    "cont-b": (_t_cont_b, (("a", 0.3, 1.6), ("c", 0.3, 1.6), ("b", 0.1, 0.85), ("d", 0.1, 0.9),
                           ("e", 0.1, 0.9)),
               lambda a, b, c, d, e: abs(d * e / (a * b * c)) < 0.8),
    "heine": (_t_heine, _HEINE_BOX, None),
    "p21-p22": (_t_p21_p22, _HEINE_BOX, None),
    "p21-p12": (_t_p21_p12, _P21_BOX, None),
    "p21-p11": (_t_p21_p11, _P21_BOX, None),
    "p11-swap": (_t_p11_swap, (("b", 0.1, 0.9), ("c", 0.1, 0.9), ("z", 0.05, 0.9)), None),
    "p11-zero-swap": (_t_p11_zero_swap, _TWO_BOX, None),
    "p01-p11": (_t_p01_p11, _TWO_BOX, None),
    "q-binomial": (_t_qbinomial, (("a", 0.1, 0.9), ("z", 0.05, 0.85)), None),
}


def transform_ids():
    return tuple(TRANSFORMS)


def transform_check(transform_id: str, q, policy: TruncationPolicy = DEFAULT_POLICY, **params):
    """Evaluate both sides of the named identity; returns (lhs, rhs)."""
    try:
        evaluator = TRANSFORMS[transform_id][0]
    except KeyError:
        raise KeyError(f"unknown transform id {transform_id!r}") from None
    return evaluator(_check_q(q), policy, **params)


def sample_transform_inputs(transform_id: str, rng, q):
    """Draw one in-domain parameter set for the named identity from its
    box (q is checked; no box depends on it)."""
    _, box, accept = TRANSFORMS[transform_id]
    _check_q(q)
    while True:
        params = {name: lo + (hi - lo) * rng.random() for name, lo, hi in box}
        if accept is None or accept(**params):
            return params
