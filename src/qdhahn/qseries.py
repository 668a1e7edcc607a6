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
call at its first failing point would raise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def double_range(evaluate, context: str) -> complex:
    """evaluate(), with Python's bare float overflow and division by zero
    raised as Overflow and ZeroDivisor, and a non-finite value (e.g. an
    underflowed q**(n*n) times an infinite sum) as Overflow."""
    try:
        value = evaluate()
    except OverflowError:
        raise Overflow(f"{context} left the double-precision range") from None
    except ZeroDivisionError:
        raise ZeroDivisor(f"{context} divided by a vanished or underflowed term") from None
    return _assert_finite(value, context)


def double_sum(n: int, terms) -> complex:
    """pref * sum_{l<=n} outer_l sum_{j<=l} inner_j, where ``terms()``
    builds (pref, outer_ratio, inner_ratio) and outer_l, inner_j are the
    running products of the ratios from 1; raises as ``double_range``."""

    def evaluate():
        pref, outer_ratio, inner_ratio = terms()
        total = inner_total = 0.0 + 0.0j
        outer_t = inner_t = 1.0 + 0.0j
        # the inner sums are prefix sums of one series: each adds a term
        for ell in range(n + 1):
            if ell > 0:
                outer_t *= outer_ratio(ell)
                inner_t *= inner_ratio(ell)
            inner_total += inner_t
            total += outer_t * inner_total
        return pref * total

    return double_range(evaluate, "explicit polynomial double sum")


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


def qpoch(a, q, n=INFINITY, rel_tol: float = 1e-15) -> complex:
    """(a; q)_n for integer n (of either sign) or n = math.inf.

    The infinite product is truncated once the factor deviation
    |a q^(j-1)| drops below rel_tol*(1-q); a first-order multiplicative
    tail estimate exp(-a q^J / (1-q)) is then applied, so the result is
    accurate well beyond the bare truncation point.  An array ``a``
    gives the infinite product at every point.
    """
    q = _check_q(q)
    try:
        a = complex(a)
    except TypeError:  # an array of points
        if n != INFINITY:
            raise ValueError("grids of q-Pochhammer symbols need n = inf") from None
        return _assert_finite(_qpoch_inf_grid(a, q, rel_tol), "infinite q-Pochhammer product")
    if n == INFINITY:
        product = 1.0 + 0.0j
        factor = a  # a * q^(j-1), starting at j = 1
        threshold = rel_tol * (1.0 - q)
        while abs(factor) >= threshold:
            product *= 1.0 - factor
            factor *= q
        product *= cmath.exp(-factor / (1.0 - q))
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


def _qpoch_inf_grid(a, q, rel_tol):
    """(a; q)_inf at every point of the array ``a``, by the scalar rule:
    each point multiplies in its own factors until they fall below the
    threshold, then takes the same tail estimate."""
    factor = np.array(a, dtype=complex)
    product = np.ones(factor.shape, dtype=complex)
    threshold = rel_tol * (1.0 - q)
    live = np.abs(factor) >= threshold
    while live.any():
        product = np.where(live, product * (1.0 - factor), product)
        factor = np.where(live, factor * q, factor)
        live = np.abs(factor) >= threshold
    return product * np.exp(-factor / (1.0 - q))


def qpoch_multi(params, q, n=INFINITY, rel_tol: float = 1e-15) -> complex:
    """Product of (a_k; q)_n over a parameter list (empty list gives 1);
    array parameters give the product at every point."""
    product = 1.0 + 0.0j
    for a in params:
        product *= qpoch(a, q, n, rel_tol)
    return _assert_finite(product, "q-Pochhammer product list")


def termination_order(p, q, max_order: int = 5000):
    """Smallest m >= 0 with p = q^(-m) to relative tolerance, else None.

    The nearest admissible m wins; ties break toward the smaller m.
    """
    p = complex(p)
    if p == 0 or abs(p.imag) > TERMINATION_REL_TOL * abs(p) or p.real <= 0:
        return None
    estimate = -math.log(abs(p)) / math.log(q)
    best = None
    best_err = None
    for m in sorted({math.floor(estimate), math.ceil(estimate)}):
        if m < 0 or m > max_order:
            continue
        target = q ** (-m)
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
    extra = 1 + spec.s - spec.r
    stop = series_termination(spec, policy.max_terms)
    if stop is not None:
        for b in spec.denominator:
            m = termination_order(b, q, policy.max_terms)
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
    return _assert_finite(total, "series sum"), weighted, tail


def _phi_core_grid(spec: SeriesSpec, policy: TruncationPolicy):
    """``_phi_core`` at every point of a grid spec.

    All points advance one term per pass; each applies the scalar
    stopping rules on its own and leaves the pass once it terminates,
    settles or fails, so the work follows the slowest point still live.
    """
    q = spec.q
    size = spec.argument.size
    extra = 1 + spec.s - spec.r
    errors = np.full(size, None, dtype=object)
    stop = series_termination(spec, policy.max_terms)
    terminating = stop >= 0
    for b in spec.denominator:
        m = _termination_orders(b, q, policy.max_terms)
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
    count = idx.size
    state = [
        [a[idx] for a in spec.numerator],
        [b[idx] for b in spec.denominator],
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
        nums, dens, z, st, term, total, largest, weighted, small_run = state
        finished = st == k
        out_total[idx[finished]] = total[finished]
        out_weighted[idx[finished]] = weighted[finished]
        if finished.all():
            break
        num = np.ones(idx.size, dtype=complex)
        for a in nums:
            num *= 1.0 - a * qk
        den = 1.0 - q * qk
        for b in dens:
            den = den * (1.0 - b * qk)
        factor = num / den * z
        if extra:
            base = -qk
            if base == 0.0 and extra < 0:
                errors[idx[~finished]] = Overflow("q^k underflow with negative exponent weight")
                break
            factor *= base**extra
        term *= factor
        total += term
        size_term = np.abs(term)
        largest = np.fmax(largest, size_term)
        weighted += (k + 2.0) * size_term
        ratio_mag = np.abs(factor)
        k += 1
        qk *= q
        vanished = ~finished & (den == 0)
        for i in idx[vanished]:
            errors[i] = ZeroDivisor("series denominator vanished at term %d" % k)
        open_ended = ~finished & ~vanished & (st < 0)
        tail_factor = np.minimum(np.maximum(
            np.where(ratio_mag < 0.999, ratio_mag / (1.0 - ratio_mag), 1e3), 1.0), 1e3)
        small = size_term * tail_factor < policy.rel_tol * np.maximum(
            np.abs(total), 1e-3 * largest
        )
        small_run = np.where(small, small_run + 1, 0)
        settled = open_ended & (small_run >= 3)
        out_total[idx[settled]] = total[settled]
        out_weighted[idx[settled]] = weighted[settled]
        out_tail[idx[settled]] = size_term[settled] * tail_factor[settled]
        over = open_ended & ~settled & (
            (k >= policy.max_terms) | ((k > 800) & (ratio_mag > 0.995))
        )
        if over.any():
            errors[idx[over]] = MaxTermsExceeded(
                "series did not settle within %d terms" % min(k, policy.max_terms)
            )
        over_budget = ~finished & ~vanished & (st >= 0) & (k > policy.max_terms)
        if over_budget.any():
            errors[idx[over_budget]] = MaxTermsExceeded("terminating series exceeds the term budget")
        keep = ~(finished | vanished | settled | over | over_budget)
        state = [nums, dens, z, st, term, total, largest, weighted, small_run]
        if not keep.all():
            idx = idx[keep]
            state = [
                [v[keep] for v in item] if isinstance(item, list) else item[keep]
                for item in state
            ]
    summed = np.equal(errors, None)
    errors[summed & ~np.isfinite(out_total)] = Overflow(
        "series sum left the double-precision range"
    )
    return out_total, out_weighted, out_tail, errors


def _series_error(value, weighted, tail) -> float:
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


def _phi32_candidates(nums, d, e, w):
    """The representations of the balanced 3-phi-2, in trial order before
    ranking: (usable, series argument, kind, pivot, other numerators,
    d, e).  "direct" is the series itself; every nonzero numerator
    parameter pivots both continuations."""
    grid = isinstance(w, np.ndarray)
    candidates = [(abs(w) < 1.0 - 1e-12, w, "direct", None, None, d, e)]
    for i, p in enumerate(nums):
        nonzero = p != 0
        if not (nonzero.any() if grid else nonzero):
            continue
        rest = [nums[j] for j in range(3) if j != i]
        for dd, ee in ((d, e), (e, d)):
            arg = ee / p
            candidates.append(((abs(arg) < 1.0 - 1e-12) & nonzero, arg, "pivot-up", p, rest, dd, ee))
        candidates.append(((abs(p) < 1.0 - 1e-12) & nonzero, p, "pivot-arg", p, rest, d, e))
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


def _rep_value(pref, spec, policy):
    """Prefactor times summed series of a scalar representation."""
    return qpoch_multi(pref[0], spec.q) / qpoch_multi(pref[1], spec.q) * phi(spec, policy)


def phi32(a, b, c, d, e, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The balanced 3-phi-2 with numerator (a, b, c), denominator (d, e)
    and argument de/(abc), continued analytically when that argument
    leaves the unit disk.

    Both standard continuations are tried with every assignment of the
    numerator parameters to the distinguished slot.  Candidates are
    visited by increasing transformed-argument modulus and ranked by
    estimated error; a candidate whose series collapses by cancellation
    is passed over in favor of a better-conditioned one, since the
    candidates agree analytically but not in double precision.
    Array parameters give the series at every point.
    """
    spec = _balanced_spec(a, b, c, d, e, q)
    if spec.grid:
        with np.errstate(all="ignore"):
            return _phi32_grid(spec, policy)
    w = spec.argument
    if series_termination(spec, policy.max_terms) is not None:
        return phi(spec, policy)

    candidates = [cand for cand in _phi32_candidates(spec.numerator, *spec.denominator, w)
                  if cand[0]]
    candidates.sort(key=lambda cand: abs(cand[1]))
    best = None
    last_error = None
    for _, arg, kind, p, rest, dd, ee in candidates:
        try:
            if kind == "direct":
                series, weighted, tail = _phi_core(spec, policy)
                prefactor = 1.0 + 0.0j
            else:
                pref, continued = _phi32_rep(kind, p, rest, dd, ee, w, arg, q)
                prefactor = qpoch_multi(pref[0], q) / qpoch_multi(pref[1], q)
                series, weighted, tail = _phi_core(continued, policy)
            value = _assert_finite(prefactor * series, "continued balanced series")
            err = _series_error(series, weighted, tail) / max(abs(series), 1e-300)
            if err <= _TARGET_REL_ERROR:
                return value
            if best is None or err < best[0]:
                best = (err, value)
        except (ZeroDivisor, Overflow, DivergentSeries, MaxTermsExceeded) as exc:
            last_error = exc
    if best is not None:
        return best[1]
    raise NoConvergentRepresentation(
        "no convergent representation of the balanced series at argument "
        f"{w!r}" + _failure_note(last_error)
    )


def _phi32_grid(spec: SeriesSpec, policy: TruncationPolicy):
    """``phi32`` at every point of a grid spec: terminating points are
    summed directly, the others rank the same candidates point by point."""
    q = spec.q
    values = np.empty(spec.argument.size, dtype=complex)
    stop = series_termination(spec, policy.max_terms)
    ends = np.flatnonzero(stop >= 0)
    if ends.size:
        values[ends] = phi(spec.take(ends), policy)
    rest_pts = np.flatnonzero(stop < 0)
    if not rest_pts.size:
        return values
    sub = spec.take(rest_pts)
    w = sub.argument

    def build(kind, p, rest, dd, ee, arg):
        if kind == "direct":
            return lambda: (None, sub)
        return lambda: _phi32_rep(kind, p, rest, dd, ee, w, arg, q)

    cands = _phi32_candidates(sub.numerator, *sub.denominator, w)
    found, missing, last_error = _rank_grid(
        [(cand[0], build(*cand[2:], cand[1])) for cand in cands], w.size, q, policy,
        keys=[np.abs(cand[1]) for cand in cands], series_relative=True,
    )
    if missing.size:
        raise NoConvergentRepresentation(
            "no convergent representation of the balanced series at argument "
            f"{complex(w[missing[0]])!r}" + _failure_note(last_error[missing[0]])
        )
    values[rest_pts] = found
    return values


def _failure_note(error) -> str:
    return f" (last failure: {error})" if error else ""


# ---------------------------------------------------------------------------
# Error-aware evaluators for the low-order series the limit families
# are built from.  Each tries the direct sum plus the standard rewrites
# and keeps the representation with the smallest estimated error; the
# rewrites shift a large argument into a large (harmless) denominator
# parameter.
# ---------------------------------------------------------------------------

# accept a representation outright below this relative error estimate
_TARGET_REL_ERROR = 5e-13


def _best_of(candidates, q, policy, size=None):
    """Try candidates (usable, build) in order, where build() returns a
    (prefactor or None, SeriesSpec) representation; return the first
    value whose relative error estimate meets the target, else the
    overall best.  ``size`` is the number of grid points (None for a
    scalar), and each grid point ranks its own usable candidates."""
    if size is not None:
        with np.errstate(all="ignore"):
            found, missing, last_error = _rank_grid(candidates, size, q, policy)
        if missing.size:
            raise NoConvergentRepresentation(
                "no usable representation found" + _failure_note(last_error[missing[0]])
            )
        return found
    best = None
    last_error = None
    for usable, build in candidates:
        if not usable:
            continue
        try:
            pref, spec = build()
            if pref is not None:
                pref = qpoch_multi(pref[0], q) / qpoch_multi(pref[1], q)
            value, weighted, tail = _phi_core(spec, policy)
            err = _series_error(value, weighted, tail)
            if pref is not None:
                value, err = pref * value, err * abs(pref)
        except (ZeroDivisor, Overflow, DivergentSeries, MaxTermsExceeded) as exc:
            last_error = exc
            continue
        value = _assert_finite(value, "series evaluation")
        rel = err / max(abs(value), 1e-300)
        if rel <= _TARGET_REL_ERROR:
            return value
        if best is None or rel < best[0]:
            best = (rel, value)
    if best is not None:
        return best[1]
    raise NoConvergentRepresentation(
        "no usable representation found" + _failure_note(last_error)
    )


def _rank_grid(candidates, size, q, policy, keys=None, series_relative=False):
    """The ranking loops of ``phi32`` and ``_best_of`` over a grid.

    Every point visits its usable candidates (usable, build) in its own
    order: by increasing ``keys`` (stable) when given, else in list
    order.  It keeps the first value whose relative error estimate meets
    _TARGET_REL_ERROR, else its smallest estimate; a candidate is summed
    only at the points that reach it.  The error is relative to the
    series alone when ``series_relative`` (phi32's rule), else to the
    value.  Returns (values, indices of points with no usable result,
    last failure per point).
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
        for slot in sorted(set(order[rank][waiting].tolist())):
            pts = np.flatnonzero(waiting & (order[rank] == slot))
            rep = candidates[slot][1]()
            value, rel, errors = _grid_candidate(rep, pts, q, policy, series_relative)
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


def _grid_candidate(rep, pts, q, policy, series_relative):
    """One representation summed at the grid points ``pts``: (values,
    relative error estimates, per-point failures)."""
    pref, spec = rep
    errors = np.full(pts.size, None, dtype=object)
    if pref is not None:
        factor, overflow = _grid_prefactor(pref, pts, q)
        errors[overflow] = Overflow("q-Pochhammer product list left the double-precision range")
    series, weighted, tail, series_errors = _phi_core(spec.take(pts), policy)
    errors = np.where(np.equal(errors, None), series_errors, errors)
    err = _series_error(series, weighted, tail)
    if series_relative:
        value = series if pref is None else factor * series
        errors[np.equal(errors, None) & ~np.isfinite(value)] = Overflow(
            "continued balanced series left the double-precision range"
        )
        return value, err / np.maximum(np.abs(series), 1e-300), errors
    if pref is not None:
        value, err = factor * series, err * np.abs(factor)
    else:
        value = series
    if (np.equal(errors, None) & ~np.isfinite(value)).any():
        raise Overflow("series evaluation left the double-precision range")
    return value, err / np.maximum(np.abs(value), 1e-300), errors


def _grid_prefactor(pref, pts, q):
    """Prefactor of a grid representation at ``pts``: (value, mask of
    points where a product overflowed)."""
    overflow = np.zeros(pts.size, dtype=bool)
    products = []
    for params in pref:
        product = np.ones(pts.size, dtype=complex)
        for a in params:
            a = a[pts] if isinstance(a, np.ndarray) else np.full(pts.size, a, dtype=complex)
            factor = _qpoch_inf_grid(a, q, 1e-15)
            overflow |= ~np.isfinite(factor)
            product *= factor
        overflow |= ~np.isfinite(product)
        products.append(product)
    if (~overflow & (products[1] == 0)).any():
        raise ZeroDivisionError("complex division by zero")
    return products[0] / products[1], overflow


def phi01(c, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """0-phi-1 with denominator c and argument w (entire in w)."""
    value, _, _ = _phi_core(SeriesSpec((), (c,), q, w), policy)
    return value


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


def phi20_terminating(a1, a2, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """2-phi-0, which only exists as a terminating sum."""
    spec = SeriesSpec((a1, a2), (), q, w)
    if series_termination(spec, policy.max_terms) is None:
        raise DivergentSeries("2-phi-0 diverges unless a parameter is q^-m")
    return phi(spec, policy)


def phi30_terminating(a1, a2, a3, w, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """3-phi-0, which only exists as a terminating sum."""
    spec = SeriesSpec((a1, a2, a3), (), q, w)
    if series_termination(spec, policy.max_terms) is None:
        raise DivergentSeries("3-phi-0 diverges unless a parameter is q^-m")
    return phi(spec, policy)


# ---------------------------------------------------------------------------
# Transformation identities.  Each entry evaluates both sides independently;
# the caller asserts closeness.  Samplers draw parameters inside the
# documented convergence domain of both sides.
# ---------------------------------------------------------------------------


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _t_cont_a(q, policy, a, b, c, d, e):
    spec = _balanced_spec(a, b, c, d, e, q)
    rhs = _rep_value(*_phi32_rep("pivot-up", a, (b, c), d, e, spec.argument, e / a, q), policy)
    return phi(spec, policy), rhs


def _s_cont_a(rng, q):
    while True:
        a, b, c = (_uniform(rng, 1.2, 2.5), _uniform(rng, 0.1, 0.9), _uniform(rng, 0.1, 0.9))
        d, e = _uniform(rng, 0.1, 0.9), _uniform(rng, 0.1, 0.9)
        if abs(d * e / (a * b * c)) < 0.8 and abs(e / a) < 0.8:
            return {"a": a, "b": b, "c": c, "d": d, "e": e}


def _t_cont_b(q, policy, a, b, c, d, e):
    spec = _balanced_spec(a, b, c, d, e, q)
    rhs = _rep_value(*_phi32_rep("pivot-arg", b, (a, c), d, e, spec.argument, b, q), policy)
    return phi(spec, policy), rhs


def _s_cont_b(rng, q):
    while True:
        a, c = _uniform(rng, 0.3, 1.6), _uniform(rng, 0.3, 1.6)
        b = _uniform(rng, 0.1, 0.85)
        d, e = _uniform(rng, 0.1, 0.9), _uniform(rng, 0.1, 0.9)
        if abs(d * e / (a * b * c)) < 0.8:
            return {"a": a, "b": b, "c": c, "d": d, "e": e}


def _t_heine(q, policy, a, b, c, z):
    lhs = _phi((a, b), (c,), q, z, policy)
    return lhs, _rep_value(*_phi21_pivot(b, a, c, z, q), policy)


def _s_heine(rng, q):
    return {
        "a": _uniform(rng, 0.1, 0.9),
        "b": _uniform(rng, 0.1, 0.85),
        "c": _uniform(rng, 0.1, 0.9),
        "z": _uniform(rng, 0.05, 0.85),
    }


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


def _s_p21_z(rng, q):
    return {
        "a": _uniform(rng, 0.1, 0.9),
        "c": _uniform(rng, 0.1, 0.9),
        "z": _uniform(rng, 0.05, 0.85),
    }


def _t_p11_swap(q, policy, b, c, z):
    lhs = _phi((c / b,), (c,), q, b * z, policy)
    rhs = qpoch(b * z, q) / qpoch(c, q) * _phi((z,), (b * z,), q, c, policy)
    return lhs, rhs


def _s_p11_swap(rng, q):
    return {
        "b": _uniform(rng, 0.1, 0.9),
        "c": _uniform(rng, 0.1, 0.9),
        "z": _uniform(rng, 0.05, 0.9),
    }


def _t_p11_zero_swap(q, policy, c, z):
    lhs = _phi((0.0,), (c,), q, z, policy)
    rhs = qpoch(z, q) / qpoch(c, q) * _phi((0.0,), (z,), q, c, policy)
    return lhs, rhs


def _t_p01_p11(q, policy, c, z):
    lhs = _phi((), (c,), q, c * z, policy)
    rhs = _phi((z,), (0.0,), q, c, policy) / qpoch(c, q)
    return lhs, rhs


def _s_two_params(rng, q):
    return {"c": _uniform(rng, 0.1, 0.9), "z": _uniform(rng, 0.05, 0.9)}


def _t_qbinomial(q, policy, a, z):
    lhs = _phi((a,), (), q, z, policy)
    rhs = qpoch(a * z, q) / qpoch(z, q)
    return lhs, rhs


def _s_qbinomial(rng, q):
    return {"a": _uniform(rng, 0.1, 0.9), "z": _uniform(rng, 0.05, 0.85)}


TRANSFORMS = {
    "cont-a": (_t_cont_a, _s_cont_a),
    "cont-b": (_t_cont_b, _s_cont_b),
    "heine": (_t_heine, _s_heine),
    "p21-p22": (_t_p21_p22, _s_heine),
    "p21-p12": (_t_p21_p12, _s_p21_z),
    "p21-p11": (_t_p21_p11, _s_p21_z),
    "p11-swap": (_t_p11_swap, _s_p11_swap),
    "p11-zero-swap": (_t_p11_zero_swap, _s_two_params),
    "p01-p11": (_t_p01_p11, _s_two_params),
    "q-binomial": (_t_qbinomial, _s_qbinomial),
}


def transform_ids():
    return tuple(TRANSFORMS)


def transform_check(transform_id: str, q, policy: TruncationPolicy = DEFAULT_POLICY, **params):
    """Evaluate both sides of the named identity; returns (lhs, rhs)."""
    try:
        evaluator, _ = TRANSFORMS[transform_id]
    except KeyError:
        raise KeyError(f"unknown transform id {transform_id!r}") from None
    return evaluator(_check_q(q), policy, **params)


def sample_transform_inputs(transform_id: str, rng, q):
    """Draw one in-domain parameter set for the named identity."""
    _, sampler = TRANSFORMS[transform_id]
    return sampler(rng, _check_q(q))
