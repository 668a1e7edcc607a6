"""The closed-form layer shared by all twelve families.

Every family, the flagship ``cdqhahn.CDQHParams`` and the eleven of
``limits``, is an immutable record on ``Family``, built by its one
constructor from q and the parameters the family names in
``param_names``.  It declares its recurrence coefficients and its
closed forms once, as class members:

    _coeff_rows    (lo, n) -> the lists a_lo..a_{n-1} and
                   b_lo^2..b_{n-1}^2 of the recurrence (see
                   ``recurrence``); ``a_coeff(n)`` and ``b_sq_coeff(n)``
                   read it at one index
    _solutions     label -> evaluator(family, point, n) -> Scaled, the
                   minimal solution first
    _poly_terms    (point, n) -> (prefactor, outer, inner) of the paper's
                   explicit double sum for P_n (see ``qseries.double_sum``)
    _poly_alt      (point, n) -> a second closed form of P_n, where a
                   family has one (cdqh and limit-asc1)
    _cf_forms      form -> evaluator(family, point) -> 1/CF, the default
                   form first
    _weight_parts  x -> numerator, denominator and bracket of the weight
                   on the cut (families with a cut; see ``cut_bracket``)

The four families with a spectral cut (cdqh, al-salam-chihara,
cont-q-hermite and cont-big-q-hermite) derive from ``CutFamily``.  Each
declares ``_growth_product()``, the product p of its growth rates
lambda_-+, the roots of lambda^2 - z lambda + p; they meet in modulus on
the cut z = gamma x, -1 < x < 1, with gamma = 2 sqrt(p) = 1/alpha.

``point_at(z, side, single_valued)`` turns the point a caller gives into
the argument these members take: z itself for a family without a cut,
the ``SpectralPoint`` at z for a cut family (which also takes a
SpectralPoint as it is).  The functions below are the one way to
evaluate the members: each looks the member up, evaluates it at its
point and raises Python's bare OverflowError and ZeroDivisionError as
Overflow and ZeroDivisor (a vanished denominator of 1/CF is PoleHit, see
``cf_denominator``).  P_n itself is ``poly``, by its recurrence.  The
series these members sum stop where the caller's ``qseries.truncation``
block says.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (BranchAmbiguous, DivergentSeries, FormalOnly, Overflow, PoleHit,
                     UnknownFamily, UnsupportedFamily, ZeroDivisor)
from .qseries import _check_q, double_sum, sqrt, support_points, weight_density
from .recurrence import (Scaled, SolutionSequence, _cell_values, characteristic_roots,
                         forward_eval)

OFF_CUT = "off-cut"
ABOVE = "above"
BELOW = "below"


class Family:
    """Construction, parameter checks, point conversion and coefficient
    access shared by the families.  A family is built from q and the
    parameters ``param_names`` lists, by position or keyword; it is
    immutable and compares and hashes by its type and those values."""

    z_at = None  # z from a rescaled argument x; only a cut family has one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each family holds its own one-index readers: the benchmark's
        # tracer (qdhbench/tracer.py) wraps them class by class
        cls.a_coeff, cls.b_sq_coeff = Family.a_coeff, Family.b_sq_coeff

    def __init__(self, q, *params, **by_name):
        names = self.param_names
        if by_name or len(params) != len(names):
            try:  # those not given by position, by name: none missing or left over
                params = [*params, *map(by_name.pop, names[len(params):])]
            except KeyError:  # a missing one leaves too few
                pass
            if by_name or len(params) != len(names):
                raise TypeError(f"{type(self).__qualname__}() takes "
                                f"({', '.join(('q', *names))}), each given once")
        q = _check_q(q)
        values = list(map(complex, params))
        # the coefficients divide by the product, which can underflow
        if 0 in values or math.prod(values) == 0 or not all(map(cmath.isfinite, values)):
            raise ValueError(f"parameters {', '.join(names)} must be nonzero and "
                             "finite, and their product nonzero")
        store = object.__setattr__
        store(self, "q", q)
        for name, value in zip(names, values):
            store(self, name, value)

    def _values(self) -> tuple:
        return (self.q, *[getattr(self, name) for name in self.param_names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        values = map("{}={!r}".format, ("q", *self.param_names), self._values())
        return f"{type(self).__qualname__}({', '.join(values)})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def a_coeff(self, n: int):
        """a_n, from the family's one declaration ``_coeff_rows``."""
        return self._coeff_rows(n, n + 1)[0][0]

    def b_sq_coeff(self, n: int):
        """b_n^2, from the family's one declaration ``_coeff_rows``."""
        return self._coeff_rows(n, n + 1)[1][0]

    def point_at(self, z, side=None, single_valued=False) -> complex:
        """z itself: a family without a cut has no boundary side."""
        if side in (ABOVE, BELOW):
            raise ValueError(f"{self.family_id} has no cut, so no side {side!r} to take")
        return complex(z)

    def _comfort_drivers(self, z):
        """Series arguments at z that verification draws keep comfortable."""
        return []


class CutFamily(Family):
    """A family with a spectral cut (see above).  Its closed forms take
    a SpectralPoint: ``point_at`` builds it, with a side on the cut, and
    ``z_at`` gives z from x = alpha z."""

    @property
    def gamma(self) -> complex:
        return 2 * cmath.sqrt(self._growth_product())

    @property
    def alpha(self) -> complex:
        gamma = self.gamma
        if not (gamma and cmath.isfinite(gamma)):  # p underflowed or overflowed
            raise Overflow(f"{self.family_id} has no cut in the double range (gamma = {gamma})")
        return 1 / gamma

    def point_at(self, z, side=None, single_valued=False) -> "SpectralPoint":
        """The spectral point at z (a SpectralPoint is its own).  Without
        a side it must lie off the cut, except for a form that is single
        valued across the cut (a polynomial), which there takes the side
        above."""
        if isinstance(z, SpectralPoint):
            return z
        try:
            return spectral_point(self, z=z, side=side or OFF_CUT)
        except BranchAmbiguous:
            if side is None and single_valued:
                return spectral_point(self, z=z, side=ABOVE)
            raise

    def z_at(self, x) -> complex:
        """The z of the rescaled point x = alpha z, on the cut or off it:
        z does not depend on the side, which ``point_at`` takes."""
        return complex(x) / self.alpha


@dataclass(frozen=True)
class SpectralPoint:
    z: complex
    alpha: complex
    x: complex
    u: complex
    lam_minus: complex
    lam_plus: complex
    side: str = OFF_CUT


def _quotient(a, b: complex):
    """a / b for an array a and a complex scalar b, rounded element by
    element as Python's complex division rounds (numpy multiplies by the
    reciprocal instead).  Near x = +-1 a last-bit change in x moves
    sqrt(1 - x^2), and with it the weight, a thousand times more, so
    grid and scalar spectral points must agree to the last bit."""
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        denom = b.real + b.imag * ratio
        real, imag = (a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom
    else:
        ratio = b.real / b.imag
        denom = b.real * ratio + b.imag
        real, imag = (a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom
    out = np.empty(np.shape(a), dtype=complex)
    out.real, out.imag = real, imag
    return out


def spectral_point(params: CutFamily, z=None, x=None, side: str = OFF_CUT) -> SpectralPoint:
    """Spectral data of a cut family at z (or x = alpha z).

    Off the cut lam_minus is the root of smaller modulus; on the cut the
    side flag selects the boundary value the off-cut branch tends to:
    approaching from above sends the small root to (x - i sqrt(1-x^2)) /
    (2 alpha), from below to its conjugate.  u = 2 alpha lam_plus.  An
    array of z (or x) gives the data at every point, as arrays.
    """
    alpha = params.alpha
    if (z is None) == (x is None):
        raise ValueError("provide exactly one of z or x")
    grid = isinstance(x if z is None else z, np.ndarray)
    given = None if x is None else (np.asarray(x, dtype=complex) if grid else complex(x))
    if z is None:
        z = _quotient(given, alpha) if grid else given / alpha
    else:
        z = np.asarray(z, dtype=complex) if grid else complex(z)
    x = alpha * z
    if side == OFF_CUT:
        small, large = characteristic_roots(z, params._growth_product())
        scale = abs(large)
        # the sqrt near a double root resolves only to ~sqrt(eps)
        ambiguous = abs(abs(small) - scale) <= 4e-8 * (
            np.maximum(scale, 1e-300) if grid else max(scale, 1e-300))
        if ambiguous.any() if grid else ambiguous:
            raise BranchAmbiguous(
                "|lambda_-| = |lambda_+|: the point lies on the cut; pick a side"
            )
        u = 2 * alpha * large
        return SpectralPoint(z, alpha, x, u, small, large, side)
    if side not in (ABOVE, BELOW):
        raise ValueError(f"side must be one of {OFF_CUT!r}, {ABOVE!r}, {BELOW!r}")
    if given is not None:
        # keep the given x: the round trip through z can move it by an
        # ulp, which sqrt(1 - x^2) magnifies near +-1
        x = given
    inside = (abs(x.imag) <= 1e-10) & (-1.0 < x.real) & (x.real < 1.0)
    if not (inside.all() if grid else inside):
        raise ValueError("boundary sides require real x strictly inside (-1, 1)")
    xr = x.real
    root = sqrt(1.0 - xr * xr)
    divide = _quotient if grid else operator.truediv
    lam_a = divide(xr - 1j * root, 2 * alpha)
    lam_b = divide(xr + 1j * root, 2 * alpha)
    if side == ABOVE:
        small, large = lam_a, lam_b
    else:
        small, large = lam_b, lam_a
    u = 2 * alpha * large
    return SpectralPoint(z, alpha, xr.astype(complex) if grid else complex(xr), u, small,
                         large, side)


def guarded(what: str, evaluate, family, at, *args):
    """evaluate(family, at, *args), with a bare float overflow or division
    by zero (a power such as q**(1 - n) at large n, a series argument such
    as q/(A z) at z = 0) raised as Overflow or ZeroDivisor.  A value that
    is not finite (nan from inf - inf at parameters near the double range)
    is an Overflow too."""
    try:
        value = evaluate(family, at, *args)
    except OverflowError:
        error, event = Overflow, "left the double-precision range"
    except ZeroDivisionError:
        error, event = ZeroDivisor, "divides by zero"
    else:
        if _finite(value):
            return value
        error, event = Overflow, "is not finite"
    # raised after the handler, so that it holds no traceback of the
    # failed call (whose frames would keep the caller's locals alive)
    raise error(f"{family.family_id} {what} {event} at {getattr(at, 'z', at)}")


def _finite(value) -> bool:
    """False where a closed form lost its value to nan or inf (a Scaled
    value in its mantissa or its log_scale).  The parts of a tuple, which
    a weight or a zero scan combines itself, pass as they are."""
    if isinstance(value, Scaled):
        return cmath.isfinite(value.mantissa) and math.isfinite(value.log_scale)
    return isinstance(value, tuple) or cmath.isfinite(value)


def member(family, name: str, missing: str):
    """The family's closed form ``name``; UnsupportedFamily, ``missing``
    naming the family, where it declares none."""
    form = getattr(type(family), name, None)
    if form is None:
        raise UnsupportedFamily(missing.format(family.family_id))
    return form


def cf_denominator(den):
    """den, the denominator series of a form of 1/CF; PoleHit where it
    vanished."""
    if den == 0:
        raise PoleHit("denominator series vanished: z is a pole of the transform")
    return den


def solution_scaled(family, point, which, n: int):
    """The named closed-form solution at index n, as a Scaled value;
    FormalOnly where its series diverges, so exists only formally."""
    table = family._solutions
    if which not in table:
        raise UnknownFamily(f"{family.family_id} has solutions {list(table)}, not {which!r}")
    try:
        return guarded("solution", table[which], family, family.point_at(point), n)
    except DivergentSeries:  # raised after the handler, as in ``guarded``
        pass
    raise FormalOnly(f"{family.family_id} solution {which} at n = {n} is a divergent formal series")


def solution_value(family, point, which, n: int):
    """The named closed-form solution at index n as a number.  Overflow
    where the value is nonzero but falls below the normal double range:
    a subnormal (or a zero) keeps too few of its bits to vouch for."""
    scaled = solution_scaled(family, point, which, n)
    value = scaled.value
    if scaled.mantissa != 0 and abs(value) < sys.float_info.min:
        raise Overflow(f"{family.family_id} solution {which} at n = {n} falls below the "
                       f"normal double range (|value| = {abs(value):.3g})")
    return value


def solution_sequence(family, point, which, start: int, stop: int):
    """Closed-form values over [start, stop], evaluated independently at
    each index (never by running the recurrence)."""
    at = family.point_at(point)
    cells = [solution_scaled(family, at, which, n).normalized()
             for n in range(start, stop + 1)]
    return SolutionSequence(start, tuple(s.mantissa for s in cells),
                            tuple(s.log_scale for s in cells))


def poly(family, z, n: int):
    """The monic P_n at z (a number or a 1-D array); see ``poly_rows``."""
    return poly_rows(family, z, n, n)[0]


def poly_rows(family, z, n_lo: int, n_hi: int):
    """P_n_lo, ..., P_n_hi at z (a number or a 1-D array) by the recurrence
    that defines them, one row per n, as ``qdh table`` prints them: single
    valued, so a point on a cut needs no side.  ValueError for n_hi < 0;
    Overflow only where some P_n leaves the double range, naming the
    family, the first such point (its index too on a grid) and the least
    n there."""
    seq = forward_eval(family, z, 0.0, 1.0, n_hi)
    rows = SolutionSequence(n_lo, seq.mantissas[n_lo + 1:], seq.log_scales[n_lo + 1:])
    try:
        return rows.values()
    except Overflow:
        lost = ~np.isfinite(_cell_values(rows.mantissas, rows.log_scales)).reshape(len(rows), -1)
        j = int(lost.any(axis=0).argmax())
        n = n_lo + int(lost[:, j].argmax())
        point = complex(np.ravel(z)[j])
        at = f"z={point.real if point.imag == 0 else point}"
        if isinstance(z, np.ndarray):
            at += f" (grid point {j})"
        raise Overflow(f"{family.family_id} P_{n} at {at} exceeds the double range") from None


def _double_sum(family, at, n):
    return double_sum(n, family.q, *family._poly_terms(at, n))


def _polynomial(evaluate, family, point, n: int) -> complex:
    """The monic P_n(point) by ``evaluate``; single valued, so a point on
    a cut takes the side above.  Overflow or ZeroDivisor once its terms
    leave the double range; P_0 = 1 everywhere, z = 0 included, without
    building the point or evaluating the terms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0 + 0.0j
    at = family.point_at(point, single_valued=True)
    return guarded("polynomial", evaluate, family, at, n)


def explicit_poly(family, point, n: int) -> complex:
    """The paper's explicit double sum for P_n (see ``_polynomial``)."""
    return _polynomial(_double_sum, family, point, n)


def poly_alt(family, point, n: int) -> complex:
    """The family's second closed form of P_n (see ``_polynomial``)."""
    return _polynomial(member(family, "_poly_alt", "{} has no second polynomial form"),
                       family, point, n)


def cf(family, point, form=None) -> complex:
    """1/CF at the point by the named closed form (None: the family's
    first declared form)."""
    forms = family._cf_forms
    form = next(iter(forms)) if form is None else form
    if form not in forms:
        raise ValueError(f"unknown form {form!r}; expected one of {tuple(forms)}")
    return guarded("continued fraction", forms[form], family, family.point_at(point))


def cut_bracket(family, point, f):
    """f(lam_minus) f(lam_plus) at a SpectralPoint on the cut, the
    bracket of a weight.  Where lam_plus is bit for bit the conjugate of
    lam_minus (a real alpha) and the family's parameters are real, the
    series kernels round f(lam_plus) to the conjugate of f(lam_minus), so
    f is evaluated once; otherwise twice."""
    low = f(point.lam_minus)
    if (all(getattr(family, name).imag == 0 for name in family.param_names)
            and np.array_equal(point.lam_plus, point.lam_minus.conjugate())):
        return low * low.conjugate()
    return low * f(point.lam_plus)


def weight(family, x):
    """Density of the absolutely continuous component at x in (-1, 1),
    of mass 1 when there are no mass points.  A one-dimensional array of
    x gives the density at every point, in one pass of each series kernel."""
    x = support_points(x)
    parts = member(family, "_weight_parts", "{} carries no absolutely continuous weight here")
    return weight_density(x, *guarded("weight", parts, family, x))
