"""The closed-form layer shared by all twelve families.

Every family, the flagship ``cdqhahn.CDQHParams`` and the eleven of
``limits``, is a frozen dataclass on ``Family`` that declares its closed
forms once, as class members:

    _solutions     label -> evaluator(family, point, n, policy) -> Scaled,
                   the minimal solution first
    _poly_terms    (point, n) -> (prefactor, outer, inner) of the explicit
                   polynomial's double sum (see ``qseries.double_sum``)
    _poly_alt      (point, n) -> a second closed form of P_n, where a
                   family has one (cdqh and limit-asc1)
    _cf_forms      form -> evaluator(family, point, policy) -> 1/CF, the
                   default form first
    _weight_parts  (x, policy) -> numerator, denominator and bracket of
                   the weight on the cut (families with a cut)

``point_at(z, side, single_valued)`` turns the point a caller gives into
the argument these members take: z itself for a limit family, the
spectral point for the flagship (which also takes a SpectralPoint as it
is).  The functions below are the one way to evaluate the members: each
looks the member up, evaluates it at its point and raises Python's bare
OverflowError and ZeroDivisionError as Overflow and ZeroDivisor (a
vanished denominator of 1/CF is PoleHit, see ``cf_denominator``).
"""

from __future__ import annotations

import math

from .errors import Overflow, PoleHit, UnknownFamily, UnsupportedFamily, ZeroDivisor
from .qseries import (DEFAULT_POLICY, _assert_finite, _check_q, double_sum, support_points,
                      weight_density)
from .recurrence import SolutionSequence


class Family:
    """Parameter checks and point conversion shared by the families."""

    z_at = None  # z from a rescaled argument x; only the flagship has one

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))
        values = [complex(getattr(self, name)) for name in self.param_names]
        # the coefficients divide by the product, which can underflow
        if 0 in values or math.prod(values) == 0:
            raise ValueError(f"parameters {', '.join(self.param_names)} and their product "
                             "must be nonzero")
        for name, value in zip(self.param_names, values):
            object.__setattr__(self, name, value)

    def point_at(self, z, side=None, single_valued=False) -> complex:
        return complex(z)

    def _comfort_drivers(self, z):
        """Series arguments at z that verification draws keep comfortable."""
        return []


def guarded(what: str, evaluate, family, at, *args):
    """evaluate(family, at, *args), with a bare float overflow or division
    by zero (a power such as q**(1 - n) at large n, a series argument such
    as q/(A z) at z = 0) raised as Overflow or ZeroDivisor."""
    try:
        return evaluate(family, at, *args)
    except OverflowError:
        error, event = Overflow, "left the double-precision range"
    except ZeroDivisionError:
        error, event = ZeroDivisor, "divides by zero"
    # raised after the handler, so that it holds no traceback of the
    # failed call (whose frames would keep the caller's locals alive)
    raise error(f"{family.family_id} {what} {event} at {getattr(at, 'z', at)}")


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


def solution_scaled(family, point, which, n: int, policy):
    """The named closed-form solution at index n, as a Scaled value."""
    table = family._solutions
    if which not in table:
        raise UnknownFamily(f"{family.family_id} has solutions {list(table)}, not {which!r}")
    return guarded("solution", table[which], family, family.point_at(point), n, policy)


def solution_sequence(family, point, which, start: int, stop: int, policy=DEFAULT_POLICY):
    """Closed-form values over [start, stop], evaluated independently at
    each index (never by running the recurrence)."""
    at = family.point_at(point)
    return SolutionSequence.from_function(
        lambda n: solution_scaled(family, at, which, n, policy), start, stop,
        provenance=f"closed-form:{family.family_id}:{which}")


def _double_sum(family, at, n):
    return double_sum(n, family.q, *family._poly_terms(at, n))


def _polynomial(evaluate, family, point, n: int) -> complex:
    """The monic P_n(point) by ``evaluate``; single valued, so a flagship
    point on the cut takes the side above.  Overflow or ZeroDivisor once
    its terms leave the double range; P_0 = 1 everywhere, z = 0 included,
    without evaluating the terms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    at = family.point_at(point, single_valued=True)
    if n == 0:
        return 1.0 + 0.0j
    return _assert_finite(guarded("polynomial", evaluate, family, at, n),
                          "explicit polynomial double sum")


def poly(family, point, n: int) -> complex:
    """The family's explicit double sum for P_n (see ``_polynomial``)."""
    return _polynomial(_double_sum, family, point, n)


def poly_alt(family, point, n: int) -> complex:
    """The family's second closed form of P_n (see ``_polynomial``)."""
    return _polynomial(member(family, "_poly_alt", "{} has no second polynomial form"),
                       family, point, n)


def cf(family, point, form: str, policy) -> complex:
    """1/CF at the point by the named closed form."""
    forms = family._cf_forms
    if form not in forms:
        raise ValueError(f"unknown form {form!r}; expected one of {tuple(forms)}")
    return guarded("continued fraction", forms[form], family, family.point_at(point), policy)


def weight(family, x, policy):
    """Density of the absolutely continuous component at x in (-1, 1)
    (unnormalized).  A one-dimensional array of x gives the density at
    every point, in one pass of each series kernel."""
    x = support_points(x)
    parts = member(family, "_weight_parts", "{} carries no absolutely continuous weight here")
    return weight_density(x, *guarded("weight", parts, family, x, policy))
