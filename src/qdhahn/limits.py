"""The eleven limit families of the four-parameter recurrence.

Each family is a frozen dataclass declaring its recurrence coefficients
and its closed forms once, as the members ``family`` describes:
``_coeff_rows`` (the coefficient lists over an index range),
``_solutions`` (index -> evaluator; 1 is always the subdominant/minimal
one), ``_poly_terms`` (the (nums, dens, step, power) factors of the
double sum's term ratios, see ``qseries.term_ratio``) and
``_cf_forms``.  The three families with a spectral cut
(al-salam-chihara, cont-q-hermite and cont-big-q-hermite) are
``family.CutFamily``s like the flagship: they declare
``_growth_product`` and ``_weight_parts``, and their members take the
flagship's ``SpectralPoint`` (with a side on the cut) where the other
eight take z itself.  The four scan families also declare
``_scan_series``, the (numerator, denominator) pair their 1/CF divides
and zero scans use.  A solution whose series diverges exists only
formally, and raises FormalOnly (see ``family.solution_scaled``).

``limit_solution``, ``limit_poly``, ``limit_cf`` and ``limit_weight``
evaluate through the one closed-form layer of ``family``, so they take
the flagship ``cdqhahn.CDQHParams`` (at a number z or a SpectralPoint)
as well as a limit family.  They are thin functions over that layer
(README.md says why they stay).  ``limit_poly`` is the paper's
double sum; the limit edges compare P_n itself, ``family.poly``.  The
other closed forms have one name, in ``family``: ``poly_alt``,
``solution_sequence``, and a family's ``_solutions`` and ``_cf_forms``
for its labels and forms.

Families and their parameters:

    big-q-laguerre      (q, A, B, C)    three-parameter reduction
    wall                (q, A, B)
    limit-wall          (q, A)
    fourth-limit        (q,)            parameter-free
    al-salam-chihara    (q, A, B, delta)
    al-salam-carlitz1   (q, A, delta)
    limit-asc1          (q, delta)
    cont-q-hermite      (q, A, delta)
    limit-q-hermite     (q, delta)
    cont-big-q-hermite  (q, A, a)
    q-bessel-order      (q, a)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import qseries
from .cdqhahn import CDQHParams
from .errors import (
    FormalOnly,
    MaxTermsExceeded,
    Overflow,
    ScanTooCoarse,
    UnknownFamily,
    ZeroDivisor,
)
from .family import (
    ABOVE,
    CutFamily,
    Family,
    cf,
    cf_denominator,
    cut_bracket,
    explicit_poly,
    guarded,
    member,
    poly,
    solution_value,
    spectral_point,
    weight,
)
from .qseries import (
    DEFAULT_POLICY,
    double_sum,
    phi01,
    phi11,
    phi21,
    phi22_balanced,
    phi_r0_terminating,
    qpoch,
    qpoch_multi,
)
from .recurrence import Scaled
from .recurrence import scaled_power as _power, scaled_qpower as _qpower


def _sign(n: int) -> complex:
    return -1.0 + 0.0j if n % 2 else 1.0 + 0.0j


# ---------------------------------------------------------------------------
# Family records: recurrence coefficients and closed forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigQLaguerre(Family):
    q: float
    A: complex
    B: complex
    C: complex

    family_id = "big-q-laguerre"
    param_names = ("A", "B", "C")

    def _coeff_rows(self, lo, n):
        q, A, B, C = self.q, self.A, self.B, self.C
        s, c, abc = 1 / A + 1 / B + 1 / C, 1 + q, A * B * C
        a, b_sq = [], []
        for k in range(lo, n):
            p, t = q**k, q ** (k - 1)
            a.append(s * p - c * q ** (2 * k - 1))
            b_sq.append(-p / abc * (1 - A * t) * (1 - B * t) * (1 - C * t))
        return a, b_sq

    def _solution_1(self, z, n, policy):
        q, A, B, C = self.q, self.A, self.B, self.C
        pref = qpoch_multi([A, B, C], q, n) / qpoch(q / (A * z), q, n)
        series = phi21(B * q**n, C * q**n, q ** (n + 1) / (A * z), q / (B * C * z), q, policy)
        return (
            Scaled(_sign(n))
            * _qpower(q, n * (n + 1) / 2.0)
            * _power(A * B * C * z, -n)
            * (pref * series)
        )

    def _lead_series(self, z, n, policy, lead, o1, o2):
        q = self.q
        pref = qpoch(lead, q, n)
        series = phi22_balanced(
            lead * q**n,
            q / (o1 * o2 * z),
            lead * q / o1,
            lead * q / o2,
            lead * z * q ** (1 - n),
            q,
            policy,
        )
        return (
            Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * _power(lead, -n) * (pref * series)
        )

    def _solution_5(self, z, n, policy):
        q, A, B, C = self.q, self.A, self.B, self.C
        pref = qpoch(1 / (C * z), q, n)
        series = phi21(
            q ** (1 - n) / A, q ** (1 - n) / B, C * z * q ** (1 - n), C * q**n, q, policy
        )
        return _power(z, n) * (pref * series)

    _solutions = {
        1: _solution_1,
        2: lambda f, z, n, p: f._lead_series(z, n, p, f.A, f.B, f.C),
        3: lambda f, z, n, p: f._lead_series(z, n, p, f.B, f.C, f.A),
        4: lambda f, z, n, p: f._lead_series(z, n, p, f.C, f.A, f.B),
        5: _solution_5,
    }

    def _poly_terms(self, z, n):
        q, A, B, C = self.q, self.A, self.B, self.C
        pref = z**n * qpoch_multi([A, B, q / (A * B * z)], q, n) / qpoch(q, q, n)
        outer = [q**-n, A * B * C * z / q], [A * B * z * q**-n, A, B], -(A * B / C), 1
        inner = [A / q, B / q, A * B * z], [A * B * C * z / q, q], -(C * q / (A * B)), -1
        return pref, outer, inner

    def _cf(self, z, policy):
        q, A, B, C = self.q, self.A, self.B, self.C
        num = phi21(B, C, q / (A * z), q / (B * C * z), q, policy)
        den = phi21(B / q, C / q, 1 / (A * z), q / (B * C * z), q, policy)
        return num / (z * (1 - 1 / (A * z)) * cf_denominator(den))

    _cf_forms = {"default": _cf}

    def _comfort_drivers(self, z):
        q, A, B, C = self.q, self.A, self.B, self.C
        return [q / (B * C * z), q / (A * C * z), q / (A * B * z)]


@dataclass(frozen=True)
class Wall(Family):
    q: float
    A: complex
    B: complex

    family_id = "wall"
    param_names = ("A", "B")

    def _coeff_rows(self, lo, n):
        q, A, B = self.q, self.A, self.B
        s, c, ab = 1 / A + 1 / B, 1 + q, A * B
        a, b_sq = [], []
        for k in range(lo, n):
            p = q ** (2 * k - 1)
            a.append(s * q**k - c * p)
            t = q ** (k - 1)
            b_sq.append(p / ab * (1 - A * t) * (1 - B * t))
        return a, b_sq

    def _solution_1(self, z, n, policy):
        q, A, B = self.q, self.A, self.B
        pref = qpoch_multi([A, B], q, n) / qpoch(q / (A * z), q, n)
        series = phi11(B * q**n, q ** (n + 1) / (A * z), q ** (n + 1) / (B * z), q, policy)
        return _power(q / (A * B * z), n) * _qpower(q, n * (n - 1)) * (pref * series)

    def _lead_series(self, z, n, policy, lead, other):
        q = self.q
        pref = qpoch(lead, q, n)
        series = phi11(lead * q**n, lead * q / other, lead * z * q ** (1 - n), q, policy)
        return (
            Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * _power(lead, -n) * (pref * series)
        )

    def _solution_4(self, z, n, policy):
        q, A, B = self.q, self.A, self.B
        series = phi_r0_terminating(
            (q ** (1 - n) / A, q ** (1 - n) / B), q ** (2 * n - 1) / z, q, policy
        )
        return _power(z, n) * series

    _solutions = {
        1: _solution_1,
        2: lambda f, z, n, p: f._lead_series(z, n, p, f.A, f.B),
        3: lambda f, z, n, p: f._lead_series(z, n, p, f.B, f.A),
        4: _solution_4,
    }

    def _poly_terms(self, z, n):
        q, A, B = self.q, self.A, self.B
        pref = z**n * qpoch_multi([q / (A * B * z), A, B], q, n) / qpoch(q, q, n)
        outer = [q**-n], [q**-n * A * B * z, A, B], A * A * B * B * z / q, 2
        inner = [A / q, B / q, A * B * z], [q], (q / (A * B)) ** 2 / z, -2
        return pref, outer, inner

    def _cf(self, z, policy):
        q, A, B = self.q, self.A, self.B
        num = phi11(B, q / (A * z), q / (B * z), q, policy)
        den = phi11(B / q, 1 / (A * z), 1 / (B * z), q, policy)
        return num / (z * (1 - 1 / (A * z)) * cf_denominator(den))

    _cf_forms = {"default": _cf}

    def _comfort_drivers(self, z):
        q, A, B = self.q, self.A, self.B
        return [q / (A * B * z), q / (A * z), q / (B * z)]


@dataclass(frozen=True)
class LimitWall(Family):
    q: float
    A: complex

    family_id = "limit-wall"
    param_names = ("A",)

    def _coeff_rows(self, lo, n):
        q, A = self.q, self.A
        c = 1 + q
        a, b_sq = [], []
        for k in range(lo, n):
            a.append(q**k / A - c * q ** (2 * k - 1))
            b_sq.append(-(q ** (3 * k - 2)) / A * (1 - A * q ** (k - 1)))
        return a, b_sq

    def _solution_1(self, z, n, policy):
        q, A = self.q, self.A
        pref = qpoch(A, q, n) / qpoch(q / (A * z), q, n)
        series = phi01(q ** (n + 1) / (A * z), q ** (2 * n + 1) / z, q, policy)
        return (
            Scaled(_sign(n))
            * _power(q / (A * z), n)
            * _qpower(q, 1.5 * n * (n - 1))
            * (pref * series)
        )

    def _solution_2(self, z, n, policy):
        q, A = self.q, self.A
        pref = qpoch(A, q, n)
        series = phi11(A * q**n, 0.0, A * z * q ** (1 - n), q, policy)
        return (
            Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * _power(A, -n) * (pref * series)
        )

    def _solution_3(self, z, n, policy):
        q, A = self.q, self.A
        series = phi_r0_terminating((q ** (1 - n) / A, 0.0), q ** (2 * n - 1) / z, q, policy)
        return _power(z, n) * series

    _solutions = {1: _solution_1, 2: _solution_2, 3: _solution_3}

    def _poly_terms(self, z, n):
        q, A = self.q, self.A
        pref = q ** (n * n) / A**n * qpoch(A, q, n) / qpoch(q, q, n)
        return pref, ([q**-n], [A], -(A * z), -1), ([A / q], [q], -1 / (A * z), 1)

    def _cf(self, z, policy):
        q, A = self.q, self.A
        num = phi01(q / (A * z), q / z, q, policy)
        den = phi01(1 / (A * z), 1 / (q * z), q, policy)
        return num / (z * (1 - 1 / (A * z)) * cf_denominator(den))

    def _cf_confluent(self, z, policy):
        q, A = self.q, self.A
        num = phi11(A, 0.0, q / (A * z), q, policy)
        den = phi11(A / q, 0.0, 1 / (A * z), q, policy)
        return num / (z * cf_denominator(den))

    _cf_forms = {"default": _cf, "series-ratio": _cf, "confluent": _cf_confluent}

    def _comfort_drivers(self, z):
        return [self.q / (self.A * z)]


@dataclass(frozen=True)
class FourthLimit(Family):
    q: float

    family_id = "fourth-limit"
    param_names = ()

    def _coeff_rows(self, lo, n):
        q = self.q
        c = -(1 + q)
        return ([c * q ** (2 * k - 1) for k in range(lo, n)],
                [q ** (4 * k - 3) for k in range(lo, n)])

    def _solution_1(self, z, n, policy):
        q = self.q
        series = phi01(0.0, q ** (2 * n + 1) / z, q, policy)
        return _qpower(q, 2.0 * n * (n - 1)) * _power(q / z, n) * series

    def _solution_2(self, z, n, policy):
        raise FormalOnly("purely formal series; it never terminates")

    _solutions = {1: _solution_1, 2: _solution_2}

    def _poly_terms(self, z, n):
        q = self.q
        pref = _sign(n) * q ** (n * n) * q ** (n * (n - 1) // 2) / qpoch(q, q, n)
        return pref, ([q**-n], [], z, -2), ([], [q], 1 / (q * z), 2)

    def _cf(self, z, policy):
        q = self.q
        num = phi01(0.0, q / z, q, policy)
        den = phi01(0.0, 1 / (q * z), q, policy)
        return num / (z * cf_denominator(den))

    def _cf_power_sums(self, z, policy):
        num = fourth_limit_series(self, 0)(z)
        return num / (z * cf_denominator(fourth_limit_series(self, -1)(z)))

    _cf_forms = {"default": _cf, "series-ratio": _cf, "power-sums": _cf_power_sums}


@dataclass(frozen=True)
class AlSalamChihara(CutFamily):
    q: float
    A: complex
    B: complex
    delta: complex

    family_id = "al-salam-chihara"
    param_names = ("A", "B", "delta")

    def _coeff_rows(self, lo, n):
        q, A, B = self.q, self.A, self.B
        s, g = 1 + 1 / self.delta, q / (A * B * self.delta)
        return ([s * q**k for k in range(lo, n)],
                [g * (1 - A * t) * (1 - B * t) for t in [q ** (k - 1) for k in range(lo, n)]])

    def _growth_product(self):
        return self.q / (self.A * self.B * self.delta)

    def _growth_series(self, lam, n, policy):
        q, A, B = self.q, self.A, self.B
        pref = qpoch_multi([A, B], q, n) / qpoch(A * B * lam, q, n)
        series = phi21(B * lam, B * q**n, A * B * lam * q**n, A * self.delta * lam, q, policy)
        return _power(lam, n) * (pref * series)

    def _solution_2(self, pt, n, policy):
        q, B = self.q, self.B
        pref = qpoch(B, q, n)
        series = phi21(B * pt.lam_plus, B * pt.lam_minus, q / self.delta, q ** (1 - n) / B, q,
                       policy)
        return _power(B, -n) * (pref * series)

    def _solution_3(self, pt, n, policy):
        q, B, d = self.q, self.B, self.delta
        pref = qpoch(B, q, n)
        series = phi21(B * d * pt.lam_plus, B * d * pt.lam_minus, q * d, q ** (1 - n) / B, q,
                       policy)
        return _power(d * B, -n) * (pref * series)

    def _solution_4_direct(self, pt, n, policy):
        q, A, B, d = self.q, self.A, self.B, self.delta
        small, large = pt.lam_minus, pt.lam_plus
        pref = qpoch_multi([A * B * d * large / q, A * B * d * small / q], q, n)
        series = phi22_balanced(
            q ** (1 - n) / A,
            q ** (1 - n) / B,
            large * q ** (1 - n),
            small * q ** (1 - n),
            q / d,
            q,
            policy,
        )
        return (
            Scaled(_sign(n))
            * _power(q / (A * B * d), n)
            * _qpower(q, -n * (n - 1) / 2.0)
            * (pref * series)
        )

    def _solution_4(self, pt, n, policy):
        # the defining confluent double-denominator series is an exact
        # n-independent multiple of solution 2; its direct sum collapses by
        # cancellation as n grows, so evaluate through that multiple with
        # the constant pinned at n = 0 where the direct sum is clean
        if n <= 2:
            return self._solution_4_direct(pt, n, policy)
        const = (self._solution_4_direct(pt, 0, policy).value
                 / self._solution_2(pt, 0, policy).value)
        return self._solution_2(pt, n, policy) * const

    _solutions = {
        1: lambda f, pt, n, p: f._growth_series(pt.lam_minus, n, p),
        -1: lambda f, pt, n, p: f._growth_series(pt.lam_plus, n, p),
        2: _solution_2,
        3: _solution_3,
        4: _solution_4,
    }

    def _poly_terms(self, pt, n):
        q, A, B, d = self.q, self.A, self.B, self.delta
        gamma, u = self.gamma, pt.u
        pref = (gamma * u / 2) ** n * qpoch_multi([A, B], q, n) / qpoch(q, q, n)
        outer = [q**-n, 2 * u / (gamma * d), 2 * u / gamma], [A, B], -(q**n) * u**-2, -1
        inner = [A / q, B / q], [q, 2 * u / (gamma * d), 2 * u / gamma], -(u**2) * q, 1
        return pref, outer, inner

    def _cf(self, pt, policy):
        q, A, B, d = self.q, self.A, self.B, self.delta
        small = pt.lam_minus
        num = phi21(B * small, B, A * B * small, A * d * small, q, policy)
        den = phi21(B * small, B / q, A * B * small / q, A * d * small, q, policy)
        return A * B * d * small / (q * (1 - A * B * small / q)) * num / cf_denominator(den)

    _cf_forms = {"default": _cf}

    def _weight_parts(self, x, policy):
        q, A, B, d = self.q, self.A, self.B, self.delta
        pt = spectral_point(self, x=x, side=ABOVE)
        u, lam_p, lam_m = pt.u, pt.lam_plus, pt.lam_minus
        numerator = qpoch_multi([A, B, u * u, 1 / (u * u)], q)
        denominator = qpoch_multi(
            [A * d * lam_p, A * d * lam_m, A * B * lam_p / q, A * B * lam_m / q], q
        )
        bracket = cut_bracket(
            self, pt, lambda lam: phi21(B * lam, B / q, A * B * lam / q, A * d * lam, q, policy))
        return numerator, denominator, bracket


@dataclass(frozen=True)
class AlSalamCarlitz1(Family):
    q: float
    A: complex
    delta: complex

    family_id = "al-salam-carlitz1"
    param_names = ("A", "delta")

    def _coeff_rows(self, lo, n):
        q, A = self.q, self.A
        s, ad = 1 + 1 / self.delta, A * self.delta
        a, b_sq = [], []
        for k in range(lo, n):
            p = q**k
            a.append(s * p)
            b_sq.append(-p / ad * (1 - A * q ** (k - 1)))
        return a, b_sq

    def _solution_1(self, z, n, policy):
        q, A, d = self.q, self.A, self.delta
        pref = qpoch(A, q, n) / qpoch(q / (d * z), q, n)
        series = phi11(q / (A * z * d), q ** (n + 1) / (z * d), q ** (n + 1) / z, q, policy)
        return (
            Scaled(_sign(n))
            * _power(q / (A * d * z), n)
            * _qpower(q, n * (n - 1) / 2.0)
            * (pref * series)
        )

    def _solution_2(self, z, n, policy):
        q, A, d = self.q, self.A, self.delta
        series = phi11(q / (A * z * d), q / d, z * q ** (1 - n), q, policy)
        return Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * series

    def _solution_3(self, z, n, policy):
        q, A, d = self.q, self.A, self.delta
        series = phi11(q / (A * z), q * d, d * z * q ** (1 - n), q, policy)
        return Scaled(_sign(n)) * _power(d, -n) * _qpower(q, n * (n - 1) / 2.0) * series

    def _solution_4(self, z, n, policy):
        q, A, d = self.q, self.A, self.delta
        pref = qpoch(1 / z, q, n)
        series = phi11(q ** (1 - n) / A, z * q ** (1 - n), q / d, q, policy)
        return _power(z, n) * (pref * series)

    _solutions = {1: _solution_1, 2: _solution_2, 3: _solution_3, 4: _solution_4}

    def _poly_terms(self, z, n):
        q, A, d = self.q, self.A, self.delta
        pref = (-q / (A * d * z)) ** n * qpoch(A, q, n) / qpoch(q, q, n) * q ** (n * (n - 1) // 2)
        outer = [q**-n, 1 / (z * d), 1 / z], [A], A * d * z * z / q * q**n, -2
        inner = [A / q], [q, 1 / (z * d), 1 / z], q / (A * d * z * z), 2
        return pref, outer, inner

    def _scan_series(self, z, policy):
        q, A, d = self.q, self.A, self.delta
        return (phi11(q / (A * z * d), q / (z * d), q / z, q, policy),
                phi11(q / (A * z * d), 1 / (z * d), 1 / z, q, policy))

    def _cf(self, z, policy):
        num, den = self._scan_series(z, policy)
        return num / (z * (1 - 1 / (self.delta * z)) * cf_denominator(den))

    _cf_forms = {"default": _cf}

    def _comfort_drivers(self, z):
        q, A, d = self.q, self.A, self.delta
        return [q / (A * d * z), q / (d * z), 1 / z]


@dataclass(frozen=True)
class LimitASC1(Family):
    q: float
    delta: complex

    family_id = "limit-asc1"
    param_names = ("delta",)

    def _coeff_rows(self, lo, n):
        q, d = self.q, self.delta
        s = 1 + 1 / d
        return ([s * q**k for k in range(lo, n)],
                [q ** (2 * k - 1) / d for k in range(lo, n)])

    def _solution_1(self, z, n, policy):
        q, d = self.q, self.delta
        pref = 1.0 / qpoch(q / (d * z), q, n)
        series = phi11(0.0, q ** (n + 1) / (z * d), q ** (n + 1) / z, q, policy)
        return _qpower(q, n * n) * _power(d * z, -n) * (pref * series)

    def _solution_2(self, z, n, policy):
        q, d = self.q, self.delta
        series = phi11(0.0, q / d, z * q ** (1 - n), q, policy)
        return Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * series

    def _solution_3(self, z, n, policy):
        q, d = self.q, self.delta
        series = phi11(0.0, q * d, d * z * q ** (1 - n), q, policy)
        return Scaled(_sign(n)) * _power(d, -n) * _qpower(q, n * (n - 1) / 2.0) * series

    def _solution_4(self, z, n, policy):
        q, d = self.q, self.delta
        pref = qpoch(1 / z, q, n)
        series = phi11(0.0, z * q ** (1 - n), q / d, q, policy)
        return _power(z, n) * (pref * series)

    _solutions = {1: _solution_1, 2: _solution_2, 3: _solution_3, 4: _solution_4}

    def _poly_terms(self, z, n):
        # the q-exponent is n^2 (the displayed n(n+1)/2 fails the
        # recurrence by exactly q^(-n(n-1)/2); the parent-limit form and
        # the forward recurrence agree on this one)
        q, d = self.q, self.delta
        pref = d**-n * q ** (n * n) / qpoch(q, q, n)
        return pref, ([q**-n, 1 / z], [], -d * z, -1), ([], [1 / z, q], -1 / (z * d), 1)

    def _poly_alt(self, z, n):
        q, d = self.q, self.delta
        pref = (z * d) ** -n * q ** (n * n) / qpoch(q, q, n)
        outer = [q**-n, 1 / (z * d), 1 / z], [], -d * z * z * q ** (n - 1), -3
        return double_sum(n, q, pref, outer, ([], [q, 1 / (z * d), 1 / z], -1 / (z * z * d), 3))

    def _scan_series(self, z, policy):
        q, d = self.q, self.delta
        return (phi11(0.0, q / (z * d), q / z, q, policy),
                phi11(0.0, 1 / (z * d), 1 / z, q, policy))

    def _cf(self, z, policy):
        num, den = self._scan_series(z, policy)
        return num / (z * (1 - 1 / (self.delta * z)) * cf_denominator(den))

    _cf_forms = {"default": _cf}

    def _comfort_drivers(self, z):
        return [self.q / (self.delta * z), 1 / z]


@dataclass(frozen=True)
class ContQHermite(CutFamily):
    q: float
    A: complex
    delta: complex

    family_id = "cont-q-hermite"
    param_names = ("A", "delta")

    def _coeff_rows(self, lo, n):
        q, A = self.q, self.A
        g = q / (A * self.delta)
        return ([0.0 + 0.0j] * (n - lo),
                [g * (1 - A * q ** (k - 1)) for k in range(lo, n)])

    def _growth_product(self):
        return self.q / (self.A * self.delta)

    def _growth_series(self, mu, n, policy):
        q, A, d = self.q, self.A, self.delta
        pref = qpoch(A, q, n)
        series = phi11(A * q**n, 0.0, A * d * mu * mu, q, policy)
        return _power(mu, n) * (pref * series)

    def _solution_2(self, pt, n, policy):
        q, A, d = self.q, self.A, self.delta
        small = pt.lam_minus
        series = phi_r0_terminating(
            (q ** (1 - n) / A, 0.0), q**n / (d * small * small), q, policy
        )
        return _power(small, n) * series

    _solutions = {
        1: lambda f, pt, n, p: f._growth_series(pt.lam_minus, n, p),
        -1: lambda f, pt, n, p: f._growth_series(pt.lam_plus, n, p),
        2: _solution_2,
    }

    def _poly_terms(self, pt, n):
        q, A, u = self.q, self.A, pt.u
        pref = (self.gamma * u / 2) ** n * qpoch(A, q, n) / qpoch(q, q, n)
        return pref, ([q**-n], [A], -(q**n) * u**-2, -1), ([A / q], [q], -(u**2) * q, 1)

    def _cf(self, pt, policy):
        q, A, d = self.q, self.A, self.delta
        small = pt.lam_minus
        num = phi11(A, 0.0, A * d * small * small, q, policy)
        den = phi11(A / q, 0.0, A * d * small * small, q, policy)
        return (A * d * small / q) * num / cf_denominator(den)

    _cf_forms = {"default": _cf}

    def _weight_parts(self, x, policy):
        q, A = self.q, self.A
        u = spectral_point(self, x=x, side=ABOVE).u
        numerator = qpoch_multi([A, u * u, 1 / (u * u)], q)
        # the two confluent factors dividing the weight, both 1 at A = q;
        # q u^(+-2) is the boundary value of the denominator's argument
        fm = phi11(A / q, 0.0, q / (u * u), q, policy)
        fp = phi11(A / q, 0.0, q * u * u, q, policy)
        return numerator, 1.0 + 0.0j, fm * fp


@dataclass(frozen=True)
class LimitQHermite(Family):
    q: float
    delta: complex

    family_id = "limit-q-hermite"
    param_names = ("delta",)

    def _coeff_rows(self, lo, n):
        q, d = self.q, self.delta
        return [0.0 + 0.0j] * (n - lo), [-(q**k) / d for k in range(lo, n)]

    def _solution_1(self, z, n, policy):
        q, d = self.q, self.delta
        series = phi01(0.0, q ** (n + 2) / (d * z * z), q, policy)
        return (
            Scaled(_sign(n)) * _qpower(q, n * (n - 1) / 2.0) * _power(q / (d * z), n) * series
        )

    _solutions = {1: _solution_1}

    def _poly_terms(self, z, n):
        q, d = self.q, self.delta
        pref = (-z) ** -n * q ** (n * (n - 1) // 2) * (q / d) ** n / qpoch(q, q, n)
        return pref, ([q**-n], [], z * z * q**n * (d / q), -2), ([], [q], q / (z * z * d), 2)

    def _scan_series(self, z, policy):
        q, d = self.q, self.delta
        return phi01(0.0, q * q / (d * z * z), q, policy), phi01(0.0, q / (d * z * z), q, policy)

    def _cf(self, z, policy):
        num, den = self._scan_series(z, policy)
        return num / (z * cf_denominator(den))

    _cf_forms = {"default": _cf}


@dataclass(frozen=True)
class ContBigQHermite(CutFamily):
    q: float
    A: complex
    a: complex

    family_id = "cont-big-q-hermite"
    param_names = ("A", "a")

    def _coeff_rows(self, lo, n):
        q, A = self.q, self.A
        g = self.a * q / A
        return ([q**k + 0.0j for k in range(lo, n)],
                [g * (1 - A * q ** (k - 1)) for k in range(lo, n)])

    def _growth_product(self):
        return self.a * self.q / self.A

    def _growth_series(self, lam, n, policy):
        q, A, a = self.q, self.A, self.a
        pref = qpoch(A, q, n)
        series = phi21(A * lam, A * q**n, 0.0, lam / a, q, policy)
        return _power(lam, n) * (pref * series)

    def _solution_2(self, pt, n, policy):
        q, A, a = self.q, self.A, self.a
        small, large = pt.lam_minus, pt.lam_plus
        pref = qpoch(A * small / (a * q), q, n)
        series = phi21(q ** (1 - n) / A, 0.0, large * q ** (1 - n), A * small, q, policy)
        return _power(large, n) * (pref * series)

    def _solution_3(self, pt, n, policy):
        q, A, a = self.q, self.A, self.a
        small, large = pt.lam_minus, pt.lam_plus
        series = phi_r0_terminating(
            (q ** (1 - n) / A, large / a), A * A * small * small * q ** (n - 2) / a, q, policy
        )
        return _power(large, n) * series

    _solutions = {
        1: lambda f, pt, n, p: f._growth_series(pt.lam_minus, n, p),
        -1: lambda f, pt, n, p: f._growth_series(pt.lam_plus, n, p),
        2: _solution_2,
        3: _solution_3,
    }

    def _poly_terms(self, pt, n):
        q, A = self.q, self.A
        gamma, u = self.gamma, pt.u
        pref = (gamma * u / 2) ** n * qpoch(A, q, n) / qpoch(q, q, n)
        outer = [q**-n, 2 * u / gamma], [A], -(q**n) * u**-2, -1
        inner = [A / q], [q, 2 * u / gamma], -(u**2) * q, 1
        return pref, outer, inner

    def _cf(self, pt, policy):
        q, A, a = self.q, self.A, self.a
        small = pt.lam_minus
        num = phi21(A, A * small, 0.0, small / a, q, policy)
        den = phi21(A / q, A * small, 0.0, small / a, q, policy)
        return (A * small / (a * q)) * num / cf_denominator(den)

    _cf_forms = {"default": _cf}

    def _weight_parts(self, x, policy):
        q, A, a = self.q, self.A, self.a
        pt = spectral_point(self, x=x, side=ABOVE)
        u, lam_p, lam_m = pt.u, pt.lam_plus, pt.lam_minus
        numerator = qpoch_multi([A, u * u, 1 / (u * u)], q)
        denominator = qpoch_multi([lam_p / a, lam_m / a], q)
        bracket = cut_bracket(self, pt, lambda lam: phi21(A / q, A * lam, 0.0, lam / a, q, policy))
        return numerator, denominator, bracket


@dataclass(frozen=True)
class QBesselOrder(Family):
    q: float
    a: complex

    family_id = "q-bessel-order"
    param_names = ("a",)

    def _coeff_rows(self, lo, n):
        q, m = self.q, -self.a
        return ([q**k + 0.0j for k in range(lo, n)],
                [m * q**k for k in range(lo, n)])

    def _solution_1(self, z, n, policy):
        q, a = self.q, self.a
        series = phi11(a * q / z, 0.0, q ** (n + 1) / z, q, policy)
        return _power(-a * q / z, n) * _qpower(q, n * (n - 1) / 2.0) * series

    def _solution_2(self, z, n, policy):
        q, a = self.q, self.a
        pref = qpoch(1 / z, q, n)
        series = phi21(0.0, 0.0, z * q ** (1 - n), a * q / z, q, policy)
        return _power(z, n) * (pref * series)

    def _solution_3(self, z, n, policy):
        q, a = self.q, self.a
        series = phi_r0_terminating((0.0, z / a), a * q**n / (z * z), q, policy)
        return _power(z, n) * series

    _solutions = {1: _solution_1, 2: _solution_2, 3: _solution_3}

    def _poly_terms(self, z, n):
        q, a = self.q, self.a
        pref = (-a / z) ** n * q ** (n * (n + 1) // 2) / qpoch(q, q, n)
        outer = [q**-n, 1 / z], [], q**n * z * z / (a * q), -2
        return pref, outer, ([], [q, 1 / z], q * a / (z * z), 2)

    def _scan_series(self, z, policy):
        q, a = self.q, self.a
        return phi01(q / z, a * q * q / (z * z), q, policy), phi01(1 / z, a * q / (z * z), q, policy)

    def _cf(self, z, policy):
        num, den = self._scan_series(z, policy)
        return num / ((z - 1) * cf_denominator(den))

    _cf_forms = {"default": _cf}

    def _comfort_drivers(self, z):
        return [1 / z, self.a * self.q / z]


FAMILIES = {
    cls.family_id: cls
    for cls in (
        BigQLaguerre,
        Wall,
        LimitWall,
        FourthLimit,
        AlSalamChihara,
        AlSalamCarlitz1,
        LimitASC1,
        ContQHermite,
        LimitQHermite,
        ContBigQHermite,
        QBesselOrder,
    )
}


# every family by id, the flagship included
_BY_ID = {CDQHParams.family_id: CDQHParams, **FAMILIES}


def family_from_id(family_id: str, q, **params):
    """Instantiate any family, the flagship included, by identifier from
    q and its parameters (those it does not take, and those given as
    None, are not passed on); UnknownFamily for an unknown identifier and
    TypeError naming the missing parameters."""
    cls = _BY_ID.get(family_id)
    if cls is None:
        raise UnknownFamily(f"unknown family {family_id!r}; known: {', '.join(sorted(_BY_ID))}")
    missing = [name for name in cls.param_names if params.get(name) is None]
    if missing:
        raise TypeError(f"missing: {', '.join(missing)}")
    return cls(q, **{name: params[name] for name in cls.param_names})


# ---------------------------------------------------------------------------
# Closed-form solutions, indexed by small integers; index 1 is minimal.
# ---------------------------------------------------------------------------


def limit_solution(family, z, which: int, n: int, policy=DEFAULT_POLICY) -> complex:
    """Closed-form solution value; FormalOnly where its series diverges."""
    return solution_value(family, z, which, n, policy)


# ---------------------------------------------------------------------------
# Explicit monic polynomials (double sums).
# ---------------------------------------------------------------------------


def limit_poly(family, z, n: int) -> complex:
    """The paper's explicit double sum for the monic P_n(z) of the family."""
    return explicit_poly(family, z, n)


# ---------------------------------------------------------------------------
# Closed-form continued fractions (values of 1/CF).
# ---------------------------------------------------------------------------


def limit_cf(family, z, form: str | None = None, policy=DEFAULT_POLICY) -> complex:
    """Closed-form value of 1/CF(z) for the family's J-fraction, by the
    named form (None: the family's first declared form)."""
    return cf(family, z, form, policy)


def limit_cf_parts(family, z, policy=DEFAULT_POLICY):
    """(numerator series value, denominator series value) of the
    closed-form 1/CF, for zero/interlacing scans of the positive
    definite regimes.  A one-dimensional array of z gives both at every
    point, in one pass of each series kernel."""
    series = member(family, "_scan_series", "no scan-ready series pair for {!r}")
    if isinstance(z, np.ndarray):
        z = np.asarray(z, dtype=complex)
        # numpy divides by zero without raising: name the scalar's error
        at = qseries.first_point(z == 0, z)
        if at is not None:
            raise ZeroDivisor(f"{family.family_id} continued fraction divides by zero at {at}")
        return series(family, z, policy)
    return guarded("continued fraction", series, family, complex(z), policy)


def fourth_limit_series(family: FourthLimit, n: int):
    """The entire function whose ratios build the parameter-free
    J-fraction: f_n(z) = sum_k q^(k(k-1)) (q^(2n+1)/z)^k / (q; q)_k.
    A one-dimensional real array of z gives the real f_n at every point,
    equal bit for bit to the scalar handle's value there.  A sum past the
    double range, or not settled in 500 terms, raises (a grid: the error
    of its first failing point)."""
    q = family.q

    def f(z):
        if isinstance(z, np.ndarray):
            values = _fourth_limit_grid(q, n, z)
            failed = np.flatnonzero(~np.isfinite(values))
            if not failed.size:
                return values
            # the scalar sum repeats the grid's bit for bit, and raises its error
            z = z[failed[0]]
        z = complex(z)
        if z == 0:
            raise ZeroDivisor("series handle undefined at z = 0")
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        k = 0
        while True:
            k += 1
            term *= q ** (2 * (k - 1)) * q ** (2 * n + 1) / ((1 - q**k) * z)
            total += term
            if abs(term) <= 1e-18 * max(abs(total), 1e-280):
                break
            if k > 500:
                raise MaxTermsExceeded(f"fourth-limit f_{n} did not settle in 500 terms at {z}")
        if not abs(total) < math.inf:  # a term or sum past the range ends the loop at inf
            raise Overflow(f"fourth-limit f_{n} left the double range at {z}")
        return total.real if abs(total.imag) <= 1e-14 * abs(total) else total

    return f


def _fourth_limit_grid(q, n, x):
    """The fourth-limit series handle at every point of a real array x.

    Each point advances one term per pass and leaves the pass by the
    scalar stopping rule.  For real z the scalar handle's complex
    quotient and product reduce to exactly these float operations (the
    imaginary parts stay zero), so the values are the scalar ones; nan
    where the term budget ran out.
    """
    if np.iscomplexobj(x):
        raise TypeError("the grid handle takes real points")
    x = np.asarray(x, dtype=float)
    if (x == 0).any():
        raise ZeroDivisor("series handle undefined at z = 0")
    out = np.empty(x.size)
    idx = np.arange(x.size)
    term = np.ones(x.size)
    total = np.ones(x.size)
    k = 0
    with np.errstate(all="ignore"):
        while idx.size and k <= 500:
            k += 1
            term = term * (q ** (2 * (k - 1)) * q ** (2 * n + 1) / ((1 - q**k) * x))
            total = total + term
            done = np.abs(term) <= 1e-18 * np.maximum(np.abs(total), 1e-280)
            out[idx[done]] = total[done]
            keep = ~done
            idx, x, term, total = idx[keep], x[keep], term[keep], total[keep]
    out[idx] = np.nan
    return out


# ---------------------------------------------------------------------------
# Weight functions of the three cut-carrying limit families.
# ---------------------------------------------------------------------------


def limit_weight(family, x: float, policy=DEFAULT_POLICY) -> float:
    """Density of the absolutely continuous component at x in (-1, 1),
    where the spectral variable is z = gamma x (see ``family.weight``)."""
    return weight(family, x, policy)


# ---------------------------------------------------------------------------
# Zero scanning, bracketing, and interlacing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroList:
    zeros: tuple
    brackets: tuple

    def __len__(self):
        return len(self.zeros)


def _grid(lo: float, hi: float, count: int, log_spaced: bool):
    if log_spaced:
        if lo == 0 or hi == 0 or (lo < 0) != (hi < 0):  # lo * hi can underflow
            raise ValueError("log-spaced scan needs endpoints of one sign")
        sign = 1.0 if lo > 0 else -1.0
        a, b = math.log(abs(lo)), math.log(abs(hi))
        return [sign * math.exp(a + (b - a) * i / (count - 1)) for i in range(count)]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _scan_values(f, grid, safe_f):
    """f at every point of the scan grid: one call of f on the grid
    array when that returns a real array of the grid's length, else one
    call per point.  A point the array call leaves non-finite takes the
    scalar value (nan where the scalar call raises), so both ways give
    the same values wherever f's array values are its scalar ones."""
    try:
        with np.errstate(all="ignore"):
            values = f(np.asarray(grid))
    except Exception:  # f takes no array (math.sin), or a point fails
        values = None
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"
            and values.shape == (len(grid),)):
        return [safe_f(x) for x in grid]
    return [v if math.isfinite(v) else safe_f(x) for x, v in zip(grid, values.tolist())]


def find_zeros(
    f,
    scan_lo: float,
    scan_hi: float,
    max_zeros: int = 8,
    samples: int = 4000,
    log_spaced: bool = True,
    expect: int | None = None,
) -> ZeroList:
    """Bracket sign changes of a real function on a scan grid and bisect
    each to high relative precision.

    The grid is evaluated in one call of f on its array when f takes
    one (see ``_scan_values``); bisection calls f on single points.
    Sign changes caused by simple poles, or at a point where f is not
    finite, are discarded (the function blows up rather than vanishes
    at the located point).  With
    ``expect`` set, a scan that resolves fewer zeros raises
    ScanTooCoarse.
    """
    def safe_f(x):
        try:
            return f(x)
        except (ZeroDivisionError, OverflowError):
            return math.nan

    grid = _grid(scan_lo, scan_hi, samples, log_spaced)
    zeros = []
    brackets = []
    values = _scan_values(f, grid, safe_f)
    for (x0, y0), (x1, y1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if len(zeros) >= max_zeros:
            break
        if y0 == 0:
            zeros.append(x0)
            brackets.append((x0, x0))
            continue
        if not (math.isfinite(y0) and math.isfinite(y1)):  # a pole's jump, or a failed point
            continue
        if y0 * y1 < 0:
            a, b, fa = x0, x1, y0
            while abs(b - a) > 1e-12 * min(1.0, abs(a) + abs(b)) and abs(b - a) > 5e-324:
                mid = 0.5 * (a + b)
                if mid == a or mid == b:  # a and b are adjacent doubles
                    break
                fm = safe_f(mid)
                if not math.isfinite(fm):
                    break
                if fm == 0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            root = 0.5 * (a + b)
            # pole rejection: at a genuine zero the function is small
            # compared with the bracket endpoints, at a pole it is large;
            # the larger endpoint keeps the test free of the zero's
            # steepness (the smaller one can sit next to the zero)
            edge = max(abs(y0), abs(y1))
            root_value = safe_f(root)
            if not math.isnan(root_value) and abs(root_value) <= max(1e-6 * edge, 1e-250):
                zeros.append(root)
                brackets.append((x0, x1))
    zeros_sorted = sorted(zeros)
    order = sorted(range(len(zeros)), key=lambda i: zeros[i])
    result = ZeroList(tuple(zeros_sorted), tuple(brackets[i] for i in order))
    if expect is not None and len(result) < expect:
        raise ScanTooCoarse(f"resolved {len(result)} zeros, expected {expect}")
    return result


def fourth_limit_zero_window(q: float, n: int, count: int = 8):
    """Scan window holding the first ``count`` zeros of the
    parameter-free series handle of order n.

    Zeros cluster geometrically toward 0- with ratio about q^2, so the
    inner endpoint must shrink with the requested count; a subnormal one
    is clamped to the normal range.  Overflow when the outer endpoint
    overflows, or the ``count``-th zero, of size at least about
    q^(2n + 2 count - 1), is subnormal, where it cannot be resolved.
    """
    try:
        lo = -1e6 * q ** (2 * n)
        hi = -(q ** (2 * n + 1)) * q ** (2 * (count + 2))
        if math.isfinite(lo) and q ** (2 * n + 2 * count - 1) >= sys.float_info.min:
            return lo, min(hi, -sys.float_info.min)
    except OverflowError:
        pass
    raise Overflow(f"the zero window of order n = {n} at q = {q} leaves the double range")


def interlaces(first, second) -> bool:
    """True when between consecutive zeros of ``first`` lies exactly one
    zero of ``second`` (standard strict interlacing on the overlap)."""
    a = list(first.zeros if isinstance(first, ZeroList) else first)
    b = list(second.zeros if isinstance(second, ZeroList) else second)
    if len(a) < 2 or not b:
        return True
    for lo, hi in zip(a, a[1:]):
        inside = [x for x in b if lo < x < hi]
        if len(inside) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Limit-edge verification: parent values renormalized per the fixed
# prescription must approach the child values.
# ---------------------------------------------------------------------------


# parent family at scale s -> child family; an edge whose parent P_n(z)
# tends to the child's at the same z and n needs no "map", the rescaled
# edges map the parent's values onto the child's variable
LIMIT_EDGES = {
    "cdqh-to-big-q-laguerre": {
        "child": "big-q-laguerre",
        "parent": lambda f, s: CDQHParams(f.q, f.A, f.B, f.C, s),
    },
    "big-q-laguerre-to-wall": {
        "child": "wall",
        "parent": lambda f, s: BigQLaguerre(f.q, f.A, f.B, s),
    },
    "wall-to-limit-wall": {
        "child": "limit-wall",
        "parent": lambda f, s: Wall(f.q, f.A, s),
    },
    "limit-wall-to-fourth-limit": {
        "child": "fourth-limit",
        "parent": lambda f, s: LimitWall(f.q, s),
    },
    "cdqh-to-asc": {
        "child": "al-salam-chihara",
        "parent": lambda f, s: CDQHParams(f.q, f.A, f.B, 1.0 / s, f.delta / s),
        "map": lambda parent, z, n, s: (1.0 / s) ** n * poly(parent, z * s, n),
    },
    "asc-to-asc1": {
        "child": "al-salam-carlitz1",
        "parent": lambda f, s: AlSalamChihara(f.q, f.A, s, f.delta),
    },
    "asc1-to-limit-asc1": {
        "child": "limit-asc1",
        "parent": lambda f, s: AlSalamCarlitz1(f.q, s, f.delta),
    },
    "asc-to-cont-q-hermite": {
        "child": "cont-q-hermite",
        "parent": lambda f, s: AlSalamChihara(f.q, f.A, 1.0 / s, f.delta),
        "map": lambda parent, z, n, s: (1.0 / s) ** (n / 2.0)
        * poly(parent, z * math.sqrt(s), n),
    },
    "cont-q-hermite-to-limit-q-hermite": {
        "child": "limit-q-hermite",
        "parent": lambda f, s: ContQHermite(f.q, s, f.delta),
    },
    "asc-to-cont-big-q-hermite": {
        "child": "cont-big-q-hermite",
        "parent": lambda f, s: AlSalamChihara(f.q, f.A, 1.0 / s, s / f.a),
    },
    "cbqh-to-q-bessel-order": {
        "child": "q-bessel-order",
        "parent": lambda f, s: ContBigQHermite(f.q, s, f.a),
    },
}


def limit_convergence(edge_id: str, child_family, scales, n: int, z) -> list:
    """Deviations |renormalized parent P_n - child P_n| per scale; the
    list must decrease for the limit prescription to be confirmed."""
    try:
        edge = LIMIT_EDGES[edge_id]
    except KeyError:
        raise UnknownFamily(
            f"unknown limit edge {edge_id!r}; known: {sorted(LIMIT_EDGES)}"
        ) from None
    if child_family.family_id != edge["child"]:
        raise UnknownFamily(
            f"edge {edge_id} expects a {edge['child']} child, got "
            f"{child_family.family_id}"
        )
    z = complex(z)
    child_value = poly(child_family, z, n)
    deviations = []
    for s in scales:
        parent = edge["parent"](child_family, s)
        mapped = edge["map"](parent, z, n, s) if "map" in edge else poly(parent, z, n)
        deviations.append(abs(mapped - child_value))
    return deviations
