"""Side identities of the paper that the test suites check and no
library path evaluates: the product forms of the generating function
and of a weight, the inverted/lead-c connection constant, the
Al-Salam-Carlitz partial fractions and terminating-series pairs, and the
Jackson q-Bessel connection.
"""

from __future__ import annotations

import cmath
import math

from qdhahn.cdqhahn import CDQHParams
from qdhahn.errors import PoleHit, QdhError
from qdhahn.family import ABOVE, SpectralPoint, solution_scaled, spectral_point
from qdhahn.limits import AlSalamCarlitz1, ContBigQHermite, QBesselOrder, limit_solution
from qdhahn.qseries import (
    DEFAULT_POLICY,
    phi01,
    phi11,
    phi21,
    phi_r0_terminating,
    qpoch,
    qpoch_multi,
    support_points,
    termination_order,
    weight_density,
)
from qdhahn.recurrence import scaled_power as _power, scaled_qpower as _qpower


class ResonantDelta(QdhError):
    """The partial-fraction expansion is invalid because delta is a
    negative integer power of q."""


def inverted_to_lead_c_constant(params: CDQHParams, point: SpectralPoint) -> complex:
    """n-independent ratio between the inverted and lead-c solutions.

    The third numerator product is (q/B; q)_inf, as the n = 0 reduction
    of the connecting transformation forces.
    """
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    lam_p, lam_m = point.lam_plus, point.lam_minus
    num = qpoch_multi([C * q / A, C * q / D, q / B], q)
    den = qpoch_multi([C, C * lam_p * q, C * lam_m * q], q)
    return num / den


def genfun_coeffs_reduced(params: CDQHParams, point: SpectralPoint, n_max: int):
    """Product form of the generating-function coefficients for D = q.

    Returns the Taylor coefficients of the product of a q-binomial
    quotient with a 2-phi-1 series; they must match ``genfun_coeffs``
    when D = q.
    """
    if abs(params.D - params.q) > 1e-12:
        raise ValueError("the product form requires D = q")
    q = params.q
    A, B, C = params.A, params.B, params.C
    u = point.u
    ta = 2 * point.alpha
    a, b, c = ta / B, ta / C, ta / A
    # (c t)_inf / (t u)_inf = sum ((c/u)_m / (q)_m) (u t)^m
    pre = [1.0 + 0.0j]
    for m in range(1, n_max + 1):
        pre.append(pre[m - 1] * (1 - c / u * q ** (m - 1)) / (1 - q**m) * u)
    ser = [1.0 + 0.0j]
    for k in range(1, n_max + 1):
        ser.append(
            ser[k - 1]
            * (1 - a * u * q ** (k - 1))
            * (1 - b * u * q ** (k - 1))
            / ((1 - a * b * q ** (k - 1)) * (1 - q**k))
            / u
        )
    return [
        sum(pre[m] * ser[n - m] for m in range(n + 1)) for n in range(n_max + 1)
    ]


def cont_big_q_hermite_weight_reduced(family: ContBigQHermite, x: float) -> float:
    """A = q specialization of the weight: pure infinite products (at
    every point of a one-dimensional array of x)."""
    q, a = family.q, family.a
    if abs(family.A - q) > 1e-12:
        raise ValueError("the reduced weight requires A = q")
    x = support_points(x)
    u = spectral_point(family, x=x, side=ABOVE).u
    root = cmath.sqrt(complex(a))
    numerator = qpoch(q, q) * qpoch_multi([u * u, 1 / (u * u)], q)
    denominator = qpoch_multi([u / root, 1 / (u * root)], q)
    return weight_density(x, numerator, denominator)


def asc1_partial_fractions(family: AlSalamCarlitz1, z) -> complex:
    """Residue expansion of 1/CF for the A = q case: explicit simple
    poles at z = q^n and z = q^n/delta.

    Truncated once terms drop below 1e-14 relative to the accumulated
    sum.
    """
    q, d = family.q, family.delta
    if abs(family.A - q) > 1e-12:
        raise ValueError("the partial-fraction expansion requires A = q")
    if termination_order(1 / d, q) is not None:
        raise ResonantDelta("delta equal to a negative power of q is excluded")
    z = complex(z)
    inv_d_inf = qpoch(1 / d, q)
    d_inf = qpoch(d, q)
    total = 0.0 + 0.0j
    qn = 1.0
    poch_q = 1.0 + 0.0j
    poch_dq = 1.0 + 0.0j
    poch_qd = 1.0 + 0.0j
    n = 0
    while True:
        if n > 0:
            poch_q *= 1 - q**n
            poch_dq *= 1 - d * q**n
            poch_qd *= 1 - q**n / d
        pole1 = z - qn
        pole2 = z - qn / d
        if abs(pole1) < 1e-12 * max(abs(z), 1.0) or abs(pole2) < 1e-12 * max(abs(z), 1.0):
            raise PoleHit(f"z coincides with an expansion pole near index {n}")
        term = qn / (pole1 * poch_q * poch_dq * inv_d_inf) + qn / (
            pole2 * poch_q * poch_qd * d_inf
        )
        total += term
        if abs(term) < 1e-14 * max(abs(total), 1e-300) and n > 3:
            break
        if n > 10000:
            raise PoleHit("residue expansion did not settle")
        n += 1
        qn *= q
    return total


def asc1_identity_checks(family: AlSalamCarlitz1, z, n: int, policy=DEFAULT_POLICY):
    """Both sides of the two terminating-series identities available at
    A = q, plus the cross-equality of their left sides.

    Returns a list of (label, lhs, rhs) triples.
    """
    q, d = family.q, family.delta
    if abs(family.A - q) > 1e-12:
        raise ValueError("these identities require A = q")
    z = complex(z)
    qn = q**n
    lhs_a = (-d * z) ** -n * q ** (n * (n - 1) // 2) * phi_r0_terminating(
        (q**-n, 1 / (z * d), 1 / z), d * z * z * qn, q, policy
    )
    rhs_a = z**n * qpoch(1 / z, q, n) * phi11(q**-n, z * q ** (1 - n), q / d, q, policy)
    lhs_b = (-1 / d) ** n * q ** (n * (n - 1) // 2) * phi21(
        q**-n, 1 / z, 0.0, q * z * d, q, policy
    )
    rhs_b = (
        z**n
        * qpoch(1 / (z * d), q, n)
        * phi11(q**-n, q ** (1 - n) * z * d, q * d, q, policy)
    )
    return [
        ("terminating-pair-a", lhs_a, rhs_a),
        ("terminating-pair-b", lhs_b, rhs_b),
        ("cross", lhs_a, lhs_b),
    ]


def jackson_q_bessel(kind: int, nu, x, q, policy=DEFAULT_POLICY) -> complex:
    """Jackson's q-analogues of the Bessel function (kinds 1 and 2).

    Negative integer orders of the first kind are handled through the
    reflection J_{-m} = (-1)^m J_m, which the series limit forces.
    """
    nu = complex(nu)
    x = _canonical(x)
    if kind == 1 and abs(nu.imag) < 1e-12:
        m = round(-nu.real)
        if m > 0 and abs(nu.real + m) < 1e-9:
            return (-1) ** m * jackson_q_bessel(1, float(m), x, q, policy)
    pref = qpoch(q ** (nu + 1), q) / qpoch(q, q) * (x / 2) ** nu
    if kind == 1:
        return pref * phi21(0.0, 0.0, q ** (nu + 1), -x * x / 4, q, policy)
    if kind == 2:
        return pref * phi01(q ** (nu + 1), -x * x / 4 * q ** (nu + 1), q, policy)
    raise ValueError("kind must be 1 or 2")


def _canonical(value: complex) -> complex:
    """Strip a negative-zero imaginary part so branch cuts of sqrt and
    powers are taken consistently."""
    value = complex(value)
    if value.imag == 0.0:
        return complex(value.real, 0.0)
    return value


def qbessel_connection(family: QBesselOrder, z, n_max: int, policy=DEFAULT_POLICY,
                       kinds=(1, 2)):
    """Ratio sequences connecting the two recurrence solutions to the
    q-Bessel functions of matching order and argument.

    Each returned list must be constant in n (the connection holds up to
    an n-independent factor).  The first-kind multiplier is
    (-i sqrt(z/(a q)))^n q^(-n(n-1)/2); the displayed variant with an
    extra Pochhammer quotient is inconsistent with the normalization of
    the polynomial-like solution fixed by its own limit definition, and
    fails the constancy test that this form passes at machine precision.
    """
    q, a = family.q, family.a
    z = _canonical(z)
    nu = _canonical(cmath.log(_canonical(1 / z)) / math.log(q))
    arg = 2j * cmath.sqrt(_canonical(a * q / z))
    first = []
    second = []
    for n in range(n_max + 1):
        if 1 in kinds:
            j1 = jackson_q_bessel(1, -nu - n, arg, q, policy)
            b2 = limit_solution(family, z, 2, n, policy)
            rhs1 = (
                (-1j * cmath.sqrt(_canonical(z / (a * q)))) ** n
                * q ** (-n * (n - 1) / 2.0)
                * b2
            )
            first.append(j1 / rhs1)
        if 2 in kinds:
            j2 = jackson_q_bessel(2, nu + n, arg, q, policy)
            b1 = limit_solution(family, z, 1, n, policy)
            rhs2 = (
                (-1) ** n
                * q ** (-n * (n - 1) / 2.0)
                / cmath.sqrt(z)
                * (z / (a * math.sqrt(q))) ** n
                * (1j * cmath.sqrt(_canonical(a / z))) ** n
                * b1
            )
            second.append(j2 / rhs2)
    return first, second


def qbessel_series_forms(family: QBesselOrder, z, n: int, policy=DEFAULT_POLICY):
    """The minimal solution in its confluent form and rewritten through
    the 0-phi-1 kernel; the two must agree."""
    q, a = family.q, family.a
    z = complex(z)
    direct = solution_scaled(family, z, 1, n, policy)
    series = qpoch(q ** (n + 1) / z, q) * phi01(
        q ** (n + 1) / z, a * q ** (n + 2) / (z * z), q, policy
    )
    alt = _power(-a * q / z, n) * _qpower(q, n * (n - 1) / 2.0) * series
    return direct.value, alt.value
